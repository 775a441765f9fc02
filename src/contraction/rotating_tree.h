// Rotating contraction tree (paper §4.1) — fixed-width windows.
//
// Consecutive splits are grouped into *buckets* (one bucket per slide);
// the buckets are leaves of a static balanced binary tree organized as a
// circular list. A slide replaces the oldest bucket with a freshly built
// one and recomputes the single leaf-to-root path (log N combiner calls),
// reusing the memoized off-path siblings. Rotation reorders the leaves, so
// the Combiner must be commutative in addition to associative.
//
// Split processing (§4): because the next victim bucket is known, the
// background phase (a) installs the bucket produced by the last slide into
// the tree and recomputes its path, and (b) pre-combines the off-path
// sibling outputs of the *next* victim into an intermediate I. The next
// foreground run then only builds the new bucket and hands {I, new bucket}
// straight to Reduce — no tree path work on the critical path.
#pragma once

#include <optional>

#include "contraction/tree_common.h"

namespace slider {

class RotatingTree final : public ContractionTree {
 public:
  RotatingTree(MemoContext ctx, CombineFn combiner, std::size_t bucket_width,
               bool split_processing)
      : ctx_(ctx),
        combiner_(std::move(combiner)),
        bucket_width_(bucket_width),
        split_processing_(split_processing) {}

  // Overrides the uniform bucket_width grouping of initial_build with
  // explicit per-bucket split counts (e.g. one bucket per calendar month).
  // Must be called before initial_build; sizes must sum to the leaf count.
  void set_initial_bucket_sizes(std::vector<std::size_t> sizes) {
    initial_bucket_sizes_ = std::move(sizes);
  }

  void initial_build(std::vector<Leaf> leaves,
                     TreeUpdateStats* stats) override;
  void apply_delta(std::size_t remove_front, std::vector<Leaf> added,
                   TreeUpdateStats* stats) override;
  std::shared_ptr<const KVTable> root() const override;
  std::vector<std::shared_ptr<const KVTable>> reduce_inputs() const override;
  void background_preprocess(TreeUpdateStats* stats) override;
  int height() const override { return static_cast<int>(levels_.size()) - 1; }
  std::size_t leaf_count() const override { return window_splits_; }
  std::string_view kind() const override { return "rotating"; }
  TreeDescription describe() const override;
  void collect_live_ids(std::unordered_set<NodeId>& live) const override;
  void take_released_ids(std::vector<NodeId>& released) override {
    held_.take(released);
  }
  void serialize(durability::CheckpointWriter& writer) const override;
  bool restore(durability::CheckpointReader& reader) override;

  std::size_t bucket_count() const { return buckets_; }
  std::size_t next_victim() const { return next_victim_; }
  bool has_precomputed_intermediate() const { return intermediate_.has_value(); }

 private:
  struct Bucket {
    NodeId id = 0;
    std::shared_ptr<const KVTable> table;
    std::size_t split_count = 0;
  };

  void install_bucket(std::size_t slot_index, Bucket bucket,
                      TreeUpdateStats* stats);
  // Installs the pending bucket (split processing's deferred tree update).
  void install_pending(TreeUpdateStats* stats);
  void reset_intermediate();
  void compute_intermediate(TreeUpdateStats* stats);

  MemoContext ctx_;
  CombineFn combiner_;
  std::size_t bucket_width_;
  bool split_processing_;
  std::vector<std::size_t> initial_bucket_sizes_;

  // levels_[0] = bucket slots padded with voids to a power of two.
  Levels levels_;
  // Every slot's id, the pending bucket's and the intermediate's.
  HeldIds held_;
  std::vector<std::size_t> bucket_splits_;  // split count per leaf slot
  std::size_t buckets_ = 0;        // live bucket count N
  std::size_t next_victim_ = 0;    // circular rotation pointer
  std::size_t window_splits_ = 0;

  // Split-processing state.
  std::optional<std::pair<std::size_t, Bucket>> pending_install_;
  struct Intermediate {
    std::size_t victim = 0;  // slot the intermediate was computed for
    NodeId id = 0;
    std::shared_ptr<const KVTable> table;
  };
  std::optional<Intermediate> intermediate_;
  std::shared_ptr<const KVTable> fresh_bucket_table_;  // this run's bucket
  // Lazily materialized I ⊕ bucket; a cache, hence mutable (root() is
  // logically const and uncharged — see the comment there).
  mutable std::shared_ptr<const KVTable> root_override_;
};

}  // namespace slider
