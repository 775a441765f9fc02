// Coalescing contraction tree (paper §4.2) — append-only windows.
//
// The window only grows, so the whole history contracts to a single
// running root. An append combines the new map outputs into a delta C',
// then coalesces {previous root, C'} into the new root. With split
// processing the foreground skips that last combine — Reduce streams over
// {previous root, C'} — and the background phase materializes the new root
// for the next run (Fig 5b).
#pragma once

#include "contraction/tree_common.h"

namespace slider {

class CoalescingTree final : public ContractionTree {
 public:
  CoalescingTree(MemoContext ctx, CombineFn combiner, bool split_processing)
      : ctx_(ctx),
        combiner_(std::move(combiner)),
        split_processing_(split_processing) {}

  void initial_build(std::vector<Leaf> leaves,
                     TreeUpdateStats* stats) override;
  void apply_delta(std::size_t remove_front, std::vector<Leaf> added,
                   TreeUpdateStats* stats) override;
  std::shared_ptr<const KVTable> root() const override;
  std::vector<std::shared_ptr<const KVTable>> reduce_inputs() const override;
  void background_preprocess(TreeUpdateStats* stats) override;
  int height() const override { return height_; }
  std::size_t leaf_count() const override { return leaf_count_; }
  std::string_view kind() const override { return "coalescing"; }
  TreeDescription describe() const override;
  void collect_live_ids(std::unordered_set<NodeId>& live) const override;
  void take_released_ids(std::vector<NodeId>& released) override {
    held_.take(released);
  }
  void serialize(durability::CheckpointWriter& writer) const override;
  bool restore(durability::CheckpointReader& reader) override;

  bool has_pending_coalesce() const { return pending_delta_ != nullptr; }

 private:
  void coalesce_pending(TreeUpdateStats* stats);

  MemoContext ctx_;
  CombineFn combiner_;
  bool split_processing_;

  MemoNode root_node_;  // C_k: combined history up to the last coalesce
  // Split-processing state: delta C' not yet folded into root_node_.
  std::shared_ptr<const KVTable> pending_delta_;
  NodeId pending_delta_id_ = 0;
  // Lazily materialized C_k ⊕ C'; a cache, hence mutable (root() is
  // logically const and uncharged — see the comment there).
  mutable std::shared_ptr<const KVTable> root_override_;
  HeldIds held_;  // the root's id and the pending delta's

  std::size_t leaf_count_ = 0;
  int height_ = 0;
};

}  // namespace slider
