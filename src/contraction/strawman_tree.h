// Strawman contraction tree (paper §2).
//
// The memoization-only baseline: a balanced binary tree over the current
// leaf sequence, rebuilt on every run. Node identities are content hashes,
// so any node whose whole subtree is unchanged is reused from the memo
// layer — but the rebuild still *visits* every node (id computation + memo
// lookup), and a slide at the window's front shifts every subtree boundary,
// defeating internal reuse. This gives the "linear time with a small
// constant" behaviour the paper attributes to Incoop-style systems, and is
// the baseline of Fig 8. It is also the right tool for the later stages of
// query pipelines (§5), where changes land at arbitrary positions.
#pragma once

#include "contraction/tree_common.h"

namespace slider {

class StrawmanTree final : public ContractionTree {
 public:
  StrawmanTree(MemoContext ctx, CombineFn combiner)
      : ctx_(ctx), combiner_(std::move(combiner)) {}

  void initial_build(std::vector<Leaf> leaves,
                     TreeUpdateStats* stats) override;
  void apply_delta(std::size_t remove_front, std::vector<Leaf> added,
                   TreeUpdateStats* stats) override;
  std::shared_ptr<const KVTable> root() const override { return root_; }
  int height() const override { return height_; }
  std::size_t leaf_count() const override { return leaves_.size(); }
  std::string_view kind() const override { return "strawman"; }
  TreeDescription describe() const override;
  void collect_live_ids(std::unordered_set<NodeId>& live) const override;
  void take_released_ids(std::vector<NodeId>& released) override {
    take_unless_live(released_, live_, released);
  }
  void serialize(durability::CheckpointWriter& writer) const override;
  bool restore(durability::CheckpointReader& reader) override;

 private:
  struct Built {
    NodeId id = 0;
    std::shared_ptr<const KVTable> table;
    bool recomputed = false;
  };

  Built build_range(std::size_t lo, std::size_t hi, TreeUpdateStats* stats);
  void rebuild(TreeUpdateStats* stats);

  MemoContext ctx_;
  CombineFn combiner_;
  std::vector<Leaf> leaves_;
  std::shared_ptr<const KVTable> root_;
  NodeId root_id_ = 0;  // 0 for the empty window's empty root
  int height_ = 0;

  // Cross-run memo of node payloads (the in-process view of what the memo
  // layer holds); pruned to the live tree after every rebuild, the pruned
  // ids queued in released_.
  MemoMap memo_;
  std::unordered_set<NodeId> live_;
  std::vector<NodeId> released_;
};

}  // namespace slider
