// Self-adjusting folding contraction tree (paper §3.1).
//
// A complete binary tree whose leaf slots hold the window's per-split map
// outputs contiguously; slots outside [first, end) are *void*. The window
// slides by voiding leaves on the left and filling void slots on the
// right. When the right side runs out of void slots the tree doubles
// ("merge with a fresh same-size tree", height +1); when the entire left
// half of the leaf level is void the tree halves ("promote the right child
// of the root", height −1). Only nodes on paths from changed leaves to the
// root recompute; a node with one void child is a free passthrough of the
// other child.
#pragma once

#include "contraction/tree_common.h"

namespace slider {

class FoldingTree final : public ContractionTree {
 public:
  FoldingTree(MemoContext ctx, CombineFn combiner)
      : ctx_(ctx), combiner_(std::move(combiner)) {}

  void initial_build(std::vector<Leaf> leaves,
                     TreeUpdateStats* stats) override;
  void apply_delta(std::size_t remove_front, std::vector<Leaf> added,
                   TreeUpdateStats* stats) override;
  std::shared_ptr<const KVTable> root() const override;
  int height() const override { return static_cast<int>(levels_.size()) - 1; }
  std::size_t leaf_count() const override { return end_ - first_; }
  std::string_view kind() const override { return "folding"; }
  TreeDescription describe() const override;
  void collect_live_ids(std::unordered_set<NodeId>& live) const override;
  void take_released_ids(std::vector<NodeId>& released) override {
    held_.take(released);
  }
  void serialize(durability::CheckpointWriter& writer) const override;
  bool restore(durability::CheckpointReader& reader) override;

  // Test hooks.
  std::size_t capacity() const {
    return levels_.empty() ? 0 : levels_[0].size();
  }
  std::size_t first_occupied() const { return first_; }

 private:
  void grow();
  void shrink(std::vector<std::size_t>& dirty_leaves);

  MemoContext ctx_;
  CombineFn combiner_;

  Levels levels_;
  HeldIds held_;           // every slot's id
  std::size_t first_ = 0;  // index of oldest occupied leaf slot
  std::size_t end_ = 0;    // one past newest occupied leaf slot
};

}  // namespace slider
