// Randomized folding tree (paper §3.2).
//
// A skip-list-inspired structure for windows whose size changes
// drastically. At every level, consecutive nodes are grouped; each node
// closes its group with probability p = 1/2 (a deterministic coin derived
// from the node's content id, so grouping is a pure function of the node
// sequence and interior groups are stable under edits at the ends). Level
// k+1 holds one node per level-k group; the expected height tracks
// log2(current window size), so after the window shrinks by half the tree
// really is one level shorter — the property Fig 12 measures against the
// plain folding tree, whose height only shrinks when a whole half empties.
#pragma once

#include "contraction/tree_common.h"

namespace slider {

class RandomizedFoldingTree final : public ContractionTree {
 public:
  RandomizedFoldingTree(MemoContext ctx, CombineFn combiner,
                        double boundary_probability = 0.5)
      : ctx_(ctx),
        combiner_(std::move(combiner)),
        boundary_probability_(boundary_probability) {}

  void initial_build(std::vector<Leaf> leaves,
                     TreeUpdateStats* stats) override;
  void apply_delta(std::size_t remove_front, std::vector<Leaf> added,
                   TreeUpdateStats* stats) override;
  std::shared_ptr<const KVTable> root() const override;
  int height() const override { return height_; }
  std::size_t leaf_count() const override { return leaf_ids_.size(); }
  std::string_view kind() const override { return "randomized-folding"; }
  TreeDescription describe() const override;
  void collect_live_ids(std::unordered_set<NodeId>& live) const override;
  void take_released_ids(std::vector<NodeId>& released) override {
    take_unless_live(released_, live_, released);
  }
  void serialize(durability::CheckpointWriter& writer) const override;
  bool restore(durability::CheckpointReader& reader) override;

 private:
  struct Entry {
    NodeId id = 0;
    std::shared_ptr<const KVTable> table;
    bool recomputed = false;
  };

  // Deterministic coin: does this node close its group at this level?
  bool closes_group(NodeId id, int level) const;

  // (Re)derives all levels from the current leaf sequence, reusing
  // memoized group nodes wherever the member-id sequence is unchanged.
  // Charges each group at its level; stats->level is restored on return.
  void contract(std::vector<Entry> level, TreeUpdateStats* stats);

  MemoContext ctx_;
  CombineFn combiner_;
  double boundary_probability_;

  std::vector<NodeId> leaf_ids_;  // current window's leaf node ids
  MemoMap memo_;  // pruned to live_ after every run, into released_
  std::unordered_set<NodeId> live_;
  std::vector<NodeId> released_;
  std::shared_ptr<const KVTable> root_;
  NodeId root_id_ = 0;  // 0 for the empty window's empty root
  int height_ = 0;
};

}  // namespace slider
