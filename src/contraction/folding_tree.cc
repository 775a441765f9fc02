#include "contraction/folding_tree.h"

#include <bit>

#include "common/logging.h"
#include "data/serde.h"

namespace slider {

void FoldingTree::initial_build(std::vector<Leaf> leaves,
                                TreeUpdateStats* stats) {
  held_.drop_all();
  levels_.clear();
  first_ = 0;
  end_ = leaves.size();
  const std::size_t capacity = std::bit_ceil(end_);
  levels_.emplace_back(capacity);
  std::vector<std::size_t> dirty;
  dirty.reserve(leaves.size());
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    LevelSlot& slot = levels_[0][i];
    slot.id = leaf_node_id(ctx_, leaves[i].split_id, *leaves[i].table);
    slot.table = std::move(leaves[i].table);
    slot.recomputed_this_run = true;
    memoize_leaf(ctx_, slot.id, slot.table, stats);
    held_.hold(slot.id);
    dirty.push_back(i);
  }
  for (std::size_t size = capacity >> 1; size >= 1; size >>= 1) {
    levels_.emplace_back(size);
  }
  recompute_paths(ctx_, combiner_, levels_, std::move(dirty), held_, stats);
}

void FoldingTree::grow() {
  // Merge with a fresh, same-sized, all-void tree: every level doubles and
  // a new root level appears. Existing nodes keep their indices (left
  // half), so nothing recomputes until leaves land in the new half.
  for (auto& level : levels_) {
    level.resize(level.size() * 2);
  }
  levels_.emplace_back(1);
  // The new root is derived from the old root + void → recomputed as a
  // passthrough by the path recompute of whichever insertion triggered the
  // growth (the inserted leaf's path reaches the new root).
}

void FoldingTree::shrink(std::vector<std::size_t>& dirty_leaves) {
  // The whole left half of the leaf level is void: promote the right child
  // of the root. Indices shift down by half the capacity at the leaf
  // level, halving per level above.
  const std::size_t half = levels_[0].size() / 2;
  SLIDER_CHECK(first_ >= half) << "shrink with occupied left half";
  std::size_t level_half = half;
  for (auto& level : levels_) {
    if (level.size() == 1) break;  // root level handled by pop below
    const auto cut = level.begin() + static_cast<std::ptrdiff_t>(level_half);
    for (auto it = level.begin(); it != cut; ++it) held_.drop(it->id);
    level.erase(level.begin(), cut);
    level_half /= 2;
  }
  held_.drop(levels_.back()[0].id);
  levels_.pop_back();
  first_ -= half;
  end_ -= half;
  // Dirt in the discarded half vanishes with its subtree; the rest shifts.
  std::erase_if(dirty_leaves, [half](std::size_t idx) { return idx < half; });
  for (std::size_t& idx : dirty_leaves) idx -= half;
}

void FoldingTree::apply_delta(std::size_t remove_front,
                              std::vector<Leaf> added,
                              TreeUpdateStats* stats) {
  SLIDER_CHECK(!levels_.empty()) << "apply_delta before initial_build";
  SLIDER_CHECK(remove_front <= leaf_count()) << "removing more than window";

  std::vector<std::size_t> dirty;

  // Drop old items: void the leftmost occupied slots.
  for (std::size_t i = 0; i < remove_front; ++i) {
    held_.drop(levels_[0][first_].id);
    levels_[0][first_] = LevelSlot{};
    dirty.push_back(first_);
    ++first_;
  }

  // Fold: reduce the height while the left half is entirely void. Dirty
  // indices from the discarded half vanish with it (their ancestors are
  // discarded too, except the root, whose promotion is free).
  while (levels_.size() > 1 && first_ >= levels_[0].size() / 2) {
    shrink(dirty);
  }

  // Insert new items into void slots on the right, unfolding as needed.
  for (Leaf& leaf : added) {
    if (end_ == levels_[0].size()) grow();
    LevelSlot& slot = levels_[0][end_];
    slot.id = leaf_node_id(ctx_, leaf.split_id, *leaf.table);
    slot.table = std::move(leaf.table);
    slot.recomputed_this_run = true;
    memoize_leaf(ctx_, slot.id, slot.table, stats);
    held_.hold(slot.id);
    dirty.push_back(end_);
    ++end_;
  }

  recompute_paths(ctx_, combiner_, levels_, std::move(dirty), held_, stats);
}

std::shared_ptr<const KVTable> FoldingTree::root() const {
  SLIDER_CHECK(!levels_.empty()) << "root() before build";
  const LevelSlot& top = levels_.back()[0];
  if (top.table == nullptr) return std::make_shared<const KVTable>();
  return top.table;
}

void FoldingTree::serialize(durability::CheckpointWriter& writer) const {
  std::string& blob = writer.blob();
  wire::put_u64(blob, first_);
  wire::put_u64(blob, end_);
  wire::put_u32(blob, static_cast<std::uint32_t>(levels_.size()));
  // Bottom-up, so internal passthrough nodes that alias a child's table
  // serialize as by-ref to the already-encoded child payload.
  for (const auto& level : levels_) {
    wire::put_u32(blob, static_cast<std::uint32_t>(level.size()));
    for (const LevelSlot& slot : level) {
      writer.put_node(slot.id, slot.table.get());
    }
  }
}

bool FoldingTree::restore(durability::CheckpointReader& reader) {
  std::uint64_t first = 0;
  std::uint64_t end = 0;
  std::uint32_t level_count = 0;
  if (!reader.get_u64(&first) || !reader.get_u64(&end) ||
      !reader.get_u32(&level_count) || level_count == 0) {
    return false;
  }
  Levels levels;
  levels.reserve(level_count);
  for (std::uint32_t k = 0; k < level_count; ++k) {
    std::uint32_t slot_count = 0;
    if (!reader.get_u32(&slot_count)) return false;
    std::vector<LevelSlot> level(slot_count);
    for (LevelSlot& slot : level) {
      // recomputed_this_run stays false: a checkpoint captures post-run
      // state, where every mark has been reset.
      if (!reader.get_node(&slot.id, &slot.table)) return false;
    }
    levels.push_back(std::move(level));
  }
  if (levels.back().size() != 1 || first > end ||
      end > levels.front().size()) {
    return false;
  }
  levels_ = std::move(levels);
  held_.reset();
  hold_level_ids(levels_, held_);
  first_ = static_cast<std::size_t>(first);
  end_ = static_cast<std::size_t>(end);
  return true;
}

TreeDescription FoldingTree::describe() const {
  return describe_levels(*this, levels_);
}

void FoldingTree::collect_live_ids(std::unordered_set<NodeId>& live) const {
  collect_level_ids(levels_, live);
}

}  // namespace slider
