#include "contraction/strawman_tree.h"

#include <bit>
#include <cmath>
#include <map>

#include "common/logging.h"
#include "data/serde.h"

namespace slider {

void StrawmanTree::initial_build(std::vector<Leaf> leaves,
                                 TreeUpdateStats* stats) {
  leaves_ = std::move(leaves);
  rebuild(stats);
}

void StrawmanTree::apply_delta(std::size_t remove_front,
                               std::vector<Leaf> added,
                               TreeUpdateStats* stats) {
  SLIDER_CHECK(remove_front <= leaves_.size()) << "removing more than window";
  leaves_.erase(leaves_.begin(),
                leaves_.begin() + static_cast<std::ptrdiff_t>(remove_front));
  for (Leaf& leaf : added) leaves_.push_back(std::move(leaf));
  rebuild(stats);
}

StrawmanTree::Built StrawmanTree::build_range(std::size_t lo, std::size_t hi,
                                              TreeUpdateStats* stats) {
  // Charge context level: subtree height (leaves are level 0).
  if (stats != nullptr) {
    stats->level = static_cast<std::uint16_t>(std::bit_width(hi - lo - 1));
    stats->charge_visits();
  }
  if (hi - lo == 1) {
    const Leaf& leaf = leaves_[lo];
    Built built;
    built.id = leaf_node_id(ctx_, leaf.split_id, *leaf.table);
    const auto it = memo_.find(built.id);
    if (it != memo_.end()) {
      built.table = it->second;
      charge_node(stats, {.id = built.id, .op = obs::LineageOp::kReuse},
                  *built.table);
    } else {
      built.table = leaf.table;
      built.recomputed = true;  // fresh leaf: map output newly memoized
      memoize_leaf(ctx_, built.id, built.table, stats);
      memo_.emplace(built.id, built.table);
    }
    live_.insert(built.id);
    return built;
  }

  const std::size_t mid = lo + (hi - lo + 1) / 2;
  Built left = build_range(lo, mid, stats);
  Built right = build_range(mid, hi, stats);
  Built built;
  built.id = internal_node_id(ctx_, left.id, right.id);
  if (stats != nullptr) {
    // The child recursions moved the level context; restore this node's.
    stats->level = static_cast<std::uint16_t>(std::bit_width(hi - lo - 1));
  }

  const auto it = memo_.find(built.id);
  if (it != memo_.end() && !left.recomputed && !right.recomputed) {
    built.table = it->second;
    charge_node(stats, {.id = built.id, .op = obs::LineageOp::kReuse},
                *built.table);
    live_.insert(built.id);
    return built;
  }

  // Executing this merge: reused children must be fetched from the memo
  // layer (that is the strawman's residual data movement).
  auto left_table = left.recomputed
                        ? left.table
                        : fetch_reused(ctx_, left.id, left.table, stats);
  auto right_table = right.recomputed
                         ? right.table
                         : fetch_reused(ctx_, right.id, right.table, stats);
  built.table = combine_and_memoize(ctx_, combiner_, built.id, *left_table,
                                    *right_table, stats, left.id, right.id);
  built.recomputed = true;
  memo_[built.id] = built.table;
  live_.insert(built.id);
  return built;
}

void StrawmanTree::rebuild(TreeUpdateStats* stats) {
  live_.clear();
  if (leaves_.empty()) {
    root_ = std::make_shared<const KVTable>();
    root_id_ = 0;
    height_ = 0;
  } else {
    const Built top = build_range(0, leaves_.size(), stats);
    root_ = top.table;
    root_id_ = top.id;
    height_ = static_cast<int>(
        std::ceil(std::log2(static_cast<double>(leaves_.size()))));
  }
  // Anything unreachable from the current window is garbage.
  prune_to_live(memo_, live_, released_);
}

TreeDescription StrawmanTree::describe() const {
  TreeDescription d;
  d.kind = std::string(kind());
  d.height = height_;
  d.leaf_count = leaves_.size();
  d.root_id = root_id_;
  if (leaves_.empty()) return d;

  // Re-derive the structure of the current tree read-only (the same split
  // rule build_range uses), taking payload stats from the live memo.
  std::map<int, std::uint64_t> next_index;
  struct Shape {
    NodeId id;
    int level;
  };
  const auto fill = [&](NodeId id, int level, std::vector<NodeId> children,
                        const char* role) {
    TreeNodeDescription node;
    node.id = id;
    node.level = level;
    node.index = next_index[level]++;
    node.children = std::move(children);
    node.role = role;
    const auto it = memo_.find(id);
    if (it != memo_.end() && it->second != nullptr) {
      node.materialized = true;
      node.rows = it->second->size();
      node.bytes = it->second->byte_size();
    }
    d.nodes.push_back(std::move(node));
  };
  const auto walk = [&](auto&& self, std::size_t lo, std::size_t hi) -> Shape {
    const int level = static_cast<int>(std::bit_width(hi - lo - 1));
    if (hi - lo == 1) {
      const Leaf& leaf = leaves_[lo];
      const NodeId id = leaf_node_id(ctx_, leaf.split_id, *leaf.table);
      fill(id, 0, {}, "leaf");
      return {id, 0};
    }
    const std::size_t mid = lo + (hi - lo + 1) / 2;
    const Shape left = self(self, lo, mid);
    const Shape right = self(self, mid, hi);
    const NodeId id = internal_node_id(ctx_, left.id, right.id);
    fill(id, level, {left.id, right.id},
         id == root_id_ ? "root" : "internal");
    return {id, level};
  };
  walk(walk, 0, leaves_.size());
  return d;
}

void StrawmanTree::collect_live_ids(std::unordered_set<NodeId>& live) const {
  live.insert(live_.begin(), live_.end());
}

void StrawmanTree::serialize(durability::CheckpointWriter& writer) const {
  std::string& blob = writer.blob();
  // Memo entries first; the leaf and root references below then mostly
  // encode as by-ref to these.
  put_memo_map(writer, memo_);

  wire::put_u32(blob, static_cast<std::uint32_t>(leaves_.size()));
  for (const Leaf& leaf : leaves_) {
    wire::put_u64(blob, leaf.split_id);
    writer.put_node(leaf_node_id(ctx_, leaf.split_id, *leaf.table),
                    leaf.table.get());
  }
  wire::put_u32(blob, static_cast<std::uint32_t>(height_));
  writer.put_node(root_id_, root_.get());
}

bool StrawmanTree::restore(durability::CheckpointReader& reader) {
  std::optional<MemoMap> memo = get_memo_map(reader);
  if (!memo.has_value()) return false;
  std::uint32_t leaf_count = 0;
  if (!reader.get_u32(&leaf_count)) return false;
  std::vector<Leaf> leaves;
  leaves.reserve(leaf_count);
  for (std::uint32_t i = 0; i < leaf_count; ++i) {
    Leaf leaf;
    NodeId id = 0;
    if (!reader.get_u64(&leaf.split_id) ||
        !reader.get_node(&id, &leaf.table) || leaf.table == nullptr) {
      return false;
    }
    leaves.push_back(std::move(leaf));
  }
  std::uint32_t height = 0;
  NodeId root_id = 0;
  std::shared_ptr<const KVTable> root;
  if (!reader.get_u32(&height) || !reader.get_node(&root_id, &root) ||
      root == nullptr) {
    return false;
  }
  memo_ = std::move(*memo);
  live_.clear();
  for (const auto& [id, table] : memo_) live_.insert(id);  // memo == live
  leaves_ = std::move(leaves);
  root_ = std::move(root);
  root_id_ = root_id;
  height_ = static_cast<int>(height);
  return true;
}

}  // namespace slider
