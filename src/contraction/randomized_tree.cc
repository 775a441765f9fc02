#include "contraction/randomized_tree.h"

#include "common/logging.h"
#include "data/serde.h"

namespace slider {

bool RandomizedFoldingTree::closes_group(NodeId id, int level) const {
  // Deterministic coin from the node id, salted by the level so that a
  // chain of singleton groups cannot repeat the same outcome forever.
  const std::uint64_t salted =
      mix64(id ^ (0xBADC01Dull + static_cast<std::uint64_t>(level) * 0x9e37ull));
  const double coin = static_cast<double>(salted >> 11) * 0x1.0p-53;
  return coin < boundary_probability_;
}

void RandomizedFoldingTree::initial_build(std::vector<Leaf> leaves,
                                          TreeUpdateStats* stats) {
  leaf_ids_.clear();
  std::vector<Entry> level;
  level.reserve(leaves.size());
  for (Leaf& leaf : leaves) {
    Entry entry;
    entry.id = leaf_node_id(ctx_, leaf.split_id, *leaf.table);
    entry.table = std::move(leaf.table);
    entry.recomputed = true;
    memoize_leaf(ctx_, entry.id, entry.table, stats);
    memo_[entry.id] = entry.table;
    leaf_ids_.push_back(entry.id);
    level.push_back(std::move(entry));
  }
  contract(std::move(level), stats);
}

void RandomizedFoldingTree::apply_delta(std::size_t remove_front,
                                        std::vector<Leaf> added,
                                        TreeUpdateStats* stats) {
  SLIDER_CHECK(remove_front <= leaf_ids_.size())
      << "removing more than window";
  leaf_ids_.erase(leaf_ids_.begin(),
                  leaf_ids_.begin() + static_cast<std::ptrdiff_t>(remove_front));

  std::vector<Entry> level;
  level.reserve(leaf_ids_.size() + added.size());
  for (const NodeId id : leaf_ids_) {
    const auto it = memo_.find(id);
    SLIDER_CHECK(it != memo_.end()) << "lost leaf payload " << id;
    level.push_back(Entry{id, it->second, /*recomputed=*/false});
  }
  for (Leaf& leaf : added) {
    Entry entry;
    entry.id = leaf_node_id(ctx_, leaf.split_id, *leaf.table);
    entry.table = std::move(leaf.table);
    entry.recomputed = true;
    memoize_leaf(ctx_, entry.id, entry.table, stats);
    memo_[entry.id] = entry.table;
    leaf_ids_.push_back(entry.id);
    level.push_back(std::move(entry));
  }
  contract(std::move(level), stats);
}

void RandomizedFoldingTree::contract(std::vector<Entry> level,
                                     TreeUpdateStats* stats) {
  live_.clear();
  for (const Entry& e : level) live_.insert(e.id);
  height_ = 0;
  if (level.empty()) {
    root_ = std::make_shared<const KVTable>();
    root_id_ = 0;
    prune_to_live(memo_, live_, released_);
    return;
  }

  const std::uint16_t caller_level = stats != nullptr ? stats->level : 0;
  while (level.size() > 1) {
    ++height_;
    if (stats != nullptr) stats->level = static_cast<std::uint16_t>(height_);
    std::vector<Entry> next;
    std::size_t group_start = 0;
    for (std::size_t i = 0; i < level.size(); ++i) {
      const bool at_end = i + 1 == level.size();
      if (!closes_group(level[i].id, height_) && !at_end) continue;
      std::span<const Entry> members(level.data() + group_start,
                                     i + 1 - group_start);
      group_start = i + 1;
      if (stats != nullptr) stats->charge_visits(members.size());
      NodeId group_id = members[0].id;
      for (std::size_t m = 1; m < members.size(); ++m) {
        group_id = internal_node_id(ctx_, group_id, members[m].id);
      }
      Entry parent;
      parent.id = group_id;
      bool member_changed = false;
      for (const Entry& m : members) member_changed |= m.recomputed;

      const auto it = memo_.find(group_id);
      if (it != memo_.end() && !member_changed) {
        parent.table = it->second;
        parent.recomputed = false;
        charge_node(stats, {.id = parent.id, .op = obs::LineageOp::kReuse},
                    *parent.table);
      } else if (members.size() == 1) {
        // Singleton group: a passthrough combiner re-execution when its
        // member changed (see recompute_paths).
        if (members[0].recomputed) {
          charge_passthrough(ctx_, *members[0].table, stats, members[0].id,
                             members[0].id);
        }
        parent.table = members[0].table;
        parent.recomputed = members[0].recomputed;
        memo_[parent.id] = parent.table;
        live_.insert(parent.id);
      } else {
        // Execute the group's combines left to right, restarting from the
        // longest unchanged prefix whose chain node is memoized — groups
        // whose tail changed (the common case when the window grows) then
        // need one merge, not a re-merge of every member.
        std::size_t start = 0;
        NodeId best_prefix_id = 0;
        std::size_t best_prefix_len = 0;
        if (!members[0].recomputed) {
          NodeId pid = members[0].id;
          std::size_t len = 1;
          if (memo_.count(pid) != 0) {
            best_prefix_id = pid;
            best_prefix_len = 1;
          }
          while (len < members.size() && !members[len].recomputed) {
            pid = internal_node_id(ctx_, pid, members[len].id);
            ++len;
            if (memo_.count(pid) != 0) {
              best_prefix_id = pid;
              best_prefix_len = len;
            }
          }
        }

        std::shared_ptr<const KVTable> acc;
        NodeId chain_id = members[0].id;
        if (best_prefix_len > 0) {
          acc = fetch_reused(ctx_, best_prefix_id, memo_.at(best_prefix_id),
                             stats);
          for (std::size_t m = 1; m < best_prefix_len; ++m) {
            chain_id = internal_node_id(ctx_, chain_id, members[m].id);
          }
          start = best_prefix_len;
        } else {
          acc = members[0].recomputed
                    ? members[0].table
                    : fetch_reused(ctx_, members[0].id, members[0].table,
                                   stats);
          start = 1;
        }

        for (std::size_t m = start; m < members.size(); ++m) {
          auto rhs = members[m].recomputed
                         ? members[m].table
                         : fetch_reused(ctx_, members[m].id, members[m].table,
                                        stats);
          const NodeId prev_id = chain_id;
          chain_id = internal_node_id(ctx_, chain_id, members[m].id);
          // Memoize the partial chain too, so a future run whose group
          // extends this one restarts from here. Partials stay live until
          // their group dissolves.
          acc = combine_and_memoize(ctx_, combiner_, chain_id, *acc, *rhs,
                                    stats, prev_id, members[m].id);
          memo_[chain_id] = acc;
          live_.insert(chain_id);
        }
        SLIDER_CHECK(chain_id == parent.id) << "group chain id mismatch";
        parent.table = acc;
        parent.recomputed = true;
      }
      live_.insert(parent.id);
      next.push_back(std::move(parent));
    }
    level = std::move(next);
  }
  if (stats != nullptr) stats->level = caller_level;

  root_ = level[0].table;
  root_id_ = level[0].id;

  prune_to_live(memo_, live_, released_);
}

std::shared_ptr<const KVTable> RandomizedFoldingTree::root() const {
  SLIDER_CHECK(root_ != nullptr) << "root() before build";
  return root_;
}

TreeDescription RandomizedFoldingTree::describe() const {
  // The level structure is a pure function of the leaf-id sequence (the
  // boundary coins and chain ids are deterministic), so it is recomputed
  // here without touching any payload — no merges, no memo traffic.
  TreeDescription desc;
  desc.kind = std::string(kind());
  desc.height = height_;
  desc.leaf_count = leaf_ids_.size();
  desc.root_id = root_id_;
  auto emit = [&](NodeId id, int level, std::uint64_t index,
                  std::vector<NodeId> children, const char* role) {
    TreeNodeDescription node;
    node.id = id;
    node.level = level;
    node.index = index;
    node.children = std::move(children);
    const auto it = memo_.find(id);
    if (it != memo_.end() && it->second != nullptr) {
      node.materialized = true;
      node.rows = it->second->size();
      node.bytes = it->second->byte_size();
    }
    node.role = role;
    desc.nodes.push_back(std::move(node));
  };

  std::vector<NodeId> level_ids = leaf_ids_;
  for (std::uint64_t i = 0; i < level_ids.size(); ++i) {
    emit(level_ids[i], 0, i, {}, "leaf");
  }
  int level = 0;
  while (level_ids.size() > 1) {
    ++level;
    std::vector<NodeId> next;
    std::vector<NodeId> group_members;
    std::size_t group_start = 0;
    for (std::size_t i = 0; i < level_ids.size(); ++i) {
      const bool at_end = i + 1 == level_ids.size();
      if (!closes_group(level_ids[i], level) && !at_end) continue;
      NodeId parent = level_ids[group_start];
      group_members.assign(level_ids.begin() + static_cast<std::ptrdiff_t>(group_start),
                           level_ids.begin() + static_cast<std::ptrdiff_t>(i + 1));
      for (std::size_t m = group_start + 1; m <= i; ++m) {
        parent = internal_node_id(ctx_, parent, level_ids[m]);
      }
      next.push_back(parent);
      // Singleton groups pass the member id through unchanged; emitting
      // them again per level would just duplicate the node.
      if (group_members.size() > 1) {
        emit(parent, level, next.size() - 1, std::move(group_members),
             level_ids.size() == i + 1 && group_start == 0 ? "root"
                                                           : "internal");
      }
      group_start = i + 1;
    }
    level_ids = std::move(next);
  }
  return desc;
}

void RandomizedFoldingTree::collect_live_ids(
    std::unordered_set<NodeId>& live) const {
  live.insert(live_.begin(), live_.end());
}

void RandomizedFoldingTree::serialize(
    durability::CheckpointWriter& writer) const {
  std::string& blob = writer.blob();
  // Memo entries first; the root reference below then encodes as by-ref.
  put_memo_map(writer, memo_);

  wire::put_u32(blob, static_cast<std::uint32_t>(leaf_ids_.size()));
  for (const NodeId id : leaf_ids_) wire::put_u64(blob, id);
  wire::put_u32(blob, static_cast<std::uint32_t>(height_));
  writer.put_node(root_id_, root_.get());
}

bool RandomizedFoldingTree::restore(durability::CheckpointReader& reader) {
  std::optional<MemoMap> memo = get_memo_map(reader);
  if (!memo.has_value()) return false;
  std::uint32_t leaf_count = 0;
  if (!reader.get_u32(&leaf_count)) return false;
  std::vector<NodeId> leaf_ids;
  leaf_ids.reserve(leaf_count);
  for (std::uint32_t i = 0; i < leaf_count; ++i) {
    NodeId id = 0;
    if (!reader.get_u64(&id)) return false;
    // apply_delta resolves every surviving leaf through memo_.
    if (!memo->contains(id)) return false;
    leaf_ids.push_back(id);
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
  leaf_ids_ = std::move(leaf_ids);
  root_ = std::move(root);
  root_id_ = root_id;
  height_ = static_cast<int>(height);
  return true;
}

}  // namespace slider
