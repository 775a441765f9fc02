#include "contraction/tree_common.h"

#include <algorithm>
#include <deque>

#include "common/hash.h"
#include "common/logging.h"
#include "data/serde.h"
#include "observability/trace.h"

namespace slider {
namespace {

std::uint64_t context_seed(const MemoContext& ctx) {
  // XOR keeps the zero-salt (single-tenant) seed bit-identical to the
  // pre-tenant formula; distinct tenant salts shift the whole id space so
  // identical jobs under different tenants never collide in a shared store.
  return hash_combine(ctx.job_hash ^ ctx.tenant_salt,
                      static_cast<std::uint64_t>(ctx.partition) + 0x9e37);
}

}  // namespace

NodeId leaf_node_id(const MemoContext& ctx, SplitId split,
                    const KVTable& table) {
  return hash_combine(hash_combine(context_seed(ctx), split),
                      table.content_hash());
}

NodeId internal_node_id(const MemoContext& ctx, NodeId left, NodeId right) {
  return hash_combine(hash_combine(context_seed(ctx), left),
                      hash_combine(0x1357, right));
}

void charge_node(TreeUpdateStats* stats, const NodeCharge& charge,
                 const KVTable& table) {
  if (stats == nullptr) return;
  const obs::WorkCause cause = charge.cause.value_or(
      charge.op == obs::LineageOp::kPassthrough ? stats->passthrough_cause
                                                : stats->cause);
  const std::uint64_t reused = charge.op == obs::LineageOp::kReuse ? 1 : 0;
  stats->combiner_invocations += charge.invocations;
  stats->combiner_reused += reused;
  stats->rows_scanned += charge.rows_scanned;
  stats->memo_read_cost += charge.memo_read_cost;
  stats->memo_bytes_read += charge.memo_bytes_read;
  stats->memo_bytes_written += charge.write.bytes_written;
  stats->memo_write_cost += charge.write.cost;
  obs::CauseWork& cell = stats->attributed.cell(cause, stats->level);
  cell.combiner_invocations += charge.invocations;
  cell.combiner_reused += reused;
  cell.rows_scanned += charge.rows_scanned;
  cell.memo_bytes_read += charge.memo_bytes_read;
  cell.memo_bytes_written += charge.write.bytes_written;
  if (!stats->record_lineage) return;

  obs::NodeLineage rec;
  rec.id = charge.id;
  rec.op = charge.op;
  rec.cause = cause;
  rec.level = stats->level;
  rec.invocations = charge.invocations;
  rec.rows = table.size();
  rec.rows_scanned = charge.rows_scanned;
  rec.memo_cost = charge.memo_read_cost + charge.write.cost;

  obs::SketchCache& cache = obs::SketchCache::global();
  if (charge.id == 0) {
    rec.sketch = obs::sketch_of_table(table);
  } else if (!cache.lookup(charge.id, &rec.sketch)) {
    // A node's key set is the union of its children's key sets (merges
    // union keys; passthroughs copy them), so cached child sketches make
    // this O(children) instead of O(rows).
    bool from_children = !charge.children.empty();
    obs::KeySketch merged;
    for (const NodeId child : charge.children) {
      obs::KeySketch child_sketch;
      if (child == 0 || !cache.lookup(child, &child_sketch)) {
        from_children = false;
        break;
      }
      merged.merge(child_sketch);
    }
    rec.sketch = from_children ? merged : obs::sketch_of_table(table);
    cache.store(charge.id, rec.sketch);
  }

  for (const NodeId child : charge.children) {
    if (child == 0) continue;
    if (rec.children.size() >= obs::kLineageChildCap) {
      rec.children_truncated = true;
      break;
    }
    rec.children.push_back(child);
  }
  stats->lineage.push_back(std::move(rec));
}

MemoWriteResult memo_put(const MemoContext& ctx, NodeId id,
                         const std::shared_ptr<const KVTable>& table) {
  if (ctx.store == nullptr) return {};
  return ctx.store->put(id, table, ctx.tenant_salt);
}

std::shared_ptr<const KVTable> combine_and_memoize(
    const MemoContext& ctx, const CombineFn& combiner, NodeId id,
    const KVTable& left, const KVTable& right, TreeUpdateStats* stats,
    NodeId left_id, NodeId right_id) {
  MergeStats merge_stats;
  auto combined = std::make_shared<const KVTable>(
      KVTable::merge(left, right, combiner, &merge_stats));
  // Dirty-path recompute: one event per executed combiner merge.
  SLIDER_TRACE_EVENT(
      "tree", "tree.merge",
      {{"partition", static_cast<double>(ctx.partition)},
       {"rows", static_cast<double>(merge_stats.rows_scanned)}});
  const NodeId kids[] = {left_id, right_id};
  charge_node(stats,
              {.id = id,
               .children = kids,
               .invocations = 1,
               .rows_scanned = merge_stats.rows_scanned,
               .write = memo_put(ctx, id, combined)},
              *combined);
  return combined;
}

void charge_passthrough(const MemoContext& ctx, const KVTable& table,
                        TreeUpdateStats* stats, NodeId id, NodeId child_id) {
  if (stats == nullptr) return;
  SLIDER_TRACE_EVENT("tree", "tree.passthrough",
                     {{"partition", static_cast<double>(ctx.partition)},
                      {"rows", static_cast<double>(table.size())}});
  // Voided-path re-execution: billed to the removal that voided the
  // sibling (passthrough_cause; see tree.h). It writes its level output
  // but creates no memo entry, so only the write's cost is charged.
  MemoWriteResult write;
  if (ctx.store != nullptr) {
    write.cost = ctx.store->estimate_write_cost(table.byte_size());
  }
  const NodeId kids[] = {child_id};
  charge_node(stats,
              {.id = id,
               .op = obs::LineageOp::kPassthrough,
               .children = kids,
               .invocations = 1,
               .rows_scanned = table.size(),
               .write = write},
              table);
}

void memoize_leaf(const MemoContext& ctx, NodeId id,
                  const std::shared_ptr<const KVTable>& table,
                  TreeUpdateStats* stats) {
  charge_node(stats,
              {.id = id,
               .op = obs::LineageOp::kLeaf,
               .write = memo_put(ctx, id, table)},
              *table);
}

std::shared_ptr<const KVTable> fetch_reused(
    const MemoContext& ctx, NodeId id,
    const std::shared_ptr<const KVTable>& fallback, TreeUpdateStats* stats) {
  SLIDER_CHECK(fallback != nullptr) << "reused node without in-tree payload";
  // Memoized sub-computation reused as-is (the paper's memo hit).
  SLIDER_TRACE_EVENT("tree", "tree.reuse",
                     {{"partition", static_cast<double>(ctx.partition)}});
  if (ctx.store == nullptr) {
    charge_node(stats, {.id = id, .op = obs::LineageOp::kReuse}, *fallback);
    return fallback;
  }

  const MemoReadResult read = ctx.store->get(id, ctx.reduce_home);
  charge_node(stats,
              {.id = id,
               .op = obs::LineageOp::kReuse,
               .memo_bytes_read = read.found ? read.table->byte_size() : 0,
               .memo_read_cost = read.cost},
              read.found ? *read.table : *fallback);
  if (read.found) return read.table;

  // Total loss (all replicas down, a budget eviction, or GC raced the
  // window): recompute. The fallback is bit-identical to what a recompute
  // would produce; we charge the recompute as a fresh merge over the
  // payload's rows, attributed to the layer that lost it — failure_reexec
  // when a machine failure destroyed every intact copy (§6 fault
  // tolerance), memo_eviction_recompute otherwise — and re-memoize it
  // under the same cause. Either way the output is unchanged: the store
  // losing state can never change an answer. The lineage record shares
  // the reuse's id; explain() lets the executed one shadow the reuse.
  charge_node(stats,
              {.id = id,
               .invocations = 1,
               .rows_scanned = fallback->size() * 2,
               .write = memo_put(ctx, id, fallback),
               .cause = read.failure_miss
                            ? obs::WorkCause::kFailureReexec
                            : obs::WorkCause::kMemoEvictionRecompute},
              *fallback);
  return fallback;
}

void HeldIds::hold(NodeId id) {
  if (id != 0) ++counts_[id];
}

void HeldIds::drop(NodeId id) {
  if (id == 0) return;
  const auto it = counts_.find(id);
  SLIDER_CHECK(it != counts_.end()) << "dropping node " << id
                                    << " the tree does not hold";
  if (--it->second == 0) {
    counts_.erase(it);
    released_.push_back(id);
  }
}

void HeldIds::drop_all() {
  for (const auto& [id, count] : counts_) released_.push_back(id);
  counts_.clear();
}

void HeldIds::take(std::vector<NodeId>& released) {
  for (const NodeId id : released_) {
    if (!counts_.contains(id)) released.push_back(id);
  }
  released_.clear();
}

void HeldIds::reset() {
  counts_.clear();
  released_.clear();
}

void recompute_paths(const MemoContext& ctx, const CombineFn& combiner,
                     Levels& levels, std::vector<std::size_t> dirty_leaves,
                     HeldIds& held, TreeUpdateStats* stats) {
  // Leaf marks were set by the caller for fresh leaves only.
  std::sort(dirty_leaves.begin(), dirty_leaves.end());
  dirty_leaves.erase(std::unique(dirty_leaves.begin(), dirty_leaves.end()),
                     dirty_leaves.end());

  const std::uint16_t caller_level = stats != nullptr ? stats->level : 0;
  std::vector<std::size_t> dirty = std::move(dirty_leaves);
  for (std::size_t k = 1; k < levels.size(); ++k) {
    if (stats != nullptr) stats->level = static_cast<std::uint16_t>(k);
    std::vector<std::size_t> next;
    next.reserve(dirty.size() / 2 + 1);
    for (std::size_t i = 0; i < dirty.size(); ++i) {
      const std::size_t parent = dirty[i] / 2;
      if (next.empty() || next.back() != parent) next.push_back(parent);
    }
    for (const std::size_t j : next) {
      if (stats != nullptr) stats->charge_visits();
      const LevelSlot& left = levels[k - 1][2 * j];
      const LevelSlot& right = levels[k - 1][2 * j + 1];
      LevelSlot& node = levels[k][j];
      const NodeId old_id = node.id;
      if (left.table == nullptr && right.table == nullptr) {
        node = LevelSlot{};
      } else if (left.table == nullptr || right.table == nullptr) {
        // Passthrough: a combiner invocation over one live input. It is
        // charged like a re-execution (Fig 2 recomputes these after
        // removals); this is what makes an unbalanced tree genuinely cost
        // extra and motivates §3.2's randomized variant.
        const LevelSlot& live = left.table != nullptr ? left : right;
        if (node.id != live.id) {
          charge_passthrough(ctx, *live.table, stats, live.id, live.id);
        }
        node.id = live.id;
        node.table = live.table;
        node.recomputed_this_run = live.recomputed_this_run;
      } else {
        const NodeId id = internal_node_id(ctx, left.id, right.id);
        if (id == node.id && node.table != nullptr) {
          // Content unchanged (e.g. dirt from a sibling void that was
          // already void): nothing to do.
          node.recomputed_this_run = false;
          continue;
        }
        auto left_table =
            left.recomputed_this_run
                ? left.table
                : fetch_reused(ctx, left.id, left.table, stats);
        auto right_table =
            right.recomputed_this_run
                ? right.table
                : fetch_reused(ctx, right.id, right.table, stats);
        node.id = id;
        node.table = combine_and_memoize(ctx, combiner, id, *left_table,
                                         *right_table, stats, left.id,
                                         right.id);
        node.recomputed_this_run = true;
      }
      if (node.id != old_id) {
        held.drop(old_id);
        held.hold(node.id);
      }
    }
    // This level was the last reader of its children's marks.
    for (const std::size_t i : dirty) {
      levels[k - 1][i].recomputed_this_run = false;
    }
    dirty = std::move(next);
  }
  for (const std::size_t i : dirty) {
    levels.back()[i].recomputed_this_run = false;
  }
  if (stats != nullptr) stats->level = caller_level;
}

TreeDescription describe_levels(const ContractionTree& tree,
                                const Levels& levels) {
  TreeDescription desc;
  desc.kind = std::string(tree.kind());
  desc.height = tree.height();
  desc.leaf_count = tree.leaf_count();
  if (!levels.empty() && levels.back()[0].table != nullptr) {
    desc.root_id = levels.back()[0].id;
  }
  for (std::size_t k = 0; k < levels.size(); ++k) {
    for (std::size_t j = 0; j < levels[k].size(); ++j) {
      const LevelSlot& slot = levels[k][j];
      if (slot.table == nullptr) continue;  // void slots are omitted
      TreeNodeDescription node;
      node.id = slot.id;
      node.level = static_cast<int>(k);
      node.index = j;
      node.rows = slot.table->size();
      node.bytes = slot.table->byte_size();
      node.materialized = true;
      if (k == 0) {
        node.role = "leaf";
      } else {
        node.role = k + 1 == levels.size() ? "root" : "internal";
        const LevelSlot& left = levels[k - 1][2 * j];
        const LevelSlot& right = levels[k - 1][2 * j + 1];
        if (left.table != nullptr) node.children.push_back(left.id);
        if (right.table != nullptr) node.children.push_back(right.id);
      }
      desc.nodes.push_back(std::move(node));
    }
  }
  return desc;
}

void collect_level_ids(const Levels& levels,
                       std::unordered_set<NodeId>& live) {
  for (const auto& level : levels) {
    for (const LevelSlot& slot : level) {
      if (slot.table != nullptr) live.insert(slot.id);
    }
  }
}

void hold_level_ids(const Levels& levels, HeldIds& held) {
  for (const auto& level : levels) {
    for (const LevelSlot& slot : level) held.hold(slot.id);
  }
}

MemoNode fold_batch(const MemoContext& ctx, const CombineFn& combiner,
                    std::span<const Leaf> leaves, TreeUpdateStats* stats) {
  SLIDER_CHECK(!leaves.empty()) << "empty leaf batch";
  if (stats != nullptr) stats->level = 0;
  MemoNode node;
  node.id = leaf_node_id(ctx, leaves[0].split_id, *leaves[0].table);
  std::deque<std::shared_ptr<const KVTable>> queue;
  queue.push_back(leaves[0].table);
  for (std::size_t i = 1; i < leaves.size(); ++i) {
    node.id = internal_node_id(
        ctx, node.id, leaf_node_id(ctx, leaves[i].split_id, *leaves[i].table));
    queue.push_back(leaves[i].table);
  }
  std::uint64_t fold_rows = 0;
  while (queue.size() > 1) {
    auto a = std::move(queue.front());
    queue.pop_front();
    auto b = std::move(queue.front());
    queue.pop_front();
    MergeStats merge_stats;
    queue.push_back(std::make_shared<const KVTable>(
        KVTable::merge(*a, *b, combiner, &merge_stats)));
    fold_rows += merge_stats.rows_scanned;
  }
  node.table = std::move(queue.front());
  charge_node(stats,
              {.id = node.id,
               .op = leaves.size() > 1 ? obs::LineageOp::kMerge
                                       : obs::LineageOp::kLeaf,
               .invocations = static_cast<std::uint32_t>(leaves.size() - 1),
               .rows_scanned = fold_rows,
               .write = memo_put(ctx, node.id, node.table)},
              *node.table);
  return node;
}

void put_memo_map(durability::CheckpointWriter& writer, const MemoMap& memo) {
  std::vector<NodeId> ids;
  ids.reserve(memo.size());
  for (const auto& [id, table] : memo) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  wire::put_u32(writer.blob(), static_cast<std::uint32_t>(ids.size()));
  for (const NodeId id : ids) writer.put_node(id, memo.at(id).get());
}

std::optional<MemoMap> get_memo_map(durability::CheckpointReader& reader) {
  std::uint32_t count = 0;
  if (!reader.get_u32(&count)) return std::nullopt;
  MemoMap memo;
  memo.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    NodeId id = 0;
    std::shared_ptr<const KVTable> table;
    if (!reader.get_node(&id, &table) || table == nullptr) return std::nullopt;
    memo.emplace(id, std::move(table));
  }
  return memo;
}

void prune_to_live(MemoMap& memo, const std::unordered_set<NodeId>& live,
                   std::vector<NodeId>& released) {
  std::erase_if(memo, [&](const auto& entry) {
    if (live.contains(entry.first)) return false;
    released.push_back(entry.first);
    return true;
  });
}

void take_unless_live(std::vector<NodeId>& pending,
                      const std::unordered_set<NodeId>& live,
                      std::vector<NodeId>& released) {
  for (const NodeId id : pending) {
    if (!live.contains(id)) released.push_back(id);
  }
  pending.clear();
}

}  // namespace slider
