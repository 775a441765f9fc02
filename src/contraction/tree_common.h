// Shared plumbing for contraction-tree implementations: stable node ids,
// the one-call node charge, priced merge execution, priced reuse of
// memoized payloads, and the mechanisms several trees share — release
// tracking, the level-array path recompute, the batch fold and the
// tree-local memo-map checkpoint codec.
#pragma once

#include <memory_resource>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "contraction/tree.h"

namespace slider {

// Stable identity of a leaf node. Content-hashed so that identical map
// output re-appearing (e.g. re-run after failure) maps to the same entry.
NodeId leaf_node_id(const MemoContext& ctx, SplitId split,
                    const KVTable& table);

// Identity of an internal node from its children's identities.
NodeId internal_node_id(const MemoContext& ctx, NodeId left, NodeId right);

// One charged tree node. charge_node() bills every field once: to the
// aggregates, to the node's (cause, level) ledger cell and, when armed, to
// its lineage record, so lineage equals the ledger by construction.
struct NodeCharge {
  NodeId id = 0;
  obs::LineageOp op = obs::LineageOp::kMerge;
  // Input node ids, for lineage only; 0 entries (unknown) are skipped.
  std::span<const NodeId> children = {};
  std::uint32_t invocations = 0;
  std::uint64_t rows_scanned = 0;
  std::uint64_t memo_bytes_read = 0;
  SimDuration memo_read_cost = 0;
  MemoWriteResult write = {};
  // Unset: a passthrough bills to stats->passthrough_cause, any other op
  // to stats->cause.
  std::optional<obs::WorkCause> cause = std::nullopt;
};

// Charges one node to `stats` (a no-op when null) at stats->level. A
// kReuse op counts one reused node. `table` is the node's payload; the
// lineage record takes its row count and key sketch, the sketch resolving
// through the global SketchCache: by id, else as the union of all cached
// child sketches, else by hashing `table`'s keys; the result is cached.
void charge_node(TreeUpdateStats* stats, const NodeCharge& charge,
                 const KVTable& table);

// Writes `table` to the memo layer under `id` and returns what the write
// cost (nothing without a store). Uncharged: the caller's NodeCharge
// carries the write.
MemoWriteResult memo_put(const MemoContext& ctx, NodeId id,
                         const std::shared_ptr<const KVTable>& table);

// Executes combine(left, right), memoizes the result under `id`, and
// charges both as one merge node. Returns the combined payload.
//
// `left_id` / `right_id` are the children's node ids, used only for
// lineage recording (armed sessions); 0 means "unknown" and records an
// edge-less merge.
std::shared_ptr<const KVTable> combine_and_memoize(
    const MemoContext& ctx, const CombineFn& combiner, NodeId id,
    const KVTable& left, const KVTable& right, TreeUpdateStats* stats,
    NodeId left_id = 0, NodeId right_id = 0);

// Charges a *passthrough* combiner re-execution: a node whose only live
// input is one child (the other is void) still executes as a task in the
// paper's design (Fig 2 recomputes such nodes after removals) — it reads
// the payload, applies the identity combine, and writes its level output.
// The output is content-identical to the child, so no new memo entry is
// created; only the cost is charged. `id` / `child_id` feed lineage
// recording only (0 = unknown).
void charge_passthrough(const MemoContext& ctx, const KVTable& table,
                        TreeUpdateStats* stats, NodeId id = 0,
                        NodeId child_id = 0);

// Memoizes a fresh leaf payload (map-side work) and charges it as a leaf
// node with zero combiner invocations.
void memoize_leaf(const MemoContext& ctx, NodeId id,
                  const std::shared_ptr<const KVTable>& table,
                  TreeUpdateStats* stats);

// Charges the read of a reused node's payload from the memo layer and
// returns it. `fallback` is the in-tree copy: it is returned (and the
// entry re-installed) when the store lost the payload on every tier, which
// models "recompute after total loss" at the cost level while keeping the
// output deterministic. The recompute and its re-memoized bytes are one
// more merge node, billed to the cause that lost the payload.
std::shared_ptr<const KVTable> fetch_reused(
    const MemoContext& ctx, NodeId id,
    const std::shared_ptr<const KVTable>& fallback, TreeUpdateStats* stats);

// --- release tracking (ContractionTree::take_released_ids) -----------------

// The node ids a tree holds, counted per holder (a passthrough slot holds
// its live child's id too), plus the ids whose last holder let go since
// the last take(). Trees hold() every id they store and drop() every id
// they overwrite or discard; an id memoized and superseded within one call
// is held and dropped in turn. Id 0 (void or empty) is never counted.
class HeldIds {
 public:
  void hold(NodeId id);
  void drop(NodeId id);
  // Drops every held id (the tree is rebuilt from scratch).
  void drop_all();
  // Appends the released ids that are not held again, and forgets them.
  void take(std::vector<NodeId>& released);
  // Forgets everything, held and released (restore rebuilds the counts).
  void reset();

 private:
  // Every slide allocates and frees count nodes. From a pool of their own
  // they do not interleave with the table rows that maps and merges
  // allocate from the global heap; interleaved, both ran measurably slower.
  std::pmr::unsynchronized_pool_resource pool_;
  std::pmr::unordered_map<NodeId, std::uint32_t> counts_{&pool_};
  std::vector<NodeId> released_;
};

// --- level arrays (FoldingTree, RotatingTree) ------------------------------

// One node slot. Void slots have a null table (and id 0).
struct LevelSlot {
  NodeId id = 0;
  std::shared_ptr<const KVTable> table;
  bool recomputed_this_run = false;
};

// levels[0] = leaf slots (size = capacity, a power of two); levels[k] has
// capacity >> k slots; levels.back() is the root.
using Levels = std::vector<std::vector<LevelSlot>>;

// Change propagation (§3.1): recomputes the nodes on the paths from
// `dirty_leaves` to the root, reusing memoized off-path siblings. A node
// with one void child is a passthrough of the other; a node whose child
// ids are unchanged keeps its payload. Every internal slot it rewrites
// drops its old id and holds its new one in `held` (callers do the same
// for the leaves they set). Callers mark fresh leaves recomputed_this_run;
// every mark is cleared on return, in O(path) — no level is swept. Nodes
// are charged at their level; stats->level is restored on return.
void recompute_paths(const MemoContext& ctx, const CombineFn& combiner,
                     Levels& levels, std::vector<std::size_t> dirty_leaves,
                     HeldIds& held, TreeUpdateStats* stats);

// describe() over a level array: kind/height/leaf_count from `tree`, then
// every non-void slot bottom-up with role leaf/internal/root.
TreeDescription describe_levels(const ContractionTree& tree,
                                const Levels& levels);

// Inserts the id of every non-void slot.
void collect_level_ids(const Levels& levels, std::unordered_set<NodeId>& live);

// Holds the id of every slot (restore rebuilds the counts this way).
void hold_level_ids(const Levels& levels, HeldIds& held);

// --- batch fold (RotatingTree buckets, CoalescingTree deltas) --------------

// A memoized node: stable id plus payload.
struct MemoNode {
  NodeId id = 0;
  std::shared_ptr<const KVTable> table;
};

// Folds a non-empty batch of consecutive leaves into one memoized node,
// charged as leaf-level work (stats->level is left at 0). The id is the
// order-sensitive chain over the leaf ids (stable regardless of merge
// order); the payload merges in balanced order, O(rows · log n) instead of
// a quadratic left-fold. One lineage record covers the batch: the trees
// reuse it as a unit.
MemoNode fold_batch(const MemoContext& ctx, const CombineFn& combiner,
                    std::span<const Leaf> leaves, TreeUpdateStats* stats);

// --- tree-local memo maps (StrawmanTree, RandomizedFoldingTree) ------------

// Cross-run node payloads a tree keeps in process (its view of what the
// memo layer holds).
using MemoMap = std::unordered_map<NodeId, std::shared_ptr<const KVTable>>;

// Checkpoint codec: a count, then every entry sorted by id so the blob is
// deterministic. get_memo_map returns nullopt on a malformed blob or an
// entry without a payload.
void put_memo_map(durability::CheckpointWriter& writer, const MemoMap& memo);
std::optional<MemoMap> get_memo_map(durability::CheckpointReader& reader);

// Drops every entry not in `live` (mirrors the master-side GC) and
// appends the dropped ids to `released`.
void prune_to_live(MemoMap& memo, const std::unordered_set<NodeId>& live,
                   std::vector<NodeId>& released);

// take_released_ids for the memo-map trees: moves `pending` (their
// prune_to_live output) into `released`, skipping ids `live` again.
void take_unless_live(std::vector<NodeId>& pending,
                      const std::unordered_set<NodeId>& live,
                      std::vector<NodeId>& released);

}  // namespace slider
