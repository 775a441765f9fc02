// Self-adjusting contraction trees — the paper's core contribution (§3–5).
//
// A contraction tree structures the Reduce-side aggregation of one reduce
// partition as a balanced tree of Combiner invocations over per-split map
// outputs (the leaves). When the window slides, only nodes on paths from
// changed leaves to the root recompute; everything else is reused from the
// memoization layer. Concrete variants:
//
//   StrawmanTree    (§2)   memoized balanced tree, rebuilt per run —
//                          visits every node (linear, small constant)
//   FoldingTree     (§3.1) variable-width windows; void leaves,
//                          fold/unfold by doubling/halving
//   RandomizedFoldingTree (§3.2) skip-list-style grouping, robust to
//                          drastic window-size changes
//   RotatingTree    (§4.1) fixed-width windows; circular buckets,
//                          one root path per slide, split processing
//   CoalescingTree  (§4.2) append-only windows; split processing
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/metrics.h"
#include "data/record.h"
#include "data/split.h"
#include "durability/checkpoint.h"
#include "observability/provenance.h"
#include "observability/work_ledger.h"
#include "storage/memo_store.h"

namespace slider {

// One tree leaf: the locally-combined map output of one split for this
// reduce partition.
struct Leaf {
  SplitId split_id = 0;
  std::shared_ptr<const KVTable> table;
};

// Accounting for one tree operation (initial build, delta, background).
//
// Besides the aggregate counters, every charge is attributed to its
// WorkCause and tree level (the causal work ledger). Trees charge a node
// with one charge_node() call (contraction/tree_common.h), which bills the
// aggregates, the node's (cause, level) cell and, when armed, its lineage
// record from the same fields, so "Σ per-cause combiner invocations ==
// combiner_invocations" and "lineage == ledger" hold by construction.
// Node visits, which need not be charged nodes, go through charge_visits.
// Tree code never increments the counters directly.
//
// `cause` / `passthrough_cause` / `level` form the *charge context*: the
// session sets the causes before calling into a tree (window_add vs
// recovery_replay vs background_preprocess, with passthrough work — the
// voided-path re-executions of Fig 2 — attributed to window_remove); the
// tree maintains `level` as it walks. A tree runs serially on the thread
// that calls it (partitions are the unit of host parallelism), so it
// charges the caller's stats object directly.
struct TreeUpdateStats {
  std::uint64_t combiner_invocations = 0;  // merges actually executed
  std::uint64_t combiner_reused = 0;       // memoized nodes reused as-is
  // Nodes touched at all (id computation + memo lookup). The strawman's
  // linear-with-small-constant behaviour shows up here: it visits every
  // node every run even when almost nothing recomputes.
  std::uint64_t nodes_visited = 0;
  std::uint64_t rows_scanned = 0;          // rows read by executed merges
  SimDuration memo_read_cost = 0;
  std::uint64_t memo_bytes_read = 0;
  std::uint64_t memo_bytes_written = 0;
  SimDuration memo_write_cost = 0;

  // Charge context (not merged by operator+=).
  obs::WorkCause cause = obs::WorkCause::kInitialBuild;
  obs::WorkCause passthrough_cause = obs::WorkCause::kInitialBuild;
  std::uint16_t level = 0;
  // Lineage arming (observability/provenance.h): set by the session when a
  // ProvenanceRecorder is attached. Part of the charge context; charge_node()
  // checks it, so disarmed runs never touch the lineage vector.
  bool record_lineage = false;

  // Per-(cause, level) attribution of the aggregates.
  obs::AttributedWork attributed;

  // Per-node lineage records, one per charge_node (armed sessions only),
  // in charge order: children before parents.
  std::vector<obs::NodeLineage> lineage;

  void charge_visits(std::uint64_t count = 1) {
    nodes_visited += count;
    attributed.cell(cause, level).nodes_visited += count;
  }

  // Folds in `o`'s counters and attributed cells, but not its lineage.
  void add_counters(const TreeUpdateStats& o) {
    combiner_invocations += o.combiner_invocations;
    combiner_reused += o.combiner_reused;
    nodes_visited += o.nodes_visited;
    rows_scanned += o.rows_scanned;
    memo_read_cost += o.memo_read_cost;
    memo_bytes_read += o.memo_bytes_read;
    memo_bytes_written += o.memo_bytes_written;
    memo_write_cost += o.memo_write_cost;
    attributed.merge(o.attributed);
  }
  TreeUpdateStats& operator+=(const TreeUpdateStats& o) {
    add_counters(o);
    lineage.insert(lineage.end(), o.lineage.begin(), o.lineage.end());
    return *this;
  }
};

// --- structure dump (the /tree introspection route) ----------------------

struct TreeNodeDescription {
  NodeId id = 0;
  int level = 0;           // 0 = leaves
  std::uint64_t index = 0; // position within its level / container
  std::vector<NodeId> children;
  std::uint64_t rows = 0;   // payload rows (0 when not materialized)
  std::uint64_t bytes = 0;  // payload byte size (0 when not materialized)
  bool materialized = false;  // payload currently resident in the tree
  // "leaf", "internal", "root", "void", "pending", "intermediate", ...
  std::string role;
};

struct TreeDescription {
  std::string kind;
  int height = 0;
  std::size_t leaf_count = 0;
  NodeId root_id = 0;
  std::vector<TreeNodeDescription> nodes;
};

// Binds a tree to its job/partition identity and (optionally) the
// memoization layer. With a null store the tree still works — it just
// keeps payloads purely in process memory and charges no I/O.
struct MemoContext {
  MemoStore* store = nullptr;
  std::uint64_t job_hash = 0;
  int partition = 0;
  // Machine running this partition's contraction + reduce; memo reads are
  // priced relative to it.
  MachineId reduce_home = 0;
  // Multi-tenant isolation: folded into every node id at key-construction
  // time, so two tenants registering identical JobSpecs against a shared
  // MemoStore can never alias each other's memo entries. Also passed to
  // MemoStore::put as the owner for per-tenant quota accounting. 0 (the
  // single-tenant default) leaves node ids exactly as before.
  std::uint64_t tenant_salt = 0;
};

class ContractionTree {
 public:
  virtual ~ContractionTree() = default;

  // From-scratch build over the initial window (initial run).
  virtual void initial_build(std::vector<Leaf> leaves,
                             TreeUpdateStats* stats) = 0;

  // Slide: drop `remove_front` oldest leaves, append `added` at the end.
  virtual void apply_delta(std::size_t remove_front, std::vector<Leaf> added,
                           TreeUpdateStats* stats) = 0;

  // Combined table over the whole current window; input of the final
  // Reduce. Never null after a build.
  virtual std::shared_ptr<const KVTable> root() const = 0;

  // Tables the final Reduce should consume. Usually {root()}; with split
  // processing (§4) the foreground skips materializing the last combine
  // and Reduce streams over {pre-computed intermediate, fresh delta} —
  // that skipped pass is exactly the foreground latency saving of Fig 11.
  virtual std::vector<std::shared_ptr<const KVTable>> reduce_inputs() const {
    return {root()};
  }

  // Split-processing background phase (§4): prepare intermediate results
  // for the *next* slide. No-op for trees without split processing.
  virtual void background_preprocess(TreeUpdateStats* /*stats*/) {}

  virtual int height() const = 0;
  virtual std::size_t leaf_count() const = 0;
  virtual std::string_view kind() const = 0;

  // Structure dump for introspection (/tree route; JSON + DOT renderers in
  // contraction/describe.h). Read-only and uncharged; callers must not run
  // it concurrently with a mutation (the session serializes via its state
  // lock).
  virtual TreeDescription describe() const = 0;

  // Node ids this tree still needs; everything else is garbage (§6 GC).
  // O(tree): the full-sweep view, for checkpoint pinning, composite GC and
  // cross-checks. The per-run GC uses take_released_ids() instead.
  virtual void collect_live_ids(std::unordered_set<NodeId>& live) const = 0;

  // Appends the node ids this tree stopped holding since the previous
  // call and forgets them: nodes a mutating call dropped, and nodes it
  // memoized and dropped again within the call (e.g. the rotating tree's
  // partial folds). An id the tree holds again by the time of the call is
  // not reported. Erasing exactly these after every run keeps the memo
  // store equal to collect_live_ids() at O(released) cost (§6 GC). The
  // ids accumulate until taken.
  virtual void take_released_ids(std::vector<NodeId>& released) = 0;

  // --- checkpoint/restore (§6; src/durability) -------------------------
  //
  // serialize() writes the tree's structural state — node ids, window
  // bookkeeping, split-processing residue — into `writer`. Payloads are
  // encoded by reference when the durable memo tier holds them and inline
  // otherwise (see durability/checkpoint.h for the marker scheme).
  //
  // restore() rebuilds that state on a freshly constructed tree of the
  // same kind/options (resolving by-ref payloads from the recovered memo
  // store). A restored tree is in post-run state: root()/reduce_inputs()
  // return the pre-checkpoint values and the next apply_delta performs
  // the same delta-proportional work an uninterrupted run would — no
  // hidden rebuild. Returns false on a malformed or unresolvable blob.
  virtual void serialize(durability::CheckpointWriter& writer) const = 0;
  virtual bool restore(durability::CheckpointReader& reader) = 0;
};

enum class TreeKind {
  kStrawman,
  kFolding,
  kRandomizedFolding,
  kRotating,
  kCoalescing,
};

struct TreeOptions {
  TreeKind kind = TreeKind::kFolding;
  // RotatingTree: splits per bucket (= the fixed slide width w).
  std::size_t bucket_width = 1;
  // Rotating/Coalescing: enable split processing (§4).
  bool split_processing = false;
  // RandomizedFoldingTree: group-boundary probability.
  double boundary_probability = 0.5;
};

std::unique_ptr<ContractionTree> make_tree(const TreeOptions& options,
                                           MemoContext ctx,
                                           CombineFn combiner);

}  // namespace slider
