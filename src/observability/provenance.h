// Per-slide lineage recording and explain drill-downs.
//
// A contraction tree is literally a dependence graph, so provenance falls
// out of instrumentation rather than new algorithms: every node charge in
// the trees (charge_node, contraction/tree_common.h) also appends a
// NodeLineage record when the session is armed
// (SliderConfig::record_provenance), capturing the causal DAG of the run
// — which memo nodes were reused, which were recomputed and why (the
// WorkCause taxonomy), what each one cost in sim time, and a key sketch
// of the rows it covers.
//
// On top of the raw DAG this module provides:
//
//   * explain(key) — walk the recorded DAG from the apex node containing
//     a reduce key back to the leaf element ranges, returning the minimal
//     reused/recomputed frontier that produced that output.
//   * critical-path attribution — the longest sim-time dependency chain
//     of a slide as an actual node path (the per-level generalization of
//     SliderSession::contraction_critical_path()).
//
// Slides are ring-buffered in the same tiered ring as the time series
// (observability/tiered_ring.h): a raw ring of full per-node DAGs,
// evicting into width-limited aggregate buckets that keep the per-cause
// tallies and the worst critical path; conservation holds as
//   total_recorded == raw + Σ aggregate counts + samples_dropped.
//
// Layering: this header must not depend on contraction/tree.h (the trees
// include it to embed NodeLineage in TreeUpdateStats); node ids are plain
// std::uint64_t (storage/memo_store.h NodeId).
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "observability/tiered_ring.h"
#include "observability/work_ledger.h"

namespace slider {
class KVTable;
}  // namespace slider

namespace slider::obs {

class JsonValue;

// --- per-node lineage --------------------------------------------------------

// What the tree did at this node. Together with the WorkCause this maps
// onto the user-facing disposition string (disposition_name below):
// kReuse -> "reused"; executed ops split by cause into "new" /
// "recomputed" / "evicted_recompute" / "failure_reexec" / ...
enum class LineageOp : std::uint8_t {
  kLeaf,         // a new leaf payload entered the tree
  kMerge,        // combiner executed (one or more invocations)
  kPassthrough,  // single-child level hop, no combiner work
  kReuse,        // memo hit: payload served from the store
};

std::string_view lineage_op_name(LineageOp op);

// Compact key-membership summary of a node's payload. Up to
// kSketchExactCap key hashes are stored exactly; beyond that the sketch
// degrades to a 256-bit double-probed Bloom filter (no false negatives,
// so explain() never misses a real dependency — it can only over-approximate
// on bloom-only nodes, which the Explanation flags as inexact).
inline constexpr std::uint32_t kSketchExactCap = 8;

struct KeySketch {
  std::array<std::uint64_t, 4> bloom{};
  std::array<std::uint64_t, kSketchExactCap> exact{};
  std::uint32_t exact_count = 0;  // > kSketchExactCap means bloom-only

  bool is_exact() const { return exact_count <= kSketchExactCap; }
  bool empty() const { return exact_count == 0; }
  void add_hash(std::uint64_t h);
  void merge(const KeySketch& other);
  bool may_contain_hash(std::uint64_t h) const;
};

// Hashes every key of `table` into a sketch (hash_string per key).
KeySketch sketch_of_table(const KVTable& table);

// One touched contraction node. Children reference other records of the
// same slide by node id; ids the slide did not touch are the reused /
// untouched hinterland explain() stops at.
struct NodeLineage {
  std::uint64_t id = 0;
  LineageOp op = LineageOp::kMerge;
  WorkCause cause = WorkCause::kInitialBuild;
  std::uint16_t level = 0;
  std::uint32_t invocations = 0;  // combiner invocations charged here
  std::uint64_t rows = 0;         // payload rows at this node
  std::uint64_t rows_scanned = 0; // merge input rows (cost-model units)
  double memo_cost = 0;           // this node's memo read + write cost
  KeySketch sketch;
  bool children_truncated = false;
  std::vector<std::uint64_t> children;
};

// Caps the recorded child list of wide fold nodes (flat-tier roots fold
// the whole window); children_truncated marks the cut.
inline constexpr std::size_t kLineageChildCap = 64;

// --- process-wide sketch cache ----------------------------------------------

// NodeId -> KeySketch memo so internal merges union two cached sketches
// (O(1)) instead of rehashing payload keys (O(rows)). Sharded like the
// MemoStore; bounded; only ever touched by armed sessions.
class SketchCache {
 public:
  static SketchCache& global();

  bool lookup(std::uint64_t id, KeySketch* out) const;
  void store(std::uint64_t id, const KeySketch& sketch);

 private:
  static constexpr std::size_t kShards = 16;
  static constexpr std::size_t kMaxEntriesPerShard = 4096;

  struct Shard;
  SketchCache();
  Shard* shards_;  // leaked singleton storage, never destroyed
};

// --- per-slide lineage -------------------------------------------------------

struct PathNode {
  std::uint64_t id = 0;
  std::uint16_t level = 0;
  LineageOp op = LineageOp::kMerge;
  WorkCause cause = WorkCause::kInitialBuild;
  double seconds = 0;  // this node's own sim-time contribution
};

// The causal DAG of one run, plus derived tallies and the critical path
// (root-first). `partitions[p]` lists the touched nodes of partition p in
// children-before-parents order (the order the trees append them).
struct SlideLineage {
  std::uint64_t sequence = 0;  // assigned by the recorder
  RunKind kind = RunKind::kSlide;
  std::string tenant;
  double sim_start = 0;
  std::array<std::uint64_t, kWorkCauseCount> cause_invocations{};
  std::array<std::uint64_t, kWorkCauseCount> cause_nodes{};
  std::uint64_t reused_nodes = 0;
  std::uint64_t recorded_nodes = 0;
  double critical_path_seconds = 0;
  int critical_path_partition = -1;
  std::vector<PathNode> critical_path;
  std::vector<std::vector<NodeLineage>> partitions;
};

// Sim-cost parameters for critical-path weights; mirrors the session's
// PartitionShare cost model (combine cpu per scanned row + one memo
// lookup charge per touched node + recorded memo io cost).
struct LineageCostParams {
  double combine_cpu_per_row = 0;
  double memo_lookup_sec = 0;
};

// Computes tallies + critical path over `partitions` and assembles the
// slide record (sequence still unset; the recorder stamps it).
SlideLineage assemble_slide_lineage(RunKind kind, std::string_view tenant,
                                    double sim_start,
                                    std::vector<std::vector<NodeLineage>> partitions,
                                    const LineageCostParams& costs);

// Downsampled history bucket: tallies survive, per-node DAGs do not.
struct LineageAggregate {
  std::uint64_t first_sequence = 0;
  std::uint64_t count = 0;
  std::array<std::uint64_t, kWorkCauseCount> cause_invocations{};
  std::array<std::uint64_t, kWorkCauseCount> cause_nodes{};
  std::uint64_t reused_nodes = 0;
  std::uint64_t recorded_nodes = 0;
  double critical_path_seconds_max = 0;

  void fold(const SlideLineage& slide);
};

struct ProvenanceSnapshot {
  std::uint64_t total_recorded = 0;
  std::uint64_t samples_dropped = 0;  // slides beyond aggregate history
  std::vector<LineageAggregate> aggregates;
  std::vector<SlideLineage> raw;  // oldest first
};

// --- explain -----------------------------------------------------------------

struct ExplainEntry {
  std::uint64_t id = 0;
  std::uint16_t level = 0;
  LineageOp op = LineageOp::kMerge;
  WorkCause cause = WorkCause::kInitialBuild;
  std::string disposition;  // disposition_name(op, cause)
  std::uint64_t rows = 0;
  std::uint32_t invocations = 0;
  bool exact = true;  // sketch membership was exact along this entry
};

struct Explanation {
  bool found = false;  // an apex node containing the key was recorded
  std::uint64_t sequence = 0;
  RunKind kind = RunKind::kSlide;
  std::string tenant;
  int partition = 0;
  std::string key;
  std::uint64_t apex = 0;  // node id the walk started from
  std::uint16_t apex_level = 0;
  std::uint64_t walked_nodes = 0;      // records visited during the walk
  std::uint64_t untouched_children = 0;  // edges into nodes this slide never touched
  bool exact = true;  // false if any bloom-only sketch was crossed
  std::vector<ExplainEntry> frontier;  // minimal reused/recomputed frontier
};

// Walks one recorded slide's partition DAG for `key`. Deterministic:
// executed records win over reuse records of the same id (a memo miss
// emits both), higher levels win apex selection.
Explanation explain_slide(const SlideLineage& slide, std::string_view key,
                          int partition);

// Maps (op, cause) to the user-facing disposition string: "reused",
// "new", "recomputed", "evicted_recompute", "failure_reexec",
// "recovery_replay", "background", "scrub_repair".
std::string_view disposition_name(LineageOp op, WorkCause cause);

// NodeId -> disposition over one recorded partition; the later of two
// same-id records wins, which lets the executed half of a memo-miss pair
// shadow its reuse record. Feeds /tree?format=dot disposition coloring
// (contraction/describe.h).
std::unordered_map<std::uint64_t, std::string> disposition_map(
    const SlideLineage& slide, int partition);

// --- the recorder ------------------------------------------------------------

class ProvenanceRecorder {
 public:
  struct Options {
    std::size_t raw_capacity = 32;      // full DAGs kept
    std::size_t aggregate_width = 16;   // slides folded per bucket
    std::size_t aggregate_capacity = 64;
  };

  ProvenanceRecorder();
  explicit ProvenanceRecorder(Options options);

  ProvenanceRecorder(const ProvenanceRecorder&) = delete;
  ProvenanceRecorder& operator=(const ProvenanceRecorder&) = delete;

  // Stamps the sequence and folds the slide into the tiered rings.
  void record(SlideLineage slide);

  ProvenanceSnapshot snapshot() const;
  std::uint64_t total_recorded() const;

  // Explains `key` against the newest raw slide that touched `partition`
  // (or the slide with exactly `sequence` when provided).
  Explanation explain(std::string_view key, int partition,
                      std::optional<std::uint64_t> sequence = std::nullopt) const;

  void configure(Options options);  // drops history

 private:
  mutable std::mutex mutex_;
  TieredRing<SlideLineage, LineageAggregate, Options> ring_;
};

// --- serialization -----------------------------------------------------------

// Node ids, key hashes, and bloom words are emitted as decimal strings:
// they are full 64-bit values and JSON numbers (and the doctor's reader)
// only carry 53 mantissa bits.
std::string provenance_to_json(const ProvenanceSnapshot& snapshot);
std::string criticalpath_to_json(const ProvenanceSnapshot& snapshot);
std::string explanation_to_json(const Explanation& explanation);

// Rehydrates a snapshot from the flight-recorder "provenance" JSON
// section (the doctor's path back into explain_slide).
ProvenanceSnapshot provenance_from_json(const JsonValue& value);

}  // namespace slider::obs
