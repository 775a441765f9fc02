// Causal work ledger.
//
// Slider's headline claim is that a slide performs work proportional to
// the delta (times log window) — but an aggregate combiner-invocation
// counter cannot say *why* a merge executed. A combiner run triggered by a
// window append is indistinguishable from one forced by a memo eviction or
// a post-crash recovery replay, so the paper's §7-style breakdowns would
// otherwise be read off totals on faith. This module attributes every unit
// of contraction-tree work to its cause:
//
//   initial_build            — the from-scratch first run
//   window_add               — dirty paths from freshly appended splits
//   window_remove            — voided-path passthroughs / recomputes after
//                              front-of-window removals (Fig 2)
//   memo_eviction_recompute  — re-execution forced by a memo-layer loss
//                              (budget eviction, replica failure, GC race)
//   recovery_replay          — slides re-executed after restore() to catch
//                              up to the pre-crash frontier
//   background_preprocess    — §4 split-processing background phase
//   failure_reexec           — recomputation forced by a machine failure
//                              that destroyed every intact replica of a
//                              needed memo entry (§6 fault tolerance)
//   scrub_repair             — online integrity scrubbing: at-rest bytes
//                              re-verified and replica repairs performed by
//                              durability/scrubber.h (I/O attribution; the
//                              scrubber never runs combiners itself)
//
// Accounting discipline (same as docs/threading.md): the hot paths never
// touch a shared ledger. Tree work accumulates into caller-owned
// TreeUpdateStats cells (one per partition, folded deterministically in
// partition order) and is committed to the process-wide WorkLedger once per
// run at the slide boundary, under one cold mutex. The ledger attributes
// work; it counts no events. Storage, durability, scheduler and chaos
// events (evictions, restores, retries, injected failures, scrub outcomes)
// are StatsRegistry counters, each event counted once where it happens.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace slider::obs {

enum class WorkCause : std::uint8_t {
  kInitialBuild = 0,
  kWindowAdd,
  kWindowRemove,
  kMemoEvictionRecompute,
  kRecoveryReplay,
  kBackgroundPreprocess,
  kFailureReexec,
  kScrubRepair,
};

inline constexpr std::size_t kWorkCauseCount = 8;

// Stable snake_case names, used as Prometheus label values and JSON keys.
std::string_view work_cause_name(WorkCause cause);

// Work observed under one (cause, tree level) bucket.
struct CauseWork {
  std::uint64_t combiner_invocations = 0;
  std::uint64_t combiner_reused = 0;
  std::uint64_t nodes_visited = 0;
  std::uint64_t rows_scanned = 0;
  std::uint64_t memo_bytes_read = 0;
  std::uint64_t memo_bytes_written = 0;

  CauseWork& operator+=(const CauseWork& o) {
    combiner_invocations += o.combiner_invocations;
    combiner_reused += o.combiner_reused;
    nodes_visited += o.nodes_visited;
    rows_scanned += o.rows_scanned;
    memo_bytes_read += o.memo_bytes_read;
    memo_bytes_written += o.memo_bytes_written;
    return *this;
  }
  bool empty() const {
    return combiner_invocations == 0 && combiner_reused == 0 &&
           nodes_visited == 0 && rows_scanned == 0 && memo_bytes_read == 0 &&
           memo_bytes_written == 0;
  }
};

struct AttributedCell {
  WorkCause cause = WorkCause::kInitialBuild;
  std::uint16_t level = 0;
  CauseWork work;
};

// Sparse per-(cause, level) accumulator. A tree operation touches a
// handful of (cause, level) pairs — at most a few causes times the tree
// height — so a small vector with linear lookup beats any map here, and
// the whole structure copies/merges trivially for the deterministic
// partition-order folds the session performs.
class AttributedWork {
 public:
  CauseWork& cell(WorkCause cause, std::uint16_t level) {
    for (AttributedCell& c : cells_) {
      if (c.cause == cause && c.level == level) return c.work;
    }
    cells_.push_back(AttributedCell{cause, level, {}});
    return cells_.back().work;
  }

  void merge(const AttributedWork& o) {
    for (const AttributedCell& c : o.cells_) {
      if (c.work.empty()) continue;
      cell(c.cause, c.level) += c.work;
    }
  }

  const std::vector<AttributedCell>& cells() const { return cells_; }
  bool empty() const {
    for (const AttributedCell& c : cells_) {
      if (!c.work.empty()) return false;
    }
    return true;
  }

  // Sum over levels for one cause / over everything.
  CauseWork total_for(WorkCause cause) const {
    CauseWork total;
    for (const AttributedCell& c : cells_) {
      if (c.cause == cause) total += c.work;
    }
    return total;
  }
  CauseWork total() const {
    CauseWork total;
    for (const AttributedCell& c : cells_) total += c.work;
    return total;
  }

 private:
  std::vector<AttributedCell> cells_;
};

enum class RunKind : std::uint8_t { kInitial, kSlide, kBackground };
std::string_view run_kind_name(RunKind kind);

// One committed run (initial build, slide, or background phase).
struct SlideRecord {
  std::uint64_t sequence = 0;  // monotone per-process commit index
  RunKind kind = RunKind::kSlide;
  std::string tenant;  // empty for single-tenant processes
  std::size_t window_splits = 0;
  std::size_t removed = 0;
  std::size_t added = 0;
  std::vector<AttributedWork> partitions;  // indexed by reduce partition
};

// Per-tenant slice of the ledger: cause totals for every run committed
// under that tenant tag. Untagged (single-tenant) commits stay out of the
// tenant cells, so Σ tenants ≤ totals, with equality when every run is
// tagged (asserted by the multitenant soak's conservation check).
struct TenantWork {
  std::string tenant;
  std::array<CauseWork, kWorkCauseCount> totals{};
  std::uint64_t runs_committed = 0;
  std::uint64_t total_invocations() const {
    std::uint64_t sum = 0;
    for (const CauseWork& w : totals) sum += w.combiner_invocations;
    return sum;
  }
};

struct LedgerSnapshot {
  // Process-lifetime totals per cause (sums over all committed runs).
  std::array<CauseWork, kWorkCauseCount> totals{};
  std::uint64_t runs_committed = 0;
  // Most recent runs, oldest first (bounded by the ledger history limit).
  std::vector<SlideRecord> recent;
  // Per-tenant cells, sorted by tenant name (empty in single-tenant runs).
  std::vector<TenantWork> tenants;

  const CauseWork& total_for(WorkCause cause) const {
    return totals[static_cast<std::size_t>(cause)];
  }
  // Σ combiner invocations over every cause — must equal the aggregate
  // "tree.combiner_invocations" stats counter (the ledger conservation
  // property; asserted in tests/test_work_ledger.cc).
  std::uint64_t total_invocations() const {
    std::uint64_t sum = 0;
    for (const CauseWork& w : totals) sum += w.combiner_invocations;
    return sum;
  }
};

// Serializes a snapshot as a standalone JSON document (the /ledger.json
// introspection route).
std::string ledger_to_json(const LedgerSnapshot& snapshot);

// Process-wide causal work ledger. commit_run() is the cold once-per-run
// path (one mutex); snapshot() may run concurrently from any thread.
class WorkLedger {
 public:
  static WorkLedger& global();

  WorkLedger() = default;
  WorkLedger(const WorkLedger&) = delete;
  WorkLedger& operator=(const WorkLedger&) = delete;

  // Commits one run's per-partition attributed work at a slide boundary.
  // `tenant` (empty for single-tenant processes) additionally books the
  // work into that tenant's ledger cell.
  void commit_run(RunKind kind, std::size_t window_splits, std::size_t removed,
                  std::size_t added,
                  const std::vector<AttributedWork>& partitions,
                  std::string_view tenant = {});

  LedgerSnapshot snapshot() const;
  std::string to_json() const { return ledger_to_json(snapshot()); }

  // Zeroes totals, tenant cells and history (tests, tool startup).
  void reset();

 private:
  mutable std::mutex mutex_;  // guards every member below
  std::array<CauseWork, kWorkCauseCount> totals_{};
  // Keyed and emitted in name order so snapshots are deterministic.
  std::map<std::string, TenantWork, std::less<>> tenant_totals_;
  std::uint64_t runs_committed_ = 0;
  std::uint64_t next_sequence_ = 0;
  // snapshot() retains the most recent kHistoryLimit SlideRecords.
  static constexpr std::size_t kHistoryLimit = 64;
  std::deque<SlideRecord> history_;
};

}  // namespace slider::obs
