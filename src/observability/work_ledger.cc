#include "observability/work_ledger.h"

#include <atomic>

#include "observability/json_writer.h"

namespace slider::obs {

std::string_view work_cause_name(WorkCause cause) {
  switch (cause) {
    case WorkCause::kInitialBuild: return "initial_build";
    case WorkCause::kWindowAdd: return "window_add";
    case WorkCause::kWindowRemove: return "window_remove";
    case WorkCause::kMemoEvictionRecompute: return "memo_eviction_recompute";
    case WorkCause::kRecoveryReplay: return "recovery_replay";
    case WorkCause::kBackgroundPreprocess: return "background_preprocess";
    case WorkCause::kSpeculativeReexec: return "speculative_reexec";
    case WorkCause::kFailureReexec: return "failure_reexec";
    case WorkCause::kScrubRepair: return "scrub_repair";
  }
  return "unknown";
}

std::string_view run_kind_name(RunKind kind) {
  switch (kind) {
    case RunKind::kInitial: return "initial";
    case RunKind::kSlide: return "slide";
    case RunKind::kBackground: return "background";
  }
  return "unknown";
}

// Per-thread event cell. Monotonic relaxed atomics: the owning thread is
// the only writer; snapshot()/reset() read/clear from other threads.
struct WorkLedger::ThreadCell {
  std::atomic<std::uint64_t> eviction_forced_misses{0};
  std::atomic<std::uint64_t> budget_evictions{0};
  std::atomic<std::uint64_t> quota_evictions{0};
  std::atomic<std::uint64_t> recovered_entries{0};
  std::atomic<std::uint64_t> recovered_bytes{0};
  std::atomic<std::uint64_t> speculative_reexecutions{0};
  std::atomic<std::uint64_t> failure_forced_misses{0};
  std::atomic<std::uint64_t> failures_injected{0};
  std::atomic<std::uint64_t> task_retries{0};
  std::atomic<std::uint64_t> machines_blacklisted{0};
  std::atomic<std::uint64_t> degraded_mode_intervals{0};
  std::atomic<std::uint64_t> scrub_records_verified{0};
  std::atomic<std::uint64_t> scrub_corruptions_detected{0};
  std::atomic<std::uint64_t> scrub_repairs{0};
  std::atomic<std::uint64_t> scrub_quarantines{0};
};

WorkLedger::WorkLedger() = default;
WorkLedger::~WorkLedger() = default;

WorkLedger& WorkLedger::global() {
  // Leaked singleton: notes can arrive from detached pool threads during
  // process teardown.
  static WorkLedger* ledger = new WorkLedger();
  return *ledger;
}

WorkLedger::ThreadCell& WorkLedger::local_cell() {
  // One cell per (ledger, thread). The thread caches the pointer; the cell
  // itself lives in cells_ so it outlives the thread.
  thread_local struct Cache {
    WorkLedger* owner = nullptr;
    ThreadCell* cell = nullptr;
  } cache;
  if (cache.owner != this || cache.cell == nullptr) {
    auto cell = std::make_unique<ThreadCell>();
    ThreadCell* raw = cell.get();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      cells_.push_back(std::move(cell));
    }
    cache.owner = this;
    cache.cell = raw;
  }
  return *cache.cell;
}

void WorkLedger::note_eviction_forced_miss(std::uint64_t count) {
  local_cell().eviction_forced_misses.fetch_add(count,
                                                std::memory_order_relaxed);
}

void WorkLedger::note_budget_eviction(std::uint64_t count) {
  local_cell().budget_evictions.fetch_add(count, std::memory_order_relaxed);
}

void WorkLedger::note_quota_eviction(std::uint64_t count) {
  local_cell().quota_evictions.fetch_add(count, std::memory_order_relaxed);
}

void WorkLedger::note_recovery(std::uint64_t entries, std::uint64_t bytes) {
  ThreadCell& cell = local_cell();
  cell.recovered_entries.fetch_add(entries, std::memory_order_relaxed);
  cell.recovered_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

void WorkLedger::note_speculative_reexec(std::uint64_t count) {
  local_cell().speculative_reexecutions.fetch_add(count,
                                                  std::memory_order_relaxed);
}

void WorkLedger::note_failure_forced_miss(std::uint64_t count) {
  local_cell().failure_forced_misses.fetch_add(count,
                                               std::memory_order_relaxed);
}

void WorkLedger::note_failure_injected(std::uint64_t count) {
  local_cell().failures_injected.fetch_add(count, std::memory_order_relaxed);
}

void WorkLedger::note_task_retry(std::uint64_t count) {
  local_cell().task_retries.fetch_add(count, std::memory_order_relaxed);
}

void WorkLedger::note_machine_blacklisted(std::uint64_t count) {
  local_cell().machines_blacklisted.fetch_add(count,
                                              std::memory_order_relaxed);
}

void WorkLedger::note_degraded_interval(std::uint64_t count) {
  local_cell().degraded_mode_intervals.fetch_add(count,
                                                 std::memory_order_relaxed);
}

void WorkLedger::note_scrub(std::uint64_t verified, std::uint64_t detected,
                            std::uint64_t repairs,
                            std::uint64_t quarantines) {
  ThreadCell& cell = local_cell();
  cell.scrub_records_verified.fetch_add(verified, std::memory_order_relaxed);
  cell.scrub_corruptions_detected.fetch_add(detected,
                                            std::memory_order_relaxed);
  cell.scrub_repairs.fetch_add(repairs, std::memory_order_relaxed);
  cell.scrub_quarantines.fetch_add(quarantines, std::memory_order_relaxed);
}

void WorkLedger::commit_run(RunKind kind, std::size_t window_splits,
                            std::size_t removed, std::size_t added,
                            const std::vector<AttributedWork>& partitions,
                            std::string_view tenant) {
  std::lock_guard<std::mutex> lock(mutex_);
  TenantWork* tenant_cell = nullptr;
  if (!tenant.empty()) {
    const auto it = tenant_totals_.find(tenant);
    if (it != tenant_totals_.end()) {
      tenant_cell = &it->second;
    } else {
      tenant_cell = &tenant_totals_[std::string(tenant)];
      tenant_cell->tenant = std::string(tenant);
    }
    ++tenant_cell->runs_committed;
  }
  for (const AttributedWork& partition : partitions) {
    for (const AttributedCell& cell : partition.cells()) {
      totals_[static_cast<std::size_t>(cell.cause)] += cell.work;
      if (tenant_cell != nullptr) {
        tenant_cell->totals[static_cast<std::size_t>(cell.cause)] += cell.work;
      }
    }
  }
  ++runs_committed_;
  SlideRecord record;
  record.sequence = next_sequence_++;
  record.kind = kind;
  record.tenant = std::string(tenant);
  record.window_splits = window_splits;
  record.removed = removed;
  record.added = added;
  record.partitions = partitions;
  history_.push_back(std::move(record));
  while (history_.size() > kHistoryLimit) history_.pop_front();
}

LedgerSnapshot WorkLedger::snapshot() const {
  LedgerSnapshot snap;
  std::lock_guard<std::mutex> lock(mutex_);
  snap.totals = totals_;
  snap.runs_committed = runs_committed_;
  snap.recent.assign(history_.begin(), history_.end());
  snap.tenants.reserve(tenant_totals_.size());
  for (const auto& [name, work] : tenant_totals_) snap.tenants.push_back(work);
  for (const auto& cell : cells_) {
    snap.counters.eviction_forced_misses +=
        cell->eviction_forced_misses.load(std::memory_order_relaxed);
    snap.counters.budget_evictions +=
        cell->budget_evictions.load(std::memory_order_relaxed);
    snap.counters.quota_evictions +=
        cell->quota_evictions.load(std::memory_order_relaxed);
    snap.counters.recovered_entries +=
        cell->recovered_entries.load(std::memory_order_relaxed);
    snap.counters.recovered_bytes +=
        cell->recovered_bytes.load(std::memory_order_relaxed);
    snap.counters.speculative_reexecutions +=
        cell->speculative_reexecutions.load(std::memory_order_relaxed);
    snap.counters.failure_forced_misses +=
        cell->failure_forced_misses.load(std::memory_order_relaxed);
    snap.counters.failures_injected +=
        cell->failures_injected.load(std::memory_order_relaxed);
    snap.counters.task_retries +=
        cell->task_retries.load(std::memory_order_relaxed);
    snap.counters.machines_blacklisted +=
        cell->machines_blacklisted.load(std::memory_order_relaxed);
    snap.counters.degraded_mode_intervals +=
        cell->degraded_mode_intervals.load(std::memory_order_relaxed);
    snap.counters.scrub_records_verified +=
        cell->scrub_records_verified.load(std::memory_order_relaxed);
    snap.counters.scrub_corruptions_detected +=
        cell->scrub_corruptions_detected.load(std::memory_order_relaxed);
    snap.counters.scrub_repairs +=
        cell->scrub_repairs.load(std::memory_order_relaxed);
    snap.counters.scrub_quarantines +=
        cell->scrub_quarantines.load(std::memory_order_relaxed);
  }
  return snap;
}

void WorkLedger::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  totals_.fill(CauseWork{});
  tenant_totals_.clear();
  runs_committed_ = 0;
  next_sequence_ = 0;
  history_.clear();
  for (const auto& cell : cells_) {
    cell->eviction_forced_misses.store(0, std::memory_order_relaxed);
    cell->budget_evictions.store(0, std::memory_order_relaxed);
    cell->quota_evictions.store(0, std::memory_order_relaxed);
    cell->recovered_entries.store(0, std::memory_order_relaxed);
    cell->recovered_bytes.store(0, std::memory_order_relaxed);
    cell->speculative_reexecutions.store(0, std::memory_order_relaxed);
    cell->failure_forced_misses.store(0, std::memory_order_relaxed);
    cell->failures_injected.store(0, std::memory_order_relaxed);
    cell->task_retries.store(0, std::memory_order_relaxed);
    cell->machines_blacklisted.store(0, std::memory_order_relaxed);
    cell->degraded_mode_intervals.store(0, std::memory_order_relaxed);
    cell->scrub_records_verified.store(0, std::memory_order_relaxed);
    cell->scrub_corruptions_detected.store(0, std::memory_order_relaxed);
    cell->scrub_repairs.store(0, std::memory_order_relaxed);
    cell->scrub_quarantines.store(0, std::memory_order_relaxed);
  }
}

namespace {

void write_cause_work(JsonWriter& json, const CauseWork& work) {
  json.begin_object();
  json.key("combiner_invocations").value(work.combiner_invocations);
  json.key("combiner_reused").value(work.combiner_reused);
  json.key("nodes_visited").value(work.nodes_visited);
  json.key("rows_scanned").value(work.rows_scanned);
  json.key("memo_bytes_read").value(work.memo_bytes_read);
  json.key("memo_bytes_written").value(work.memo_bytes_written);
  json.end_object();
}

}  // namespace

std::string ledger_to_json(const LedgerSnapshot& snapshot) {
  JsonWriter json;
  json.begin_object();
  json.key("schema_version").value(static_cast<std::int64_t>(1));
  json.key("runs_committed").value(snapshot.runs_committed);
  json.key("total_combiner_invocations").value(snapshot.total_invocations());

  json.key("totals_by_cause").begin_object();
  for (std::size_t c = 0; c < kWorkCauseCount; ++c) {
    json.key(work_cause_name(static_cast<WorkCause>(c)));
    write_cause_work(json, snapshot.totals[c]);
  }
  json.end_object();

  json.key("counters").begin_object();
  json.key("eviction_forced_misses")
      .value(snapshot.counters.eviction_forced_misses);
  json.key("budget_evictions").value(snapshot.counters.budget_evictions);
  json.key("quota_evictions").value(snapshot.counters.quota_evictions);
  json.key("recovered_entries").value(snapshot.counters.recovered_entries);
  json.key("recovered_bytes").value(snapshot.counters.recovered_bytes);
  json.key("speculative_reexecutions")
      .value(snapshot.counters.speculative_reexecutions);
  json.key("failure_forced_misses")
      .value(snapshot.counters.failure_forced_misses);
  json.key("failures_injected").value(snapshot.counters.failures_injected);
  json.key("task_retries").value(snapshot.counters.task_retries);
  json.key("machines_blacklisted")
      .value(snapshot.counters.machines_blacklisted);
  json.key("degraded_mode_intervals")
      .value(snapshot.counters.degraded_mode_intervals);
  json.key("scrub_records_verified")
      .value(snapshot.counters.scrub_records_verified);
  json.key("scrub_corruptions_detected")
      .value(snapshot.counters.scrub_corruptions_detected);
  json.key("scrub_repairs").value(snapshot.counters.scrub_repairs);
  json.key("scrub_quarantines").value(snapshot.counters.scrub_quarantines);
  json.end_object();

  if (!snapshot.tenants.empty()) {
    json.key("tenants").begin_object();
    for (const TenantWork& tenant : snapshot.tenants) {
      json.key(tenant.tenant).begin_object();
      json.key("runs_committed").value(tenant.runs_committed);
      json.key("total_combiner_invocations")
          .value(tenant.total_invocations());
      json.key("totals_by_cause").begin_object();
      for (std::size_t c = 0; c < kWorkCauseCount; ++c) {
        if (tenant.totals[c].empty()) continue;
        json.key(work_cause_name(static_cast<WorkCause>(c)));
        write_cause_work(json, tenant.totals[c]);
      }
      json.end_object();
      json.end_object();
    }
    json.end_object();
  }

  json.key("recent_runs").begin_array();
  for (const SlideRecord& record : snapshot.recent) {
    json.begin_object();
    json.key("sequence").value(record.sequence);
    json.key("kind").value(run_kind_name(record.kind));
    if (!record.tenant.empty()) json.key("tenant").value(record.tenant);
    json.key("window_splits")
        .value(static_cast<std::uint64_t>(record.window_splits));
    json.key("removed").value(static_cast<std::uint64_t>(record.removed));
    json.key("added").value(static_cast<std::uint64_t>(record.added));
    json.key("partitions").begin_array();
    for (const AttributedWork& partition : record.partitions) {
      json.begin_array();
      for (const AttributedCell& cell : partition.cells()) {
        if (cell.work.empty()) continue;
        json.begin_object();
        json.key("cause").value(work_cause_name(cell.cause));
        json.key("level").value(static_cast<std::uint64_t>(cell.level));
        json.key("work");
        write_cause_work(json, cell.work);
        json.end_object();
      }
      json.end_array();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();

  json.end_object();
  return json.take();
}

}  // namespace slider::obs
