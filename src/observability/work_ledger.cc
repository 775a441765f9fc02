#include "observability/work_ledger.h"

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

WorkLedger& WorkLedger::global() {
  // Leaked singleton: a scrape or a late commit during process teardown
  // never meets a destroyed ledger.
  static WorkLedger* ledger = new WorkLedger();
  return *ledger;
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
  return snap;
}

void WorkLedger::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  totals_.fill(CauseWork{});
  tenant_totals_.clear();
  runs_committed_ = 0;
  next_sequence_ = 0;
  history_.clear();
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
