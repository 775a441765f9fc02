// slider_doctor — post-mortem analysis CLI for flight-recorder dumps.
//
// Reads one `*.pm.json` file (or every one in a directory), validates the
// CRC frame, and prints a diagnosis:
//
//   * the SLO breach timeline captured in the dump,
//   * the fault-note timeline (chaos events, degraded-mode entries) and
//     the machines they implicate,
//   * cause-attributed work from the embedded ledger snapshot,
//   * fault and integrity-scrub counters from the embedded StatsRegistry
//     snapshot (the "stats" section), and
//   * work spikes in the time-series window — raw samples whose combiner
//     invocations stand well above the window median, attributed to the
//     ledger causes that produced them.
//
// Armed sessions (SliderConfig::record_provenance) embed a "provenance"
// section — the per-slide lineage rings — which adds two more reads:
//
//   * a provenance summary plus the worst recorded critical path, and
//   * --explain=<key> [--partition=N]: re-runs the lineage walk offline
//     against the newest recorded slide and prints the minimal
//     reused/recomputed frontier that produced that output key.
//
// Usage:
//   slider_doctor <dump.pm.json | dir> [--expect-fault=<kind>]
//                 [--explain=<key>] [--partition=<n>] [--quiet]
//
// --expect-fault=<kind> turns the tool into a gate: exit 0 iff at least
// one valid dump contains a fault note whose kind matches (substring).
// Used by the `tools_slider_doctor` ctest to prove a chaos-induced dump
// round-trips and attributes the injected fault. --explain is a gate the
// same way: exit 0 iff some dump's lineage resolves the key.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "observability/postmortem.h"
#include "observability/provenance.h"

namespace {

using slider::obs::JsonValue;

struct DoctorStats {
  std::size_t dumps_parsed = 0;
  std::size_t dumps_invalid = 0;
  bool expected_fault_seen = false;
  bool explain_resolved = false;
};

double json_median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

void print_slo_section(const JsonValue& slo, bool quiet) {
  std::size_t breached = 0;
  for (const JsonValue& v : slo.items()) {
    if (!v["ok"].as_bool(true)) ++breached;
  }
  if (!quiet) {
    std::printf("SLO verdicts (%zu, %zu breached):\n", slo.items().size(),
                breached);
    for (const JsonValue& v : slo.items()) {
      const bool ok = v["ok"].as_bool(true);
      std::printf("  %-7s %-24s %-22s value=%-12.6g threshold=%-12.6g "
                  "burn=%.6g over %llu samples%s\n",
                  ok ? "ok" : "BREACH", v["name"].as_string().c_str(),
                  v["kind"].as_string().c_str(), v["value"].as_double(),
                  v["threshold"].as_double(), v["burn_value"].as_double(),
                  static_cast<unsigned long long>(v["samples"].as_u64()),
                  v["burning"].as_bool() ? " [BURNING]" : "");
    }
  }
}

void print_fault_section(const JsonValue& faults, const std::string& expect,
                         DoctorStats& stats, bool quiet) {
  // Suspect machines: fault notes that implicate a specific machine.
  std::map<long long, std::map<std::string, std::size_t>> by_machine;
  if (!quiet) std::printf("Fault timeline (%zu notes):\n", faults.items().size());
  for (const JsonValue& f : faults.items()) {
    const std::string& kind = f["kind"].as_string();
    if (!expect.empty() && kind.find(expect) != std::string::npos) {
      stats.expected_fault_seen = true;
    }
    const double at = f["sim_time"].as_double(-1);
    const auto machine =
        static_cast<long long>(f["machine"].as_double(-1));
    if (machine >= 0) ++by_machine[machine][kind];
    if (!quiet) {
      if (at >= 0) {
        std::printf("  t=%-10.4f %-22s", at, kind.c_str());
      } else {
        std::printf("  t=?          %-22s", kind.c_str());
      }
      if (machine >= 0) std::printf(" machine=%-3lld", machine);
      std::printf(" %s\n", f["detail"].as_string().c_str());
    }
  }
  if (!quiet && !by_machine.empty()) {
    std::printf("Suspect machines:\n");
    for (const auto& [machine, kinds] : by_machine) {
      std::size_t total = 0;
      std::string detail;
      for (const auto& [kind, count] : kinds) {
        total += count;
        if (!detail.empty()) detail += ", ";
        detail += kind + " x" + std::to_string(count);
      }
      std::printf("  machine %-3lld %zu note(s): %s\n", machine, total,
                  detail.c_str());
    }
  }
}

void print_ledger_section(const JsonValue& ledger, bool quiet) {
  if (quiet) return;
  const JsonValue& by_cause = ledger["totals_by_cause"];
  std::printf("Work attribution (ledger totals by cause):\n");
  for (const auto& [cause, work] : by_cause.members()) {
    const std::uint64_t invoked = work["combiner_invocations"].as_u64();
    const std::uint64_t reused = work["combiner_reused"].as_u64();
    if (invoked == 0 && reused == 0) continue;
    std::printf("  %-22s invocations=%-10llu reused=%-10llu visited=%llu\n",
                cause.c_str(), static_cast<unsigned long long>(invoked),
                static_cast<unsigned long long>(reused),
                static_cast<unsigned long long>(
                    work["nodes_visited"].as_u64()));
  }
}

// Process-wide event counters from the dump's "stats" section.
void print_stats_section(const JsonValue& stats, bool quiet) {
  if (quiet) return;
  const JsonValue& counters = stats["counters"];
  std::printf("Fault counters: retries=%llu failures_injected=%llu "
              "failure_forced_misses=%llu degraded_intervals=%llu\n",
              static_cast<unsigned long long>(
                  counters["task.retries"].as_u64()),
              static_cast<unsigned long long>(
                  counters["failures.injected"].as_u64()),
              static_cast<unsigned long long>(
                  counters["memo.failure_forced_misses"].as_u64()),
              static_cast<unsigned long long>(
                  counters["durability.degraded_intervals"].as_u64()));
  const std::uint64_t verified = counters["scrub.records_verified"].as_u64();
  const std::uint64_t detected =
      counters["scrub.corruptions_detected"].as_u64();
  const std::uint64_t repairs = counters["scrub.repairs"].as_u64();
  const std::uint64_t quarantines = counters["scrub.quarantines"].as_u64();
  if (verified == 0 && detected == 0) return;
  // Conservation invariant: every detection resolves into exactly one
  // repair or one quarantine. A violated line here means the scrubber
  // died mid-resolution or the dump caught a bug.
  const bool conserved = detected == repairs + quarantines;
  std::printf("Integrity scrub: %llu record(s) verified, %llu corruption(s) "
              "detected, %llu repaired, %llu quarantined [%s]\n",
              static_cast<unsigned long long>(verified),
              static_cast<unsigned long long>(detected),
              static_cast<unsigned long long>(repairs),
              static_cast<unsigned long long>(quarantines),
              conserved ? "conserved" : "NOT CONSERVED");
}

void print_timeseries_section(const JsonValue& series, bool quiet) {
  if (quiet) return;
  const JsonValue& raw = series["raw"];
  std::vector<double> invocations;
  std::uint64_t degraded = 0;
  for (const JsonValue& s : raw.items()) {
    invocations.push_back(s["combiner_invocations"].as_double());
    if (s["durable_degraded"].as_bool()) ++degraded;
  }
  const double median = json_median(invocations);
  std::printf("Time series: %llu recorded (%zu raw in window, %llu beyond "
              "history), %llu degraded sample(s)\n",
              static_cast<unsigned long long>(
                  series["total_recorded"].as_u64()),
              raw.items().size(),
              static_cast<unsigned long long>(
                  series["samples_dropped"].as_u64()),
              static_cast<unsigned long long>(degraded));
  // Work spikes: raw samples well above the window median. The median of a
  // delta-proportional workload is small, so the initial build and any
  // failure-driven recomputation stand out immediately.
  const double threshold = std::max(median * 4.0, 1.0);
  std::printf("Work spikes (> %.6g invocations, 4x window median %.6g):\n",
              threshold, median);
  bool any = false;
  for (const JsonValue& s : raw.items()) {
    const double invoked = s["combiner_invocations"].as_double();
    if (invoked <= threshold) continue;
    any = true;
    std::string causes;
    for (const auto& [cause, count] : s["cause_invocations"].members()) {
      if (!causes.empty()) causes += ", ";
      causes += cause + "=" + std::to_string(count.as_u64());
    }
    // Tenant column: multi-tenant dumps tag every sample with its owner
    // ("-" for single-tenant sessions), so a fleet spike is attributable.
    const std::string tenant = s["tenant"].as_string();
    std::printf("  seq %-6llu %-10s tenant=%-12s sim_t=%-10.4f "
                "invocations=%-8.6g retries=%llu%s%s%s\n",
                static_cast<unsigned long long>(s["sequence"].as_u64()),
                s["kind"].as_string().c_str(),
                tenant.empty() ? "-" : tenant.c_str(),
                s["sim_start"].as_double(),
                invoked,
                static_cast<unsigned long long>(s["task_retries"].as_u64()),
                s["durable_degraded"].as_bool() ? " [degraded]" : "",
                causes.empty() ? "" : " causes: ", causes.c_str());
  }
  if (!any) std::printf("  (none)\n");
}

void print_provenance_section(const JsonValue& prov,
                              const std::string& explain_key, int partition,
                              DoctorStats& stats, bool quiet) {
  if (prov.is_null()) {
    if (!explain_key.empty() && !quiet) {
      std::printf("Provenance: (not recorded in this dump; arm "
                  "SliderConfig::record_provenance)\n");
    }
    return;
  }
  const slider::obs::ProvenanceSnapshot snap =
      slider::obs::provenance_from_json(prov);
  std::uint64_t aggregated = 0;
  for (const slider::obs::LineageAggregate& a : snap.aggregates) {
    aggregated += a.count;
  }
  if (!quiet) {
    std::printf("Provenance: %llu slide(s) recorded (%zu raw DAGs retained, "
                "%llu aggregated, %llu dropped)\n",
                static_cast<unsigned long long>(snap.total_recorded),
                snap.raw.size(), static_cast<unsigned long long>(aggregated),
                static_cast<unsigned long long>(snap.samples_dropped));
    // The worst critical path still holding a full DAG: the chain a
    // latency post-mortem should chase first.
    const slider::obs::SlideLineage* worst = nullptr;
    for (const slider::obs::SlideLineage& s : snap.raw) {
      if (worst == nullptr ||
          s.critical_path_seconds > worst->critical_path_seconds) {
        worst = &s;
      }
    }
    if (worst != nullptr && !worst->critical_path.empty()) {
      std::printf("Worst critical path (slide seq %llu, %s, partition %d, "
                  "%.6gs):\n",
                  static_cast<unsigned long long>(worst->sequence),
                  slider::obs::run_kind_name(worst->kind).data(),
                  worst->critical_path_partition,
                  worst->critical_path_seconds);
      for (const slider::obs::PathNode& n : worst->critical_path) {
        std::printf("  L%-2u %-12s %-22s %-12.6g id=%llu\n", n.level,
                    slider::obs::lineage_op_name(n.op).data(),
                    slider::obs::work_cause_name(n.cause).data(), n.seconds,
                    static_cast<unsigned long long>(n.id));
      }
    }
  }
  if (explain_key.empty()) return;
  // Offline drill-down: newest raw slide that touched the partition.
  for (std::size_t i = snap.raw.size(); i-- > 0;) {
    const slider::obs::SlideLineage& slide = snap.raw[i];
    if (partition >= static_cast<int>(slide.partitions.size()) ||
        slide.partitions[partition].empty()) {
      continue;
    }
    const slider::obs::Explanation ex =
        slider::obs::explain_slide(slide, explain_key, partition);
    if (!ex.found) continue;
    stats.explain_resolved = true;
    std::printf("Explain '%s' (slide seq %llu, %s, partition %d, apex %llu "
                "at L%u, %s membership):\n",
                explain_key.c_str(),
                static_cast<unsigned long long>(ex.sequence),
                slider::obs::run_kind_name(ex.kind).data(), ex.partition,
                static_cast<unsigned long long>(ex.apex), ex.apex_level,
                ex.exact ? "exact" : "bloom-approximate");
    for (const slider::obs::ExplainEntry& e : ex.frontier) {
      std::printf("  frontier id=%llu level=%u op=%s cause=%s "
                  "disposition=%s rows=%llu invocations=%u\n",
                  static_cast<unsigned long long>(e.id), e.level,
                  slider::obs::lineage_op_name(e.op).data(),
                  slider::obs::work_cause_name(e.cause).data(),
                  e.disposition.c_str(),
                  static_cast<unsigned long long>(e.rows), e.invocations);
    }
    std::printf("  walked=%llu untouched_children=%llu frontier=%zu\n",
                static_cast<unsigned long long>(ex.walked_nodes),
                static_cast<unsigned long long>(ex.untouched_children),
                ex.frontier.size());
    return;
  }
  std::printf("Explain '%s': no recorded slide of partition %d contains the "
              "key\n",
              explain_key.c_str(), partition);
}

bool doctor_one(const std::string& path, const std::string& expect,
                const std::string& explain_key, int partition,
                DoctorStats& stats, bool quiet) {
  const auto file = slider::obs::read_postmortem(path);
  if (!file.has_value()) {
    std::fprintf(stderr, "INVALID %s (bad frame, CRC, or JSON)\n",
                 path.c_str());
    ++stats.dumps_invalid;
    return false;
  }
  ++stats.dumps_parsed;
  const JsonValue& root = file->root;
  if (!quiet) {
    std::printf("== %s ==\n", path.c_str());
    std::printf("reason: %-28s session: %-20s sim_time: %.4f (frame v%u, "
                "schema v%llu)\n",
                root["reason"].as_string().c_str(),
                root["session"].as_string().c_str(),
                root["sim_time"].as_double(), file->version,
                static_cast<unsigned long long>(
                    root["schema_version"].as_u64()));
  }
  print_slo_section(root["slo"], quiet);
  print_fault_section(root["faults"], expect, stats, quiet);
  print_ledger_section(root["ledger"], quiet);
  print_stats_section(root["stats"], quiet);
  print_timeseries_section(root["timeseries"], quiet);
  print_provenance_section(root["provenance"], explain_key, partition, stats,
                           quiet);
  if (!quiet) std::printf("\n");
  return true;
}

std::string arg_value(int argc, char** argv, const char* flag) {
  const std::size_t len = std::strlen(flag);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], flag, len) == 0 && argv[i][len] == '=') {
      return std::string(argv[i] + len + 1);
    }
  }
  return "";
}

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::string target;
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] != '-') {
      target = argv[i];
      break;
    }
  }
  if (target.empty()) {
    std::fprintf(stderr,
                 "usage: slider_doctor <dump.pm.json | dir> "
                 "[--expect-fault=<kind>] [--explain=<key>] "
                 "[--partition=<n>] [--quiet]\n");
    return 2;
  }
  const std::string expect = arg_value(argc, argv, "--expect-fault");
  const std::string explain_key = arg_value(argc, argv, "--explain");
  const std::string partition_arg = arg_value(argc, argv, "--partition");
  const int partition =
      partition_arg.empty() ? 0 : std::atoi(partition_arg.c_str());
  const bool quiet = has_flag(argc, argv, "--quiet");

  std::vector<std::string> paths;
  std::error_code ec;
  if (std::filesystem::is_directory(target, ec)) {
    for (const auto& entry : std::filesystem::directory_iterator(target, ec)) {
      const std::string p = entry.path().string();
      if (p.size() >= 8 && p.compare(p.size() - 8, 8, ".pm.json") == 0) {
        paths.push_back(p);
      }
    }
    std::sort(paths.begin(), paths.end());
  } else {
    paths.push_back(target);
  }
  if (paths.empty()) {
    std::fprintf(stderr, "slider_doctor: no *.pm.json under %s\n",
                 target.c_str());
    return 1;
  }

  DoctorStats stats;
  for (const std::string& path : paths) {
    doctor_one(path, expect, explain_key, partition, stats, quiet);
  }

  std::printf("slider_doctor: %zu dump(s) parsed, %zu invalid\n",
              stats.dumps_parsed, stats.dumps_invalid);
  if (stats.dumps_parsed == 0) return 1;
  if (!expect.empty()) {
    if (!stats.expected_fault_seen) {
      std::fprintf(stderr,
                   "slider_doctor: expected fault kind '%s' not found in any "
                   "dump\n",
                   expect.c_str());
      return 1;
    }
    std::printf("slider_doctor: expected fault '%s' attributed OK\n",
                expect.c_str());
  }
  if (!explain_key.empty()) {
    if (!stats.explain_resolved) {
      std::fprintf(stderr,
                   "slider_doctor: key '%s' not found in any dump's "
                   "recorded lineage (partition %d)\n",
                   explain_key.c_str(), partition);
      return 1;
    }
    std::printf("slider_doctor: explain frontier for '%s' resolved OK\n",
                explain_key.c_str());
  }
  return 0;
}
