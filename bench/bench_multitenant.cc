// bench_multitenant — serving-layer scale bench (ROADMAP: multi-tenant
// SessionManager).
//
// Drives one SessionManager over a mixed-app tenant fleet sharing a
// single MemoStore + durable tier, under a seeded chaos schedule, with a
// quota-tight subset forcing per-tenant evictions and a napper subset
// exercising the idle-checkpoint/re-hydrate lifecycle. Measures what the
// multi-tenant runtime is for:
//
//   * throughput: executed runs per wall-clock second of drain;
//   * tail latency: p50/p99 of per-slide simulated and wall latency,
//     pooled from every tenant's private time-series sink;
//   * isolation accounting: per-tenant quota-eviction counters must be
//     CONSERVED — the store's per-tenant cells, its aggregate stats, and
//     the process-wide memo.evictions_quota counter all agree (exit 1
//     otherwise: this bench doubles as the accounting gate at scale).
//
// Default geometry is a 1000-session fleet (seconds of wall time); the
// full fleet-scale run is --tenants=10000. CI runs --tenants=200.
// Writes BENCH_multitenant.json.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "durability/durable_tier.h"
#include "observability/stats.h"
#include "robustness/chaos.h"
#include "serving/session_manager.h"

namespace {

using namespace slider;

struct Options {
  int tenants = 1000;
  int rounds = 4;
  int machines = 8;
  std::size_t window_splits = 6;
  std::size_t records_per_split = 8;
  std::size_t slide = 1;
};

struct Profile {
  const char* name;
  apps::MicroApp app;
  WindowMode mode;
  std::optional<TreeKind> kind;
  bool split_processing;
};

constexpr Profile kProfiles[] = {
    {"hct_folding", apps::MicroApp::kHct, WindowMode::kVariableWidth,
     TreeKind::kFolding, false},
    {"substr_flat", apps::MicroApp::kSubStr, WindowMode::kVariableWidth,
     std::nullopt, false},
    {"kmeans_rotating", apps::MicroApp::kKMeans, WindowMode::kFixedWidth,
     TreeKind::kRotating, true},
    {"matrix_randomized", apps::MicroApp::kMatrix, WindowMode::kVariableWidth,
     TreeKind::kRandomizedFolding, false},
};
constexpr std::size_t kProfileCount = std::size(kProfiles);

std::vector<SplitPtr> batch_for(const Profile& profile, const Options& opt,
                                std::size_t count, SplitId first_id) {
  Rng rng(777 + first_id);
  auto records = apps::generate_input(
      profile.app, count * opt.records_per_split, rng, first_id * 1'000'000);
  return make_splits(std::move(records), opt.records_per_split, first_id);
}

double percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
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

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (const std::string v = arg_value(argc, argv, "--tenants"); !v.empty()) {
    opt.tenants = std::max(static_cast<int>(kProfileCount),
                           std::atoi(v.c_str()));
  }
  if (const std::string v = arg_value(argc, argv, "--rounds"); !v.empty()) {
    opt.rounds = std::max(2, std::atoi(v.c_str()));
  }

  CostModel cost;
  cost.task_overhead_sec = 0.01;
  cost.net_latency_sec = 1.0e-4;
  Cluster cluster(ClusterConfig{.num_machines = opt.machines,
                                .slots_per_machine = 2});
  VanillaEngine engine(cluster, cost);
  const std::filesystem::path tier_dir =
      std::filesystem::temp_directory_path() / "slider_bench_multitenant_tier";
  std::filesystem::remove_all(tier_dir);
  std::filesystem::create_directories(tier_dir);
  durability::DurableTier tier(tier_dir.string());
  MemoStore memo(cluster, cost);
  memo.attach_durable_tier(&tier);

  robustness::ChaosOptions chaos_options;
  chaos_options.horizon = static_cast<SimDuration>(opt.rounds + 1);
  chaos_options.crash_events = 2;
  chaos_options.straggler_events = 2;
  chaos_options.memo_loss_events = 2;
  chaos_options.durable_error_events = 1;
  chaos_options.attempt_failure_prob = 0.02;
  chaos_options.min_live_machines = 2;
  const robustness::ChaosSchedule schedule =
      robustness::ChaosSchedule::generate(41, chaos_options, opt.machines);
  robustness::ChaosController controller(
      schedule, robustness::ChaosTargets{.cluster = &cluster,
                                         .memo = &memo,
                                         .durable = &tier});

  serving::SessionManagerOptions manager_options;
  manager_options.shards = 16;
  manager_options.idle_checkpoint_rounds = 2;
  // Fleet-scale sink geometry: every executed run of this bench still
  // fits in the raw ring (rounds << 16), at ~4KB per tenant.
  manager_options.series_options.raw_capacity = 16;
  manager_options.series_options.aggregate_width = 8;
  manager_options.series_options.aggregate_capacity = 4;
  serving::SessionManager manager(engine, memo, manager_options);

  std::vector<std::string> names;
  names.reserve(static_cast<std::size_t>(opt.tenants));
  const auto setup_start = std::chrono::steady_clock::now();
  for (int i = 0; i < opt.tenants; ++i) {
    const Profile& profile = kProfiles[static_cast<std::size_t>(i) %
                                       kProfileCount];
    serving::TenantSpec spec;
    spec.name = "tenant-" + std::to_string(i);
    spec.job = apps::make_microbenchmark(profile.app).job;
    spec.config.mode = profile.mode;
    spec.config.tree_kind = profile.kind;
    spec.config.split_processing = profile.split_processing;
    spec.config.bucket_width = opt.slide;
    spec.config.fault_provider = &controller;
    if (i % 7 == 1) spec.quota.max_entries = 6;  // quota-tight subset
    manager.add_tenant(std::move(spec),
                       batch_for(profile, opt, opt.window_splits, 0));
    names.push_back("tenant-" + std::to_string(i));
  }

  // Drive: one slide per tenant per round (nappers skip two consecutive
  // rounds and re-hydrate), drains timed per round.
  std::vector<SplitId> next_id(static_cast<std::size_t>(opt.tenants),
                               opt.window_splits);
  std::vector<double> drain_seconds;
  std::uint64_t executed_total = 0;
  for (int round = 0; round < opt.rounds; ++round) {
    if (round > 0) {
      for (int i = 0; i < opt.tenants; ++i) {
        if (i % 5 == 3 && (round == 1 || round == 2)) continue;  // nappers
        const Profile& profile = kProfiles[static_cast<std::size_t>(i) %
                                           kProfileCount];
        const std::size_t remove =
            profile.mode == WindowMode::kAppendOnly ? 0 : opt.slide;
        if (manager.submit(names[static_cast<std::size_t>(i)], remove,
                           batch_for(profile, opt, opt.slide,
                                     next_id[static_cast<std::size_t>(i)])) !=
            serving::AdmitResult::kShed) {
          next_id[static_cast<std::size_t>(i)] += opt.slide;
        }
      }
    }
    const auto drain_start = std::chrono::steady_clock::now();
    executed_total += manager.run_pending();
    drain_seconds.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      drain_start)
            .count());
    controller.apply_until(static_cast<SimDuration>(round + 1));
  }
  const double total_wall_sec = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - setup_start)
                                    .count();

  // Pool per-slide latencies from every tenant's private sink.
  std::vector<double> sim_latency;
  std::vector<double> wall_latency_us;
  for (const std::string& name : names) {
    const obs::TimeSeriesSnapshot series = manager.tenant_series(name);
    for (const obs::SlideSample& s : series.raw) {
      if (s.kind == obs::RunKind::kBackground) continue;
      sim_latency.push_back(s.sim_latency);
      wall_latency_us.push_back(s.wall_latency_us);
    }
  }
  double drain_sum = 0;
  for (const double d : drain_seconds) drain_sum += d;
  const double throughput =
      drain_sum > 0 ? static_cast<double>(executed_total) / drain_sum : 0;

  // Isolation accounting gate: quota evictions conserved across the
  // store's per-tenant cells, its aggregate stats, and the registry.
  std::uint64_t quota_evictions_cells = 0;
  std::uint64_t quota_limited_tenants = 0;
  for (const TenantUsage& usage : memo.tenant_usage_snapshot()) {
    quota_evictions_cells += usage.quota_evictions;
    if (usage.quota_evictions > 0) ++quota_limited_tenants;
  }
  const MemoStoreStats store_stats = memo.stats();
  const std::uint64_t quota_evictions_registry =
      obs::StatsRegistry::global().counter("memo.evictions_quota").value();
  const bool conserved =
      quota_evictions_cells == store_stats.quota_evictions &&
      store_stats.quota_evictions == quota_evictions_registry;

  std::uint64_t checkpoints = 0;
  std::uint64_t hydrations = 0;
  for (const std::string& name : names) {
    const serving::TenantStatus status = manager.status(name);
    checkpoints += status.counters.checkpoints;
    hydrations += status.counters.hydrations;
  }

  obs::RunReport report("multitenant");
  report.set_param("tenants", static_cast<std::int64_t>(opt.tenants))
      .set_param("rounds", static_cast<std::int64_t>(opt.rounds))
      .set_param("machines", static_cast<std::int64_t>(opt.machines))
      .set_param("window_splits",
                 static_cast<std::uint64_t>(opt.window_splits))
      .set_param("runs_executed", executed_total)
      .set_param("throughput_runs_per_sec", throughput)
      .set_param("total_wall_sec", total_wall_sec)
      .set_param("p50_sim_latency_sec", percentile(sim_latency, 0.50))
      .set_param("p99_sim_latency_sec", percentile(sim_latency, 0.99))
      .set_param("p50_wall_latency_us", percentile(wall_latency_us, 0.50))
      .set_param("p99_wall_latency_us", percentile(wall_latency_us, 0.99))
      .set_param("checkpoints", checkpoints)
      .set_param("hydrations", hydrations)
      .set_param("quota_evictions", quota_evictions_cells)
      .set_param("quota_limited_tenants", quota_limited_tenants)
      .set_param("quota_counters_conserved", conserved);
  for (std::size_t r = 0; r < drain_seconds.size(); ++r) {
    report.add_row()
        .col("round", static_cast<std::uint64_t>(r))
        .col("drain_sec", drain_seconds[r]);
  }
  report.add_note(
      "multi-tenant serving runtime: mixed-app fleet over one shared memo "
      "store under chaos; throughput = executed runs / drain wall time, "
      "latency percentiles pooled from per-tenant time-series sinks, "
      "quota-eviction counters cross-checked store-cells == store-stats == "
      "registry");
  report.merge_stats(obs::StatsRegistry::global().snapshot());
  const std::string path = report.write();
  std::filesystem::remove_all(tier_dir);

  std::printf(
      "multitenant: %d tenants, %llu runs, %.1f runs/sec, p99 sim latency "
      "%.4fs, p99 wall %.0fus, %llu quota evictions (%s), %llu checkpoints, "
      "%llu hydrations\n",
      opt.tenants, static_cast<unsigned long long>(executed_total), throughput,
      percentile(sim_latency, 0.99), percentile(wall_latency_us, 0.99),
      static_cast<unsigned long long>(quota_evictions_cells),
      conserved ? "conserved" : "NOT CONSERVED",
      static_cast<unsigned long long>(checkpoints),
      static_cast<unsigned long long>(hydrations));
  if (!path.empty()) std::printf("bench report: %s\n", path.c_str());
  if (!conserved) {
    std::fprintf(stderr,
                 "FAIL quota-eviction counters diverged: cells=%llu "
                 "store=%llu registry=%llu\n",
                 static_cast<unsigned long long>(quota_evictions_cells),
                 static_cast<unsigned long long>(store_stats.quota_evictions),
                 static_cast<unsigned long long>(quota_evictions_registry));
    return 1;
  }
  return 0;
}
