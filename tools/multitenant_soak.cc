// multitenant_soak — the serving layer's correctness gate.
//
// Drives one SessionManager multiplexing many tenants (mixed micro-apps x
// mixed tree variants) over a shared MemoStore + durable tier + cluster,
// with a seeded chaos schedule applied between rounds, and checks that
// sharing never leaks across tenants:
//
//   * BYTE IDENTITY: after every executed run, each tenant's serialized
//     outputs must equal an isolated single-tenant control session fed
//     the same inputs — across machine crashes, memo loss, durable error
//     windows, injected task failures, per-tenant quota evictions, and
//     idle-checkpoint/re-hydrate cycles. Tenants sharing a profile run
//     IDENTICAL jobs, so this simultaneously proves tenant-salted memo
//     keys never alias (two identical tenants, one store, no cross-talk).
//   * LIFECYCLE: "napper" tenants go idle long enough to be checkpointed
//     to the spool and destroyed, then transparently re-hydrate on their
//     next slide; at least one tenant must complete the full
//     checkpoint-idle -> hydrate-on-slide loop.
//   * ADMISSION: a burst tenant overruns the shed watermark; the excess
//     is shed, the accepted prefix still matches its control.
//   * CONSERVATION: the causal ledger still conserves globally
//     (per-cause invocations == the aggregate tree counter), per-tenant
//     cells sum to <= the totals, and quota-eviction counts agree across
//     the store's per-tenant cells, its aggregate stats, and the
//     process-wide memo.evictions_quota counter.
//
// Exit status 0 iff every check passed. Writes BENCH_multitenant_soak.json
// unless --no-report.
//
// Run:  ./build/tools/multitenant_soak --tenants=48
// CI:   registered as the `tools_multitenant_soak` ctest (small geometry).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "apps/microbench.h"
#include "data/serde.h"
#include "durability/durable_tier.h"
#include "observability/run_report.h"
#include "observability/stats.h"
#include "observability/work_ledger.h"
#include "robustness/chaos.h"
#include "serving/session_manager.h"

namespace {

using namespace slider;

struct Options {
  int tenants = 48;
  int rounds = 6;
  int machines = 6;
  std::size_t window_splits = 10;
  std::size_t records_per_split = 12;
  std::size_t slide = 2;
  bool quiet = false;
  bool report = true;
};

struct Profile {
  const char* name;
  apps::MicroApp app;
  WindowMode mode;
  std::optional<TreeKind> kind;  // nullopt = let the flat tier route
  bool split_processing;
};

// Mixed fleet: every tree variant, both window-mode families, the flat
// aggregation tier, and both split-processing background modes.
constexpr Profile kProfiles[] = {
    {"hct_folding", apps::MicroApp::kHct, WindowMode::kVariableWidth,
     TreeKind::kFolding, false},
    {"substr_flat", apps::MicroApp::kSubStr, WindowMode::kVariableWidth,
     std::nullopt, false},
    {"kmeans_rotating", apps::MicroApp::kKMeans, WindowMode::kFixedWidth,
     TreeKind::kRotating, true},
    {"matrix_randomized", apps::MicroApp::kMatrix, WindowMode::kVariableWidth,
     TreeKind::kRandomizedFolding, false},
    {"knn_coalescing", apps::MicroApp::kKnn, WindowMode::kAppendOnly,
     TreeKind::kCoalescing, true},
    {"hct_strawman", apps::MicroApp::kHct, WindowMode::kVariableWidth,
     TreeKind::kStrawman, false},
};
constexpr std::size_t kProfileCount = std::size(kProfiles);

const Profile& profile_of(int tenant) {
  return kProfiles[static_cast<std::size_t>(tenant) % kProfileCount];
}
// Nappers skip two consecutive rounds (the idle-checkpoint threshold);
// quota-tight tenants get an entry quota far below their working set.
bool is_napper(int tenant) { return tenant % 5 == 3; }
bool is_quota_tight(int tenant) { return tenant % 7 == 1; }

// Same deterministic input convention as chaos_soak: batch contents are a
// pure function of the split ids, so tenants of one profile and their
// control see identical bytes.
std::vector<SplitPtr> batch_for(const Profile& profile, const Options& opt,
                                std::size_t count, SplitId first_id) {
  Rng rng(777 + first_id);
  auto records = apps::generate_input(
      profile.app, count * opt.records_per_split, rng, first_id * 1'000'000);
  return make_splits(std::move(records), opt.records_per_split, first_id);
}

SliderConfig profile_config(const Profile& profile, const Options& opt) {
  SliderConfig config;
  config.mode = profile.mode;
  config.tree_kind = profile.kind;
  config.split_processing = profile.split_processing;
  config.bucket_width = opt.slide;
  return config;
}

std::size_t remove_for(const Profile& profile, const Options& opt) {
  return profile.mode == WindowMode::kAppendOnly ? 0 : opt.slide;
}

std::vector<std::string> output_bytes(const SliderSession& session) {
  std::vector<std::string> out;
  out.reserve(session.output().size());
  for (const KVTable& table : session.output()) {
    out.push_back(serialize_table(table));
  }
  return out;
}

// Isolated single-tenant control: fresh cluster + private store, no
// chaos, no tenant salt — the bytes every fleet tenant of this profile
// must reproduce. Mirrors the manager's execution order (background phase
// after every run when split processing is on).
std::vector<std::vector<std::string>> run_control(const Profile& profile,
                                                  const Options& opt,
                                                  std::size_t runs) {
  CostModel cost;
  Cluster cluster(ClusterConfig{.num_machines = opt.machines,
                                .slots_per_machine = 2});
  VanillaEngine engine(cluster, cost);
  MemoStore memo(cluster, cost);
  const auto bench = apps::make_microbenchmark(profile.app);
  SliderSession session(engine, memo, bench.job, profile_config(profile, opt));

  std::vector<std::vector<std::string>> outputs;
  session.initial_run(batch_for(profile, opt, opt.window_splits, 0));
  if (profile.split_processing) session.run_background();
  outputs.push_back(output_bytes(session));
  SplitId next_id = opt.window_splits;
  for (std::size_t s = 1; s < runs; ++s) {
    session.slide(remove_for(profile, opt),
                  batch_for(profile, opt, opt.slide, next_id));
    next_id += opt.slide;
    if (profile.split_processing) session.run_background();
    outputs.push_back(output_bytes(session));
  }
  return outputs;
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
  Options opt;
  if (const std::string v = arg_value(argc, argv, "--tenants"); !v.empty()) {
    opt.tenants = std::max(static_cast<int>(kProfileCount),
                           std::atoi(v.c_str()));
  }
  if (const std::string v = arg_value(argc, argv, "--rounds"); !v.empty()) {
    opt.rounds = std::max(6, std::atoi(v.c_str()));
  }
  if (const std::string v = arg_value(argc, argv, "--machines"); !v.empty()) {
    opt.machines = std::max(3, std::atoi(v.c_str()));
  }
  opt.quiet = has_flag(argc, argv, "--quiet");
  if (has_flag(argc, argv, "--no-report")) opt.report = false;

  CostModel cost;
  Cluster cluster(ClusterConfig{.num_machines = opt.machines,
                                .slots_per_machine = 2});
  VanillaEngine engine(cluster, cost);
  const std::filesystem::path tier_dir =
      std::filesystem::temp_directory_path() / "slider_multitenant_soak_tier";
  std::filesystem::remove_all(tier_dir);
  std::filesystem::create_directories(tier_dir);
  durability::DurableTier tier(tier_dir.string());
  MemoStore memo(cluster, cost);
  memo.attach_durable_tier(&tier);

  // One chaos timeline for the whole fleet, ticked once per round at the
  // quiescent point between drains.
  robustness::ChaosOptions chaos_options;
  chaos_options.horizon = static_cast<SimDuration>(opt.rounds + 1);
  chaos_options.crash_events = 2;
  chaos_options.straggler_events = 2;
  chaos_options.memo_loss_events = 2;
  chaos_options.durable_error_events = 1;
  chaos_options.attempt_failure_prob = 0.03;
  chaos_options.min_live_machines = 2;
  const robustness::ChaosSchedule schedule =
      robustness::ChaosSchedule::generate(29, chaos_options, opt.machines);
  robustness::ChaosController controller(
      schedule, robustness::ChaosTargets{.cluster = &cluster,
                                         .memo = &memo,
                                         .durable = &tier});

  serving::SessionManagerOptions manager_options;
  manager_options.shards = 8;
  manager_options.queue_watermark = 4;
  manager_options.shed_watermark = 6;
  manager_options.idle_checkpoint_rounds = 2;
  serving::SessionManager manager(engine, memo, manager_options);

  int failures = 0;
  const auto fail = [&](const std::string& what) {
    std::fprintf(stderr, "FAIL %s\n", what.c_str());
    ++failures;
  };

  std::vector<std::string> names;
  std::vector<SplitId> next_id(static_cast<std::size_t>(opt.tenants));
  for (int i = 0; i < opt.tenants; ++i) {
    const Profile& profile = profile_of(i);
    serving::TenantSpec spec;
    spec.name = "tenant-" + std::to_string(i);
    const auto bench = apps::make_microbenchmark(profile.app);
    spec.job = bench.job;
    spec.config = profile_config(profile, opt);
    spec.config.fault_provider = &controller;
    if (is_quota_tight(i)) spec.quota.max_entries = 8;
    if (!manager.add_tenant(std::move(spec),
                            batch_for(profile, opt, opt.window_splits, 0))) {
      fail("add_tenant rejected tenant " + std::to_string(i));
    }
    names.push_back("tenant-" + std::to_string(i));
    next_id[static_cast<std::size_t>(i)] = opt.window_splits;
  }

  // Per tenant: (executed-run count -> serialized outputs) observations,
  // compared against the profile control after the fleet run.
  std::vector<std::map<std::uint64_t, std::vector<std::string>>> observed(
      static_cast<std::size_t>(opt.tenants));
  bool shed_seen = false;
  bool queued_seen = false;
  for (int round = 0; round < opt.rounds; ++round) {
    if (round > 0) {
      for (int i = 0; i < opt.tenants; ++i) {
        // Nappers sit out rounds 2 and 3 back-to-back: one round past the
        // idle threshold, so the manager checkpoints them out.
        if (is_napper(i) && (round == 2 || round == 3)) continue;
        const Profile& profile = profile_of(i);
        const int submits =
            (i == 0 && round == opt.rounds - 1)
                ? static_cast<int>(manager_options.shed_watermark) + 4
                : 1;
        for (int k = 0; k < submits; ++k) {
          const auto& id = next_id[static_cast<std::size_t>(i)];
          const serving::AdmitResult result = manager.submit(
              names[static_cast<std::size_t>(i)], remove_for(profile, opt),
              batch_for(profile, opt, opt.slide, id));
          if (result == serving::AdmitResult::kShed) {
            shed_seen = true;
            continue;  // shed batches are regenerated verbatim if resent
          }
          if (result == serving::AdmitResult::kQueued) queued_seen = true;
          next_id[static_cast<std::size_t>(i)] += opt.slide;
        }
      }
    }
    manager.run_pending();
    controller.apply_until(static_cast<SimDuration>(round + 1));
    for (int i = 0; i < opt.tenants; ++i) {
      const serving::TenantStatus status =
          manager.status(names[static_cast<std::size_t>(i)]);
      auto& seen = observed[static_cast<std::size_t>(i)];
      if (status.counters.executed > 0 &&
          seen.find(status.counters.executed) == seen.end()) {
        seen.emplace(status.counters.executed,
                     manager.last_outputs(names[static_cast<std::size_t>(i)]));
      }
    }
  }

  // --- byte identity vs isolated controls -------------------------------
  std::vector<std::uint64_t> profile_max_runs(kProfileCount, 0);
  for (int i = 0; i < opt.tenants; ++i) {
    const auto& seen = observed[static_cast<std::size_t>(i)];
    if (seen.empty()) {
      fail("tenant " + names[static_cast<std::size_t>(i)] +
           " never executed a run");
      continue;
    }
    auto& max_runs =
        profile_max_runs[static_cast<std::size_t>(i) % kProfileCount];
    max_runs = std::max(max_runs, seen.rbegin()->first);
  }
  std::uint64_t identity_checks = 0;
  for (std::size_t p = 0; p < kProfileCount; ++p) {
    if (profile_max_runs[p] == 0) continue;
    const std::vector<std::vector<std::string>> control =
        run_control(kProfiles[p], opt,
                    static_cast<std::size_t>(profile_max_runs[p]));
    for (int i = 0; i < opt.tenants; ++i) {
      if (static_cast<std::size_t>(i) % kProfileCount != p) continue;
      for (const auto& [runs, outputs] : observed[static_cast<std::size_t>(i)]) {
        ++identity_checks;
        if (outputs != control[static_cast<std::size_t>(runs - 1)]) {
          fail("tenant " + names[static_cast<std::size_t>(i)] +
               " diverged from its isolated control after run " +
               std::to_string(runs));
        }
      }
    }
  }

  // --- lifecycle: checkpoint-idle -> hydrate-on-slide -------------------
  std::uint64_t checkpoints = 0;
  std::uint64_t hydrations = 0;
  int nappers_cycled = 0;
  for (int i = 0; i < opt.tenants; ++i) {
    const serving::TenantStatus status =
        manager.status(names[static_cast<std::size_t>(i)]);
    if (status.unusable) {
      fail("tenant " + status.name + " became unusable (hydrate failed)");
    }
    checkpoints += status.counters.checkpoints;
    hydrations += status.counters.hydrations;
    if (is_napper(i)) {
      if (status.counters.checkpoints >= 1 &&
          status.counters.hydrations >= 1) {
        ++nappers_cycled;
      } else {
        fail("napper " + status.name + " did not complete the "
             "checkpoint/hydrate cycle (checkpoints=" +
             std::to_string(status.counters.checkpoints) + ", hydrations=" +
             std::to_string(status.counters.hydrations) + ")");
      }
    }
  }
  if (nappers_cycled == 0) {
    fail("no tenant went through checkpoint-idle -> hydrate-on-slide");
  }

  // --- admission control ------------------------------------------------
  const serving::TenantStatus burst = manager.status(names[0]);
  if (!shed_seen || burst.counters.shed < 4) {
    fail("burst tenant was not shed past the watermark (shed=" +
         std::to_string(burst.counters.shed) + ")");
  }
  if (!queued_seen) fail("backlog watermark never reported kQueued");

  // --- quota evictions + conservation -----------------------------------
  std::uint64_t quota_evictions_cells = 0;
  for (const TenantUsage& usage : memo.tenant_usage_snapshot()) {
    quota_evictions_cells += usage.quota_evictions;
  }
  const MemoStoreStats store_stats = memo.stats();
  const obs::LedgerSnapshot ledger = obs::WorkLedger::global().snapshot();
  if (quota_evictions_cells == 0) {
    fail("no quota evictions despite quota-tight tenants");
  }
  const std::uint64_t quota_evictions_registry =
      obs::StatsRegistry::global().counter("memo.evictions_quota").value();
  if (quota_evictions_cells != store_stats.quota_evictions ||
      store_stats.quota_evictions != quota_evictions_registry) {
    fail("quota-eviction counters diverged: tenant cells " +
         std::to_string(quota_evictions_cells) + ", store stats " +
         std::to_string(store_stats.quota_evictions) + ", registry " +
         std::to_string(quota_evictions_registry));
  }
  const std::uint64_t aggregate =
      obs::StatsRegistry::global().counter("tree.combiner_invocations").value();
  if (ledger.total_invocations() != aggregate) {
    fail("ledger conservation: per-cause sum " +
         std::to_string(ledger.total_invocations()) + " != aggregate " +
         std::to_string(aggregate));
  }
  std::uint64_t tenant_invocations = 0;
  std::uint64_t tenant_runs = 0;
  for (const obs::TenantWork& t : ledger.tenants) {
    tenant_invocations += t.total_invocations();
    tenant_runs += t.runs_committed;
  }
  if (tenant_invocations > ledger.total_invocations() ||
      tenant_runs > ledger.runs_committed) {
    fail("per-tenant ledger cells exceed the fleet totals");
  }
  if (ledger.tenants.size() < static_cast<std::size_t>(opt.tenants)) {
    fail("ledger is missing tenant cells: " +
         std::to_string(ledger.tenants.size()) + " < " +
         std::to_string(opt.tenants));
  }

  if (opt.report) {
    obs::RunReport report("multitenant_soak");
    report.set_param("tenants", static_cast<std::int64_t>(opt.tenants))
        .set_param("rounds", static_cast<std::int64_t>(opt.rounds))
        .set_param("machines", static_cast<std::int64_t>(opt.machines))
        .set_param("profiles", static_cast<std::int64_t>(kProfileCount))
        .set_param("identity_checks", identity_checks);
    for (std::size_t p = 0; p < kProfileCount; ++p) {
      report.add_row()
          .col("profile", kProfiles[p].name)
          .col("max_runs", profile_max_runs[p]);
    }
    report.add_note(
        "multitenant soak: mixed-app fleet over one shared store under "
        "chaos; per-tenant outputs byte-identical to isolated controls, "
        "nappers checkpoint-idle and re-hydrate, burst tenant shed at the "
        "watermark, quota-eviction counters conserved");
    const std::string path = report.write();
    if (!path.empty() && !opt.quiet) {
      std::printf("bench report: %s\n", path.c_str());
    }
  }
  std::filesystem::remove_all(tier_dir);

  if (failures == 0) {
    std::printf(
        "multitenant soak: OK (%d tenants, %d rounds, %llu identity checks, "
        "%llu checkpoints, %llu hydrations, %llu quota evictions, %llu shed)\n",
        opt.tenants, opt.rounds,
        static_cast<unsigned long long>(identity_checks),
        static_cast<unsigned long long>(checkpoints),
        static_cast<unsigned long long>(hydrations),
        static_cast<unsigned long long>(quota_evictions_cells),
        static_cast<unsigned long long>(burst.counters.shed));
    return 0;
  }
  std::fprintf(stderr, "multitenant soak: %d FAILURE(S)\n", failures);
  return 1;
}
