// chaos_soak — the repo's fault-tolerance gate (paper §6, made executable).
//
// For every contraction-tree variant and every seed, this tool runs the
// same slide schedule twice:
//
//   * a failure-free control session, and
//   * a chaos session: same inputs, same config, but with a seeded
//     ChaosSchedule applied while it runs — machines crash and recover
//     mid-stage, stragglers slow down, in-memory memo copies vanish, the
//     durable tier rejects writes for whole windows, and a deterministic
//     fraction of task attempts simply fail.
//
// After every run (initial build, each slide, each background phase) the
// chaos session's outputs must be BYTE-IDENTICAL to the control's — the
// paper's claim that failures cost recomputation, never correctness. The
// tool additionally checks:
//
//   * every task finished within the attempt cap (max_task_attempts <=
//     ChaosOptions::max_attempts),
//   * a replayed chaos run (same seed) is bit-identical: same outputs,
//     same chaos counters, same simulated clock — failure handling is a
//     pure function of the seed,
//   * the causal work ledger still conserves: per-cause combiner
//     invocations (now including failure_reexec) sum to the aggregate
//     counter.
//
// --bitrot adds the integrity-scrubbing leg: the chaos schedule also
// flips bits in at-rest segment records and truncates one replica's
// newest record (kBitRot / kReplicaDivergence), every session runs with
// the scrubber armed (SliderConfig::scrub_records_per_slide) and memo
// checksum verification on, and after every run the scrub conservation
// invariant (corruptions_detected == repairs + quarantines) must hold on
// top of the byte-identity checks. Its tier runs on 4 KiB segments, so
// the GC's segment cleaner runs under the rot and the scrubber, and the
// soak fails unless segments were cleaned and scrub passes completed.
// The mode finishes with a SIGKILL
// mid-repair experiment: a forked victim corrupts a replica, starts the
// scrub, and dies from inside the repair append; the parent recovers the
// store from the surviving replicas, completes the interrupted repair,
// and proves the recovered session's outputs byte-identical to a
// failure-free control.
//
// Exit status 0 iff every check passed. Writes BENCH_chaos_soak.json
// (RunReport with the robustness section) unless --no-report.
//
// Run:  ./build/tools/chaos_soak --seeds=32
//       ./build/tools/chaos_soak --bitrot   (16 seeds unless --seeds=N)
// CI:   registered as the `tools_chaos_soak` / `tools_chaos_soak_bitrot`
//       ctests.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "apps/microbench.h"
#include "data/serde.h"
#include "durability/durable_tier.h"
#include "durability/fault_injector.h"
#include "durability/recovery.h"
#include "durability/scrubber.h"
#include "durability/segment_log.h"
#include "observability/flight_recorder.h"
#include "observability/run_report.h"
#include "observability/slo.h"
#include "observability/stats.h"
#include "observability/work_ledger.h"
#include "robustness/chaos.h"
#include "slider/session.h"

namespace {

using namespace slider;

struct Options {
  int seeds = 8;
  int slides = 5;
  int machines = 6;
  std::size_t window_splits = 16;
  std::size_t records_per_split = 20;
  std::size_t slide = 4;
  bool quiet = false;
  bool report = true;
  // --bitrot: inject at-rest corruption (bit flips + replica divergence)
  // and arm the integrity scrubber; conservation asserted every run.
  bool bitrot = false;
  std::uint64_t scrub_budget = 48;  // records scrubbed per slide when armed
};

// A scratch dir under the temp root, suffixed with the pid: each run
// starts by remove_all'ing its dirs, so two soaks at once (two build trees,
// or a default and a sanitizer ctest) must not share one.
std::filesystem::path scratch_dir(const std::string& name) {
  return std::filesystem::temp_directory_path() /
         (name + "_" + std::to_string(::getpid()));
}

struct Variant {
  const char* name;
  WindowMode mode;
  TreeKind kind;
  bool split_processing;
  // Flat-tier variant: no explicit tree kind (the session routes eligible
  // partitions to the flat aggregator), and the app switches to substr,
  // whose sum combiner is flat-eligible (hct's histogram combiner is not).
  bool flat = false;
};

// All five tree variants, each under its paper-paired window mode. The two
// data-dependent background modes (split processing) ride on the variants
// whose modes support them, so the background stage faces chaos too. The
// flat variant additionally runs a tree-forced twin control: the flat tier
// must be byte-identical to the contraction tree it bypasses, with and
// without chaos.
constexpr Variant kVariants[] = {
    {"strawman", WindowMode::kVariableWidth, TreeKind::kStrawman, false},
    {"folding", WindowMode::kVariableWidth, TreeKind::kFolding, false},
    {"randomized_folding", WindowMode::kVariableWidth,
     TreeKind::kRandomizedFolding, false},
    {"rotating", WindowMode::kFixedWidth, TreeKind::kRotating, true},
    {"coalescing", WindowMode::kAppendOnly, TreeKind::kCoalescing, true},
    {"flat", WindowMode::kVariableWidth, TreeKind::kFolding, false,
     /*flat=*/true},
};

// Deterministic inputs, independent of the chaos seed: batch k is the same
// bytes in the control, every chaos run, and every replay.
std::vector<SplitPtr> batch_for(const apps::MicroBenchmark& bench,
                                const Options& opt, std::size_t count,
                                SplitId first_id) {
  Rng rng(777 + first_id);
  auto records = apps::generate_input(
      bench.app, count * opt.records_per_split, rng, first_id * 1'000'000);
  return make_splits(std::move(records), opt.records_per_split, first_id);
}

// force_tree pins the flat variant onto its fallback contraction tree
// (same combiner, same inputs): the tree-forced twin that the flat tier's
// outputs are diffed against.
SliderConfig variant_config(const Variant& v, const Options& opt,
                            bool force_tree = false) {
  SliderConfig config;
  config.mode = v.mode;
  if (!v.flat || force_tree) config.tree_kind = v.kind;
  config.enable_flat_tier = !force_tree;
  config.split_processing = v.split_processing;
  config.bucket_width = opt.slide;
  return config;
}

// Serialized outputs of one run, one blob per partition.
std::vector<std::string> output_bytes(const SliderSession& session) {
  std::vector<std::string> out;
  out.reserve(session.output().size());
  for (const KVTable& table : session.output()) {
    out.push_back(serialize_table(table));
  }
  return out;
}

struct ControlTrace {
  std::vector<std::vector<std::string>> outputs;  // per run, per partition
  SimDuration final_clock = 0;
};

// Failure-free control: records the byte-exact outputs after every run.
ControlTrace run_control(const Variant& v, const Options& opt,
                         const apps::MicroBenchmark& bench,
                         bool force_tree = false) {
  CostModel cost;
  Cluster cluster(ClusterConfig{.num_machines = opt.machines,
                                .slots_per_machine = 2});
  VanillaEngine engine(cluster, cost);
  MemoStore memo(cluster, cost);
  SliderSession session(engine, memo, bench.job,
                        variant_config(v, opt, force_tree));

  ControlTrace trace;
  session.initial_run(batch_for(bench, opt, opt.window_splits, 0));
  trace.outputs.push_back(output_bytes(session));
  const std::size_t remove =
      v.mode == WindowMode::kAppendOnly ? 0 : opt.slide;
  SplitId next_id = opt.window_splits;
  for (int s = 0; s < opt.slides; ++s) {
    session.slide(remove, batch_for(bench, opt, opt.slide, next_id));
    next_id += opt.slide;
    if (v.split_processing) session.run_background();
    trace.outputs.push_back(output_bytes(session));
  }
  trace.final_clock = session.sim_clock();
  return trace;
}

// Segments the durable tier's cleaner has deleted in this process.
std::uint64_t segments_cleaned() {
  return obs::StatsRegistry::global()
      .counter("durability.segments_compacted")
      .value();
}

struct ChaosOutcome {
  bool ok = true;
  std::string failure;  // first mismatch, for the log
  RunMetrics metrics;   // summed over every run
  robustness::ChaosController::Counters chaos;
  durability::ScrubStats scrub;  // lifetime scrub stats (--bitrot only)
  SimDuration final_clock = 0;
  std::vector<std::string> final_outputs;
};

// One chaos run against the recorded control trace.
ChaosOutcome run_chaos(const Variant& v, const Options& opt,
                       const apps::MicroBenchmark& bench,
                       const ControlTrace& control, std::uint64_t seed,
                       const std::filesystem::path& dir) {
  ChaosOutcome outcome;
  CostModel cost;
  Cluster cluster(ClusterConfig{.num_machines = opt.machines,
                                .slots_per_machine = 2});
  VanillaEngine engine(cluster, cost);
  // The bit-rot tier runs on 4 KiB segments, so the GC's segment cleaner
  // deletes segments under the scrubber's passes and the injected rot.
  durability::DurableTierOptions tier_options;
  if (opt.bitrot) tier_options.log.segment_bytes = 4 << 10;
  durability::DurableTier tier(dir.string(), tier_options);
  MemoStore memo(cluster, cost);
  memo.attach_durable_tier(&tier);

  robustness::ChaosOptions chaos_options;
  chaos_options.horizon = std::max<SimDuration>(control.final_clock, 1.0);
  chaos_options.crash_events = 2;
  chaos_options.straggler_events = 2;
  chaos_options.memo_loss_events = 2;
  chaos_options.durable_error_events = 1;
  chaos_options.attempt_failure_prob = 0.05;
  chaos_options.min_live_machines = 2;
  if (opt.bitrot) {
    chaos_options.bit_rot_events = 3;
    chaos_options.replica_divergence_events = 2;
  }
  const robustness::ChaosSchedule schedule = robustness::ChaosSchedule::generate(
      seed, chaos_options, opt.machines);
  robustness::ChaosController controller(
      schedule, robustness::ChaosTargets{.cluster = &cluster,
                                         .memo = &memo,
                                         .durable = &tier});

  SliderConfig config = variant_config(v, opt);
  config.fault_provider = &controller;
  if (opt.bitrot) config.scrub_records_per_slide = opt.scrub_budget;
  SliderSession session(engine, memo, bench.job, config);

  std::size_t run_index = 0;
  const auto check_outputs = [&]() -> bool {
    const std::vector<std::string> got = output_bytes(session);
    if (got != control.outputs[run_index]) {
      outcome.ok = false;
      outcome.failure = "outputs diverged from control at run " +
                        std::to_string(run_index);
      return false;
    }
    ++run_index;
    return true;
  };

  outcome.metrics += session.initial_run(
      batch_for(bench, opt, opt.window_splits, 0));
  if (!check_outputs()) return outcome;
  controller.apply_until(session.sim_clock());

  const std::size_t remove =
      v.mode == WindowMode::kAppendOnly ? 0 : opt.slide;
  SplitId next_id = opt.window_splits;
  for (int s = 0; s < opt.slides; ++s) {
    outcome.metrics +=
        session.slide(remove, batch_for(bench, opt, opt.slide, next_id));
    next_id += opt.slide;
    if (v.split_processing) outcome.metrics += session.run_background();
    if (!check_outputs()) return outcome;
    controller.apply_until(session.sim_clock());
  }

  if (outcome.metrics.max_task_attempts >
      static_cast<std::uint64_t>(chaos_options.max_attempts)) {
    outcome.ok = false;
    outcome.failure = "attempt cap exceeded: max_task_attempts=" +
                      std::to_string(outcome.metrics.max_task_attempts) +
                      " > cap=" + std::to_string(chaos_options.max_attempts);
    return outcome;
  }

  if (opt.bitrot) {
    // Drain the scrubber: finish the in-flight pass, then one complete
    // pass over the final at-rest state, so every injected corruption
    // that survived to the end has been detected and resolved.
    memo.scrub_durable(1ull << 20);
    memo.scrub_durable(1ull << 20);
    outcome.scrub = memo.scrub_stats();
    if (!outcome.scrub.conserved()) {
      outcome.ok = false;
      outcome.failure =
          "scrub conservation violated: detected=" +
          std::to_string(outcome.scrub.corruptions_detected) +
          " != repairs=" + std::to_string(outcome.scrub.repairs) +
          " + quarantines=" + std::to_string(outcome.scrub.quarantines);
      return outcome;
    }
  }

  outcome.chaos = controller.counters();
  outcome.final_clock = session.sim_clock();
  outcome.final_outputs = output_bytes(session);
  return outcome;
}

bool same_counters(const robustness::ChaosController::Counters& a,
                   const robustness::ChaosController::Counters& b) {
  return a.events_applied == b.events_applied && a.crashes == b.crashes &&
         a.recoveries == b.recoveries && a.stragglers == b.stragglers &&
         a.memo_losses == b.memo_losses &&
         a.durable_error_windows == b.durable_error_windows &&
         a.bit_rots == b.bit_rots &&
         a.replica_divergences == b.replica_divergences;
}

// A FaultInjector that SIGKILLs the process once its byte budget runs
// out. Armed on the corrupted replica right before the scrub starts, it
// fires from inside the scrubber's quarantine re-append: the process dies
// mid-repair, leaving a half-written healing segment plus the original
// corrupt frame for the recovery process to sort out.
class KillAfterBytes final : public durability::FaultInjector {
 public:
  explicit KillAfterBytes(std::uint64_t budget) : budget_(budget) {}

  std::size_t admit(std::size_t want) override {
    if (!armed_) return want;
    if (budget_ < want) {
      std::fflush(nullptr);  // everything before this write stays on disk
      std::raise(SIGKILL);
    }
    budget_ -= want;
    return want;
  }

  void arm() { armed_ = true; }

 private:
  bool armed_ = false;
  std::uint64_t budget_;
};

// --phase=bitrot-victim: build durable state, corrupt one replica at
// rest, then start a scrub whose first repair append SIGKILLs the
// process. Exit 2 means the experiment itself failed (the injector never
// fired); death by SIGKILL is the expected outcome.
int run_bitrot_victim(const Options& opt, const std::string& dir) {
  const auto bench = apps::make_microbenchmark(apps::MicroApp::kHct);
  const Variant& v = kVariants[1];  // folding tree, variable-width window
  CostModel cost;
  Cluster cluster(ClusterConfig{.num_machines = opt.machines,
                                .slots_per_machine = 2});
  VanillaEngine engine(cluster, cost);
  durability::DurableTier tier(dir);
  MemoStore memo(cluster, cost);
  memo.attach_durable_tier(&tier);
  SliderSession session(engine, memo, bench.job, variant_config(v, opt));

  session.initial_run(batch_for(bench, opt, opt.window_splits, 0));
  SplitId next_id = opt.window_splits;
  for (int s = 0; s < 2; ++s) {
    session.slide(opt.slide, batch_for(bench, opt, opt.slide, next_id));
    next_id += opt.slide;
  }
  memo.flush_durable();

  // Flip one bit in replica 0's newest segment, away from the start so
  // the scrubber has an intact prefix to re-append during quarantine.
  const std::vector<std::string> segments =
      durability::SegmentLog::list_segments(durability::replica_dir(dir, 0));
  if (segments.empty()) {
    std::fprintf(stderr, "bitrot victim: no segments to corrupt\n");
    return 2;
  }
  const std::string& victim_segment = segments.back();
  const auto size = durability::FileFaultInjector::file_size(victim_segment);
  if (!size.has_value() || *size < 64) {
    std::fprintf(stderr, "bitrot victim: segment too small to corrupt\n");
    return 2;
  }
  durability::FileFaultInjector::flip_bit(victim_segment, *size * 3 / 4, 3);

  // Any repair append on replica 0 now kills the process mid-write.
  KillAfterBytes killer(1);
  tier.set_fault_injector(0, &killer);
  killer.arm();
  memo.scrub_durable(1ull << 20);

  std::fprintf(stderr, "bitrot victim: scrub survived; injector never "
               "fired\n");
  return 2;
}

// SIGKILL mid-repair + recovery: fork the victim above, expect SIGKILL,
// then recover the store in-process — the interrupted repair must finish,
// conservation must hold, and a session over the recovered memo must
// reproduce a failure-free control byte for byte. Returns the number of
// failures (0 on success).
int run_bitrot_crash_scenario(const char* argv0, const Options& opt) {
  const std::string dir = scratch_dir("slider_bitrot_crash").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    return 1;
  }
  if (pid == 0) {
    const std::string dir_flag = "--dir=" + dir;
    execl(argv0, argv0, "--phase=bitrot-victim", dir_flag.c_str(),
          static_cast<char*>(nullptr));
    std::perror("execl");
    _exit(127);
  }
  int status = 0;
  if (waitpid(pid, &status, 0) < 0) {
    std::perror("waitpid");
    return 1;
  }
  if (!WIFSIGNALED(status) || WTERMSIG(status) != SIGKILL) {
    std::fprintf(stderr,
                 "bitrot crash: victim did not die of SIGKILL (status=%d)\n",
                 status);
    std::filesystem::remove_all(dir);
    return 1;
  }

  // Recovery: replica 1 is intact; replica 0 holds the corrupt frame and
  // whatever the half-finished quarantine managed to write before dying.
  const auto bench = apps::make_microbenchmark(apps::MicroApp::kHct);
  const Variant& v = kVariants[1];
  CostModel cost;
  Cluster cluster(ClusterConfig{.num_machines = opt.machines,
                                .slots_per_machine = 2});
  VanillaEngine engine(cluster, cost);
  durability::DurableTier tier(dir);
  MemoStore memo(cluster, cost);
  memo.attach_durable_tier(&tier);
  durability::RecoveryStats recovery;
  const std::size_t recovered = memo.restore_from_durable(&recovery);

  // Finish the interrupted repair: scrub to at least one complete pass.
  for (int i = 0; i < 10'000 && memo.scrub_stats().full_passes < 1; ++i) {
    memo.scrub_durable(256);
  }
  const durability::ScrubStats scrub = memo.scrub_stats();
  if (scrub.full_passes < 1 || !scrub.conserved()) {
    std::fprintf(stderr,
                 "bitrot crash: post-recovery scrub did not converge "
                 "(passes=%llu detected=%llu repairs=%llu quarantines=%llu)\n",
                 static_cast<unsigned long long>(scrub.full_passes),
                 static_cast<unsigned long long>(scrub.corruptions_detected),
                 static_cast<unsigned long long>(scrub.repairs),
                 static_cast<unsigned long long>(scrub.quarantines));
    std::filesystem::remove_all(dir);
    return 1;
  }

  // A session over the recovered store must match a failure-free control
  // after every run — at-rest corruption plus a mid-repair crash cost
  // recomputation at most, never correctness.
  const ControlTrace control = run_control(v, opt, bench);
  SliderConfig config = variant_config(v, opt);
  config.scrub_records_per_slide = opt.scrub_budget;
  SliderSession session(engine, memo, bench.job, config);
  std::size_t run_index = 0;
  int failures = 0;
  const auto check = [&]() {
    if (output_bytes(session) != control.outputs[run_index]) {
      std::fprintf(stderr,
                   "bitrot crash: recovered outputs diverged at run %zu\n",
                   run_index);
      ++failures;
    }
    ++run_index;
  };
  session.initial_run(batch_for(bench, opt, opt.window_splits, 0));
  check();
  SplitId next_id = opt.window_splits;
  for (int s = 0; s < opt.slides; ++s) {
    session.slide(opt.slide, batch_for(bench, opt, opt.slide, next_id));
    next_id += opt.slide;
    check();
  }
  if (!memo.scrub_stats().conserved()) {
    std::fprintf(stderr, "bitrot crash: scrub conservation violated after "
                 "recovered replay\n");
    ++failures;
  }
  std::filesystem::remove_all(dir);
  if (failures == 0 && !opt.quiet) {
    std::printf("bitrot crash: victim SIGKILLed mid-repair; recovered %zu "
                "entries (torn=%llu crc_failures=%llu), scrub converged "
                "(detected=%llu repairs=%llu quarantines=%llu), outputs "
                "byte-identical\n",
                recovered,
                static_cast<unsigned long long>(recovery.scan.torn_records),
                static_cast<unsigned long long>(recovery.scan.crc_failures),
                static_cast<unsigned long long>(scrub.corruptions_detected),
                static_cast<unsigned long long>(scrub.repairs),
                static_cast<unsigned long long>(scrub.quarantines));
  }
  return failures;
}

// --postmortem-dir mode: one chaos session armed with the flight recorder
// and a deliberately unmeetable SLO (retry-rate ceiling 0 while chaos
// injects task failures). The run must leave at least one valid *.pm.json
// in `pm_dir` whose fault log attributes the injected chaos — the
// `tools_slider_doctor` ctest then parses it back and checks exactly that.
// With --bitrot the schedule also flips at-rest bits and diverges a
// replica, and the session scrubs as it slides — the dump's fault log
// then carries the bit_rot / scrub notes the doctor's
// --expect-fault=bit_rot gate looks for.
int run_postmortem_scenario(const Options& opt, const std::string& pm_dir) {
  std::filesystem::remove_all(pm_dir);
  std::filesystem::create_directories(pm_dir);
  const auto bench = apps::make_microbenchmark(apps::MicroApp::kHct);
  const Variant& v = kVariants[1];  // folding tree, variable-width window
  const ControlTrace control = run_control(v, opt, bench);

  CostModel cost;
  Cluster cluster(ClusterConfig{.num_machines = opt.machines,
                                .slots_per_machine = 2});
  VanillaEngine engine(cluster, cost);
  // Distinct roots per mode: ctest runs the plain and --bitrot postmortem
  // fixtures concurrently, and they must not remove_all each other's tier.
  const std::filesystem::path tier_dir = scratch_dir(
      opt.bitrot ? "slider_chaos_soak_pm_tier_bitrot"
                 : "slider_chaos_soak_pm_tier");
  std::filesystem::remove_all(tier_dir);
  std::filesystem::create_directories(tier_dir);
  durability::DurableTier tier(tier_dir.string());
  MemoStore memo(cluster, cost);
  memo.attach_durable_tier(&tier);

  robustness::ChaosOptions chaos_options;
  // Front-load the chaos: everything lands in the first half of the
  // control's timeline, so the fault notes precede the dumps.
  chaos_options.horizon = std::max<SimDuration>(control.final_clock * 0.5, 1.0);
  chaos_options.crash_events = 2;
  chaos_options.straggler_events = 2;
  chaos_options.memo_loss_events = 1;
  chaos_options.durable_error_events = 1;
  chaos_options.attempt_failure_prob = 0.25;
  chaos_options.min_live_machines = 2;
  if (opt.bitrot) {
    chaos_options.bit_rot_events = 2;
    chaos_options.replica_divergence_events = 1;
  }
  const robustness::ChaosSchedule schedule =
      robustness::ChaosSchedule::generate(13, chaos_options, opt.machines);
  robustness::ChaosController controller(
      schedule, robustness::ChaosTargets{.cluster = &cluster,
                                         .memo = &memo,
                                         .durable = &tier});

  SliderConfig config = variant_config(v, opt);
  config.fault_provider = &controller;
  config.postmortem_dir = pm_dir;
  if (opt.bitrot) config.scrub_records_per_slide = opt.scrub_budget;
  obs::SloSpec strict;
  strict.name = "no_retries";
  strict.kind = obs::SloKind::kRetryRateCeiling;
  strict.threshold = 0;  // chaos makes this unmeetable by construction
  strict.min_samples = 1;
  config.slos = {strict};
  SliderSession session(engine, memo, bench.job, config);

  session.initial_run(batch_for(bench, opt, opt.window_splits, 0));
  controller.apply_until(session.sim_clock());
  SplitId next_id = opt.window_splits;
  for (int s = 0; s < opt.slides; ++s) {
    session.slide(opt.slide, batch_for(bench, opt, opt.slide, next_id));
    next_id += opt.slide;
    controller.apply_until(session.sim_clock());
  }
  // Drain the scrubber before the final dump so the embedded stats
  // snapshot carries resolved (conserved) scrub counters.
  if (opt.bitrot) {
    memo.scrub_durable(1ull << 20);
    memo.scrub_durable(1ull << 20);
  }
  // Final dump after every chaos event has been applied: the complete
  // fault log travels with it, so the doctor's attribution check does not
  // depend on where the schedule placed the crashes.
  obs::FlightRecorder::DumpContext ctx;
  ctx.session = v.name;
  ctx.sim_time = session.sim_clock();
  const std::vector<obs::SloVerdict> verdicts = session.slo_verdicts();
  ctx.verdicts = &verdicts;
  obs::FlightRecorder::global().dump_now("soak_final", ctx);
  std::filesystem::remove_all(tier_dir);

  std::size_t dumps = 0;
  for (const auto& entry : std::filesystem::directory_iterator(pm_dir)) {
    const std::string p = entry.path().string();
    if (p.size() >= 8 && p.compare(p.size() - 8, 8, ".pm.json") == 0) ++dumps;
  }
  if (dumps == 0) {
    std::fprintf(stderr, "postmortem scenario: no *.pm.json produced in %s\n",
                 pm_dir.c_str());
    return 1;
  }
  const std::uint64_t retries =
      obs::StatsRegistry::global().counter("task.retries").value();
  std::printf("postmortem scenario: %zu dump(s) in %s (%llu retries "
              "injected)\n",
              dumps, pm_dir.c_str(),
              static_cast<unsigned long long>(retries));
  return 0;
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
  opt.bitrot = has_flag(argc, argv, "--bitrot");
  if (const std::string v = arg_value(argc, argv, "--seeds"); !v.empty()) {
    opt.seeds = std::max(1, std::atoi(v.c_str()));
  } else if (opt.bitrot) {
    opt.seeds = 16;  // the bit-rot acceptance bar: >= 16 seeds
  }
  if (const std::string v = arg_value(argc, argv, "--slides"); !v.empty()) {
    opt.slides = std::max(1, std::atoi(v.c_str()));
  }
  if (const std::string v = arg_value(argc, argv, "--machines"); !v.empty()) {
    opt.machines = std::max(3, std::atoi(v.c_str()));
  }
  opt.quiet = has_flag(argc, argv, "--quiet");
  if (has_flag(argc, argv, "--no-report")) opt.report = false;
  if (const std::string phase = arg_value(argc, argv, "--phase");
      phase == "bitrot-victim") {
    return run_bitrot_victim(opt, arg_value(argc, argv, "--dir"));
  }
  if (const std::string v = arg_value(argc, argv, "--postmortem-dir");
      !v.empty()) {
    return run_postmortem_scenario(opt, v);
  }

  // Distinct roots per mode: ctest runs tools_chaos_soak and
  // tools_chaos_soak_bitrot concurrently, and each remove_all's its base.
  const std::filesystem::path base =
      scratch_dir(opt.bitrot ? "slider_chaos_soak_bitrot" : "slider_chaos_soak");
  std::filesystem::remove_all(base);

  const auto hct_bench = apps::make_microbenchmark(apps::MicroApp::kHct);
  const auto flat_bench = apps::make_microbenchmark(apps::MicroApp::kSubStr);
  obs::RobustnessReport totals;
  totals.attempt_cap = 4;  // ChaosOptions default used above
  obs::RunReport report("chaos_soak");
  report.set_param("seeds", static_cast<std::int64_t>(opt.seeds))
      .set_param("slides", static_cast<std::int64_t>(opt.slides))
      .set_param("machines", static_cast<std::int64_t>(opt.machines))
      .set_param("window_splits",
                 static_cast<std::uint64_t>(opt.window_splits))
      .set_param("app", "hct (tree variants), substr (flat tier)");

  int failures = 0;
  durability::ScrubStats grand_scrub;
  std::uint64_t grand_bit_rots = 0;
  std::uint64_t grand_divergences = 0;
  // The robustness section sums the primary chaos runs only. Its registry
  // counters are read as deltas around each of those runs, leaving out the
  // control, tree-twin and replay runs that the registry also counts.
  obs::StatsRegistry& stats = obs::StatsRegistry::global();
  obs::Counter& injected = stats.counter("failures.injected");
  obs::Counter& forced_misses = stats.counter("memo.failure_forced_misses");
  obs::Counter& retries = stats.counter("task.retries");
  std::uint64_t registry_retries = 0;
  for (const Variant& variant : kVariants) {
    const auto& bench = variant.flat ? flat_bench : hct_bench;
    const ControlTrace control = run_control(variant, opt, bench);
    // Flat-vs-tree identity: the same schedule on the tree-forced twin
    // must produce the same bytes after every run — the tier is a pure
    // routing decision, never a semantic one.
    if (variant.flat) {
      const ControlTrace tree_twin =
          run_control(variant, opt, bench, /*force_tree=*/true);
      if (tree_twin.outputs != control.outputs) {
        std::fprintf(stderr,
                     "FAIL %s: flat tier diverged from tree-forced twin\n",
                     variant.name);
        ++failures;
      }
    }
    RunMetrics variant_metrics;
    robustness::ChaosController::Counters variant_chaos;
    durability::ScrubStats variant_scrub;
    bool variant_ok = true;
    for (int s = 0; s < opt.seeds; ++s) {
      const auto seed = static_cast<std::uint64_t>(s) * 7919 + 13;
      const std::filesystem::path dir =
          base / (std::string(variant.name) + "_" + std::to_string(s));
      std::filesystem::create_directories(dir);
      const std::uint64_t injected_before = injected.value();
      const std::uint64_t misses_before = forced_misses.value();
      const std::uint64_t retries_before = retries.value();
      const ChaosOutcome outcome =
          run_chaos(variant, opt, bench, control, seed, dir);
      const std::uint64_t run_injected = injected.value() - injected_before;
      const std::uint64_t run_misses = forced_misses.value() - misses_before;
      const std::uint64_t run_retries = retries.value() - retries_before;
      if (!outcome.ok) {
        std::fprintf(stderr, "FAIL %s seed=%llu: %s\n", variant.name,
                     static_cast<unsigned long long>(seed),
                     outcome.failure.c_str());
        ++failures;
        variant_ok = false;
        std::filesystem::remove_all(dir);
        continue;
      }
      // Replay determinism: the first seed of every variant runs twice;
      // outputs, chaos counters, and the simulated clock must all match.
      if (s == 0) {
        const std::filesystem::path replay_dir =
            base / (std::string(variant.name) + "_replay");
        std::filesystem::create_directories(replay_dir);
        const ChaosOutcome replay =
            run_chaos(variant, opt, bench, control, seed, replay_dir);
        const bool replay_ok =
            replay.ok && replay.final_outputs == outcome.final_outputs &&
            same_counters(replay.chaos, outcome.chaos) &&
            std::bit_cast<std::uint64_t>(replay.final_clock) ==
                std::bit_cast<std::uint64_t>(outcome.final_clock);
        if (!replay_ok) {
          std::fprintf(stderr, "FAIL %s seed=%llu: replay diverged\n",
                       variant.name,
                       static_cast<unsigned long long>(seed));
          ++failures;
          variant_ok = false;
        }
        std::filesystem::remove_all(replay_dir);
      }
      variant_metrics += outcome.metrics;
      totals.failures_injected += run_injected;
      totals.failure_forced_misses += run_misses;
      registry_retries += run_retries;
      variant_chaos.crashes += outcome.chaos.crashes;
      variant_chaos.recoveries += outcome.chaos.recoveries;
      variant_chaos.stragglers += outcome.chaos.stragglers;
      variant_chaos.memo_losses += outcome.chaos.memo_losses;
      variant_chaos.durable_error_windows +=
          outcome.chaos.durable_error_windows;
      variant_chaos.events_applied += outcome.chaos.events_applied;
      variant_chaos.bit_rots += outcome.chaos.bit_rots;
      variant_chaos.replica_divergences += outcome.chaos.replica_divergences;
      variant_scrub += outcome.scrub;
      std::filesystem::remove_all(dir);
    }
    if (!opt.quiet) {
      std::printf(
          "%-20s seeds=%d crashes=%llu retries=%llu failed_attempts=%llu "
          "max_attempts=%llu %s\n",
          variant.name, opt.seeds,
          static_cast<unsigned long long>(variant_chaos.crashes),
          static_cast<unsigned long long>(variant_metrics.task_retries),
          static_cast<unsigned long long>(variant_metrics.failed_attempts),
          static_cast<unsigned long long>(variant_metrics.max_task_attempts),
          variant_ok ? "OK" : "FAIL");
      if (opt.bitrot) {
        std::printf(
            "%-20s   bit_rots=%llu divergences=%llu scrub: verified=%llu "
            "detected=%llu repairs=%llu quarantines=%llu [%s]\n",
            variant.name,
            static_cast<unsigned long long>(variant_chaos.bit_rots),
            static_cast<unsigned long long>(
                variant_chaos.replica_divergences),
            static_cast<unsigned long long>(variant_scrub.records_verified),
            static_cast<unsigned long long>(
                variant_scrub.corruptions_detected),
            static_cast<unsigned long long>(variant_scrub.repairs),
            static_cast<unsigned long long>(variant_scrub.quarantines),
            variant_scrub.conserved() ? "conserved" : "NOT CONSERVED");
      }
    }
    report.add_row()
        .col("variant", variant.name)
        .col("seeds", static_cast<std::int64_t>(opt.seeds))
        .col("crashes", variant_chaos.crashes)
        .col("recoveries", variant_chaos.recoveries)
        .col("stragglers", variant_chaos.stragglers)
        .col("memo_losses", variant_chaos.memo_losses)
        .col("durable_error_windows", variant_chaos.durable_error_windows)
        .col("bit_rots", variant_chaos.bit_rots)
        .col("replica_divergences", variant_chaos.replica_divergences)
        .col("scrub_records_verified", variant_scrub.records_verified)
        .col("scrub_corruptions_detected", variant_scrub.corruptions_detected)
        .col("scrub_repairs", variant_scrub.repairs)
        .col("scrub_quarantines", variant_scrub.quarantines)
        .col("task_attempts", variant_metrics.task_attempts)
        .col("failed_attempts", variant_metrics.failed_attempts)
        .col("task_retries", variant_metrics.task_retries)
        .col("machines_blacklisted", variant_metrics.machines_blacklisted)
        .col("max_task_attempts", variant_metrics.max_task_attempts)
        .col("outputs_identical", variant_ok);
    grand_scrub += variant_scrub;
    grand_bit_rots += variant_chaos.bit_rots;
    grand_divergences += variant_chaos.replica_divergences;
    totals.seeds += static_cast<std::uint64_t>(opt.seeds);
    totals.crashes += variant_chaos.crashes;
    totals.recoveries += variant_chaos.recoveries;
    totals.stragglers += variant_chaos.stragglers;
    totals.memo_losses += variant_chaos.memo_losses;
    totals.durable_error_windows += variant_chaos.durable_error_windows;
    totals.task_attempts += variant_metrics.task_attempts;
    totals.failed_attempts += variant_metrics.failed_attempts;
    totals.task_retries += variant_metrics.task_retries;
    totals.machines_blacklisted += variant_metrics.machines_blacklisted;
    totals.max_attempts_seen =
        std::max(totals.max_attempts_seen,
                 static_cast<std::int64_t>(variant_metrics.max_task_attempts));
  }
  std::filesystem::remove_all(base);

  if (opt.bitrot) {
    // The injected corruption must actually have been seen and resolved:
    // a soak that never detects anything is testing nothing. Fixed seeds
    // make this deterministic.
    if (grand_bit_rots == 0 || grand_divergences == 0) {
      std::fprintf(stderr,
                   "FAIL bitrot soak: no corruption injected (bit_rots=%llu "
                   "divergences=%llu)\n",
                   static_cast<unsigned long long>(grand_bit_rots),
                   static_cast<unsigned long long>(grand_divergences));
      ++failures;
    }
    if (grand_scrub.corruptions_detected == 0) {
      std::fprintf(stderr,
                   "FAIL bitrot soak: corruption injected but the scrubber "
                   "never detected any\n");
      ++failures;
    }
    // On 4 KiB segments the GC's cleaner deletes segments under the rot,
    // and scrub passes must still complete around it.
    if (segments_cleaned() == 0 || grand_scrub.full_passes == 0) {
      std::fprintf(stderr,
                   "FAIL bitrot soak: segments cleaned=%llu, scrub full "
                   "passes=%llu (both must be nonzero)\n",
                   static_cast<unsigned long long>(segments_cleaned()),
                   static_cast<unsigned long long>(grand_scrub.full_passes));
      ++failures;
    }
    // SIGKILL mid-repair + recovery: the capstone scenario.
    failures += run_bitrot_crash_scenario(argv[0], opt);
  }

  // Ledger conservation, now including failure_reexec: per-cause combiner
  // invocations across every control AND chaos run must sum to the
  // aggregate counter.
  const obs::LedgerSnapshot ledger = obs::WorkLedger::global().snapshot();
  const std::uint64_t aggregate =
      stats.counter("tree.combiner_invocations").value();
  if (ledger.total_invocations() != aggregate) {
    std::fprintf(stderr,
                 "FAIL ledger conservation: per-cause sum %llu != aggregate "
                 "%llu\n",
                 static_cast<unsigned long long>(ledger.total_invocations()),
                 static_cast<unsigned long long>(aggregate));
    ++failures;
  }
  // The process-wide scrub counters (slider_scrub_*_total) must conserve
  // too, independently of the per-run stats.
  const std::uint64_t detected =
      stats.counter("scrub.corruptions_detected").value();
  const std::uint64_t repairs = stats.counter("scrub.repairs").value();
  const std::uint64_t quarantines = stats.counter("scrub.quarantines").value();
  if (detected != repairs + quarantines) {
    std::fprintf(stderr,
                 "FAIL scrub counter conservation: detected=%llu != "
                 "repairs=%llu + quarantines=%llu\n",
                 static_cast<unsigned long long>(detected),
                 static_cast<unsigned long long>(repairs),
                 static_cast<unsigned long long>(quarantines));
    ++failures;
  }
  // Both retry counts cover the same runs: the registry's task.retries
  // delta and the runs' RunMetrics must agree.
  if (registry_retries != totals.task_retries) {
    std::fprintf(stderr,
                 "FAIL robustness run set: task.retries delta %llu != "
                 "summed task_retries %llu\n",
                 static_cast<unsigned long long>(registry_retries),
                 static_cast<unsigned long long>(totals.task_retries));
    ++failures;
  }
  totals.outputs_identical = failures == 0;

  if (opt.report) {
    report.set_robustness(totals);
    report.merge_stats(stats.snapshot());
    report.add_note(
        "chaos soak: every variant x seed run under seeded mid-run machine "
        "crashes, stragglers, memo loss, durable write-error windows, and "
        "injected task failures; outputs byte-identical to the failure-free "
        "control, retries within the attempt cap, ledger conserved");
    if (opt.bitrot) {
      report.add_note(
          "bitrot mode: at-rest bit flips + replica divergence injected "
          "continuously, scrubber armed per slide, checksum-verified memo "
          "reads; scrub conservation (detected == repairs + quarantines) "
          "asserted every run, plus a SIGKILL-mid-repair fork whose "
          "recovery converges and matches the control byte for byte");
    }
    const std::string path = report.write();
    if (!path.empty() && !opt.quiet) {
      std::printf("bench report: %s\n", path.c_str());
    }
  }

  if (failures == 0) {
    std::printf("chaos soak: OK (%d variants x %d seeds, %llu failures "
                "injected, %llu retries, outputs byte-identical)\n",
                static_cast<int>(std::size(kVariants)), opt.seeds,
                static_cast<unsigned long long>(totals.failures_injected),
                static_cast<unsigned long long>(totals.task_retries));
    if (opt.bitrot) {
      std::printf("bitrot soak: OK (%llu bit flips + %llu divergences "
                  "injected; scrub verified=%llu detected=%llu repairs=%llu "
                  "quarantines=%llu full_passes=%llu, conserved; %llu "
                  "segments cleaned)\n",
                  static_cast<unsigned long long>(grand_bit_rots),
                  static_cast<unsigned long long>(grand_divergences),
                  static_cast<unsigned long long>(
                      grand_scrub.records_verified),
                  static_cast<unsigned long long>(
                      grand_scrub.corruptions_detected),
                  static_cast<unsigned long long>(grand_scrub.repairs),
                  static_cast<unsigned long long>(grand_scrub.quarantines),
                  static_cast<unsigned long long>(grand_scrub.full_passes),
                  static_cast<unsigned long long>(segments_cleaned()));
    }
    return 0;
  }
  std::fprintf(stderr, "chaos soak: %d FAILURE(S)\n", failures);
  return 1;
}
