// Crash recovery end to end: a Slider session is SIGKILLed in the middle
// of a slide — mid-write, via a fault-injector subclass that pulls the
// trigger from inside the durable tier's write path — and a fresh process
// recovers the memo from the replicated segment logs, restores the session
// from the last checkpoint manifest, replays the missed slides, and
// verifies the output is byte-identical to recomputing from scratch.
//
// Run:  ./build/examples/crash_recovery
//
// The binary orchestrates itself: with no arguments it forks a victim
// child (`--phase=victim`), waits for it to die of SIGKILL, then performs
// the recovery in-process. The phases can also be run by hand:
//
//   ./crash_recovery --phase=victim  --dir=/tmp/slider-crash
//   ./crash_recovery --phase=recover --dir=/tmp/slider-crash

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "apps/microbench.h"
#include "durability/durable_tier.h"
#include "durability/fault_injector.h"
#include "observability/run_report.h"
#include "observability/stats.h"
#include "slider/session.h"

namespace {

using namespace slider;

constexpr std::size_t kWindowSplits = 16;
constexpr std::size_t kRecordsPerSplit = 30;
constexpr std::size_t kSlide = 4;
constexpr int kTotalSlides = 6;
constexpr int kCrashSlide = 4;  // the victim dies inside this slide

// The final window must consist entirely of slide-generated batches (the
// initial window is generated as one big batch with a different RNG seed,
// so the verifier could not regenerate it batch-by-batch).
static_assert(kTotalSlides * kSlide >= kWindowSplits,
              "final window must have slid past the initial batch");
static_assert(kWindowSplits % kSlide == 0, "batches must tile the window");

// A FaultInjector that SIGKILLs the process once a byte budget runs out:
// the closest a test gets to a machine dying mid-write. Because it fires
// from inside SegmentLog's write path, the log is left with a genuinely
// torn record for recovery to cope with.
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

// Deterministic inputs: slide k always produces the same splits, so the
// recovery process can regenerate the stream the victim was consuming.
std::vector<SplitPtr> batch_for(const apps::MicroBenchmark& bench,
                                std::size_t count, SplitId first_id) {
  Rng rng(4242 + first_id);
  auto records = apps::generate_input(bench.app, count * kRecordsPerSplit,
                                      rng, first_id * 1'000'000);
  return make_splits(std::move(records), kRecordsPerSplit, first_id);
}

SliderConfig session_config() {
  SliderConfig config;
  config.mode = WindowMode::kFixedWidth;
  config.bucket_width = kSlide;
  return config;
}

int run_victim(const std::string& dir) {
  const auto bench = apps::make_microbenchmark(apps::MicroApp::kHct);
  CostModel cost;
  Cluster cluster(ClusterConfig{.num_machines = 8, .slots_per_machine = 2});
  VanillaEngine engine(cluster, cost);

  durability::DurableTier tier(dir + "/memo");
  MemoStore memo(cluster, cost);
  memo.attach_durable_tier(&tier);
  SliderSession session(engine, memo, bench.job, session_config());

  KillAfterBytes killer(20'000);
  session.initial_run(batch_for(bench, kWindowSplits, 0));
  session.checkpoint(dir + "/checkpoint");
  memo.flush_durable();

  SplitId next_id = kWindowSplits;
  for (int slide = 1; slide <= kTotalSlides; ++slide) {
    if (slide == kCrashSlide) {
      // Die mid-slide: the injector SIGKILLs us from inside a durable
      // append somewhere in this slide's contraction.
      tier.set_fault_injector(0, &killer);
      killer.arm();
    }
    session.slide(kSlide, batch_for(bench, kSlide, next_id));
    next_id += kSlide;
    session.checkpoint(dir + "/checkpoint");
    memo.flush_durable();
  }
  // Only reachable if the injector never fired — that is a failure of the
  // experiment, not a success.
  std::fprintf(stderr, "victim: survived slide %d; injector never fired\n",
               kCrashSlide);
  return 2;
}

int run_recovery(const std::string& dir) {
  const auto bench = apps::make_microbenchmark(apps::MicroApp::kHct);
  CostModel cost;
  Cluster cluster(ClusterConfig{.num_machines = 8, .slots_per_machine = 2});
  VanillaEngine engine(cluster, cost);

  // 1. Recover the memo index from the replicated logs (torn tails from
  //    the SIGKILL are repaired and counted here).
  durability::DurableTier tier(dir + "/memo");
  MemoStore memo(cluster, cost);
  memo.attach_durable_tier(&tier);
  durability::RecoveryStats recovery;
  const std::size_t recovered = memo.restore_from_durable(&recovery);
  std::printf("recovered %zu memo entries in %.2f ms "
              "(torn=%llu, crc_failures=%llu)\n",
              recovered, recovery.wall_seconds * 1e3,
              static_cast<unsigned long long>(recovery.scan.torn_records),
              static_cast<unsigned long long>(recovery.scan.crc_failures));

  // 2. Restore the session from the last durable checkpoint.
  SliderSession session(engine, memo, bench.job, session_config());
  if (!session.restore(dir + "/checkpoint")) {
    std::fprintf(stderr, "recover: session restore failed\n");
    return 1;
  }

  // 3. Work out where the victim died from the restored window (inputs
  //    are deterministic), then replay the missed slides incrementally.
  const SplitId last_id = session.window().back()->id;
  int completed = static_cast<int>((last_id + 1 - kWindowSplits) / kSlide);
  std::printf("restored at slide %d of %d; replaying the rest\n", completed,
              kTotalSlides);
  SplitId next_id = last_id + 1;
  for (int slide = completed + 1; slide <= kTotalSlides; ++slide) {
    session.slide(kSlide, batch_for(bench, kSlide, next_id));
    next_id += kSlide;
  }

  // 4. Verify against a from-scratch run over the final window.
  std::vector<SplitPtr> window;
  const SplitId first_live = next_id - kWindowSplits;
  for (SplitId id = first_live; id < next_id; id += kSlide) {
    for (auto& split : batch_for(bench, kSlide, id)) {
      window.push_back(std::move(split));
    }
  }
  const JobResult scratch = engine.run(bench.job, window);
  if (session.output().size() != scratch.partition_outputs.size()) {
    std::fprintf(stderr, "recover: partition count mismatch\n");
    return 1;
  }
  for (std::size_t p = 0; p < session.output().size(); ++p) {
    if (!(session.output()[p] == scratch.partition_outputs[p])) {
      std::fprintf(stderr, "recover: partition %zu differs from scratch\n",
                   p);
      return 1;
    }
  }
  std::printf("restored session output matches from-scratch recompute "
              "across %zu partitions\n", session.output().size());

  // 5. Machine-readable record of the experiment (BENCH_crash_recovery.json)
  //    with the robustness section: this example is the process-death end of
  //    the fault-tolerance story (tools/chaos_soak covers the simulated
  //    mid-run failures).
  obs::StatsRegistry& stats = obs::StatsRegistry::global();
  obs::RunReport report("crash_recovery");
  report.set_param("app", "hct")
      .set_param("window_splits", static_cast<std::uint64_t>(kWindowSplits))
      .set_param("slide", static_cast<std::uint64_t>(kSlide))
      .set_param("crash_slide", static_cast<std::int64_t>(kCrashSlide))
      .set_param("recovered_entries", static_cast<std::uint64_t>(recovered))
      .set_param("torn_records", recovery.scan.torn_records)
      .set_param("crc_failures", recovery.scan.crc_failures);
  obs::RobustnessReport robustness;
  robustness.seeds = 1;  // one deterministic SIGKILL experiment
  robustness.crashes = 1;
  robustness.recoveries = 1;
  robustness.failures_injected = stats.counter("failures.injected").value();
  robustness.task_retries = stats.counter("task.retries").value();
  robustness.machines_blacklisted =
      stats.counter("machines.blacklisted").value();
  robustness.failure_forced_misses =
      stats.counter("memo.failure_forced_misses").value();
  robustness.outputs_identical = true;  // verified above, else we returned 1
  report.set_robustness(robustness);
  report.add_note("paper §6: SIGKILL mid-slide, recover from replicated "
                  "segment logs + checkpoint, output byte-identical to "
                  "from-scratch recompute");
  const std::string written = report.write();
  if (!written.empty()) std::printf("bench report: %s\n", written.c_str());
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

}  // namespace

int main(int argc, char** argv) {
  const std::string phase = arg_value(argc, argv, "--phase");
  std::string dir = arg_value(argc, argv, "--dir");

  if (phase == "victim") return run_victim(dir);
  if (phase == "recover") return run_recovery(dir);

  // Orchestrator: fork the victim, expect it to die of SIGKILL mid-slide,
  // then recover in this process.
  if (dir.empty()) {
    dir = (std::filesystem::temp_directory_path() / "slider_crash_recovery")
              .string();
  }
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    return 1;
  }
  if (pid == 0) {
    const std::string dir_flag = "--dir=" + dir;
    execl(argv[0], argv[0], "--phase=victim", dir_flag.c_str(),
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
                 "victim did not die of SIGKILL (status=%d); aborting\n",
                 status);
    return 1;
  }
  std::printf("victim killed mid-slide (SIGKILL); starting recovery\n");

  const int rc = run_recovery(dir);
  std::filesystem::remove_all(dir);
  if (rc == 0) std::printf("crash recovery: OK\n");
  return rc;
}
