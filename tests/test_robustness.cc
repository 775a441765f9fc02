// Chaos engine tests: seeded schedule generation invariants, controller
// event application, per-stage fault plans, and the end-to-end property —
// a session run under chaos produces byte-identical outputs to a
// failure-free control (paper §6 fault tolerance, held continuously).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "apps/microbench.h"
#include "data/serde.h"
#include "durability/durable_tier.h"
#include "durability/fault_injector.h"
#include "durability/recovery.h"
#include "durability/segment_log.h"
#include "observability/work_ledger.h"
#include "robustness/chaos.h"
#include "slider/session.h"
#include "tests/test_util.h"

namespace slider {
namespace {

using robustness::ChaosController;
using robustness::ChaosEvent;
using robustness::ChaosEventType;
using robustness::ChaosOptions;
using robustness::ChaosSchedule;
using robustness::ChaosTargets;
using testing::registry_counter;

// Chaos events the controller applied that break something: each counts
// once in "failures.injected".
std::uint64_t breaking_events(const ChaosController::Counters& c) {
  return c.crashes + c.stragglers + c.memo_losses + c.durable_error_windows +
         c.bit_rots + c.replica_divergences;
}

// --- schedule generation -----------------------------------------------------

TEST(ChaosSchedule, DeterministicForASeed) {
  ChaosOptions options;
  options.horizon = 50.0;
  const ChaosSchedule a = ChaosSchedule::generate(42, options, 6);
  const ChaosSchedule b = ChaosSchedule::generate(42, options, 6);
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].at, b.events()[i].at);
    EXPECT_EQ(a.events()[i].type, b.events()[i].type);
    EXPECT_EQ(a.events()[i].machine, b.events()[i].machine);
    EXPECT_EQ(a.events()[i].factor, b.events()[i].factor);
  }
  // Different seeds draw different timelines.
  const ChaosSchedule c = ChaosSchedule::generate(43, options, 6);
  bool any_diff = c.events().size() != a.events().size();
  for (std::size_t i = 0; !any_diff && i < a.events().size(); ++i) {
    any_diff = a.events()[i].at != c.events()[i].at;
  }
  EXPECT_TRUE(any_diff);
}

TEST(ChaosSchedule, EventsSortedAndWithinHorizon) {
  ChaosOptions options;
  options.horizon = 80.0;
  options.crash_events = 4;
  options.straggler_events = 4;
  options.memo_loss_events = 3;
  options.durable_error_events = 2;
  const ChaosSchedule schedule = ChaosSchedule::generate(7, options, 8);
  EXPECT_FALSE(schedule.events().empty());
  SimDuration last = 0;
  for (const ChaosEvent& event : schedule.events()) {
    EXPECT_GE(event.at, last);
    EXPECT_GE(event.at, 0.0);
    EXPECT_LE(event.at, options.horizon);
    last = event.at;
  }
  EXPECT_FALSE(schedule.to_string().empty());
}

TEST(ChaosSchedule, RespectsLivenessFloorAndProtectsMachine0) {
  ChaosOptions options;
  options.horizon = 100.0;
  options.crash_events = 50;  // way more than the floor can admit at once
  options.min_live_machines = 3;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const ChaosSchedule schedule = ChaosSchedule::generate(seed, options, 5);
    int live = 5;
    for (const ChaosEvent& event : schedule.events()) {
      if (event.type == ChaosEventType::kMachineCrash) {
        EXPECT_NE(event.machine, 0) << "machine 0 must never crash";
        --live;
        EXPECT_GE(live, options.min_live_machines)
            << "seed " << seed << " broke the liveness floor";
      } else if (event.type == ChaosEventType::kMachineRecover) {
        ++live;
      }
    }
  }
}

TEST(ChaosSchedule, AtRestCorruptionDrawsAppendWithoutDisturbingLegacySeeds) {
  ChaosOptions legacy;
  legacy.horizon = 60.0;
  ChaosOptions corrupting = legacy;
  corrupting.bit_rot_events = 3;
  corrupting.replica_divergence_events = 2;
  const ChaosSchedule before = ChaosSchedule::generate(123, legacy, 6);
  const ChaosSchedule after = ChaosSchedule::generate(123, corrupting, 6);

  // The corruption draws are appended after every legacy draw, so
  // filtering them out recovers the legacy timeline bit for bit — old
  // seeds replay identically whether or not the new knobs exist.
  std::vector<ChaosEvent> filtered;
  int bit_rots = 0;
  int divergences = 0;
  for (const ChaosEvent& event : after.events()) {
    if (event.type == ChaosEventType::kBitRot) {
      ++bit_rots;
      EXPECT_NE(event.entropy, 0u);
    } else if (event.type == ChaosEventType::kReplicaDivergence) {
      ++divergences;
      EXPECT_NE(event.entropy, 0u);
    } else {
      filtered.push_back(event);
    }
  }
  EXPECT_EQ(bit_rots, 3);
  EXPECT_EQ(divergences, 2);
  ASSERT_EQ(filtered.size(), before.events().size());
  for (std::size_t i = 0; i < filtered.size(); ++i) {
    EXPECT_EQ(filtered[i].at, before.events()[i].at);
    EXPECT_EQ(filtered[i].type, before.events()[i].type);
    EXPECT_EQ(filtered[i].machine, before.events()[i].machine);
    EXPECT_EQ(filtered[i].factor, before.events()[i].factor);
  }

  // Entropy draws are a pure function of the seed.
  const ChaosSchedule again = ChaosSchedule::generate(123, corrupting, 6);
  ASSERT_EQ(again.events().size(), after.events().size());
  for (std::size_t i = 0; i < after.events().size(); ++i) {
    EXPECT_EQ(again.events()[i].entropy, after.events()[i].entropy);
  }
}

TEST(ChaosController, BitRotFlipsDiskBitAndDivergenceTruncatesOneReplica) {
  const testing::TempDir temp("slider_chaos_bitrot_unit");
  const std::filesystem::path& dir = temp.path;
  durability::DurableTier tier(dir.string());
  for (std::uint64_t k = 1; k <= 12; ++k) {
    ASSERT_EQ(tier.put(k, k, std::string(16, static_cast<char>('a' + k))),
              2u);
  }
  tier.flush();
  const auto segments_of = [&](std::size_t replica) {
    return durability::SegmentLog::list_segments(
        durability::replica_dir(dir.string(), replica));
  };
  const auto bytes_of = [&](const std::vector<std::string>& segments) {
    std::uint64_t total = 0;
    for (const std::string& path : segments) {
      total += durability::FileFaultInjector::file_size(path).value_or(0);
    }
    return total;
  };
  const std::uint64_t before0 = bytes_of(segments_of(0));
  const std::uint64_t before1 = bytes_of(segments_of(1));
  ASSERT_GT(before0, 0u);
  ASSERT_EQ(before0, before1);

  ChaosOptions options;
  options.horizon = 10.0;
  options.crash_events = 0;
  options.straggler_events = 0;
  options.memo_loss_events = 0;
  options.durable_error_events = 0;
  options.bit_rot_events = 1;
  options.replica_divergence_events = 1;
  const ChaosSchedule schedule = ChaosSchedule::generate(5, options, 4);
  ASSERT_EQ(schedule.events().size(), 2u);
  Cluster cluster(ClusterConfig{.num_machines = 4, .slots_per_machine = 2});
  ChaosController controller(
      schedule, ChaosTargets{.cluster = &cluster, .durable = &tier});
  const std::uint64_t injected_before = registry_counter("failures.injected");
  controller.apply_until(options.horizon);

  EXPECT_EQ(controller.counters().bit_rots, 1u);
  EXPECT_EQ(controller.counters().replica_divergences, 1u);
  EXPECT_EQ(registry_counter("failures.injected") - injected_before, 2u);
  // Bit rot preserves sizes; divergence drops exactly one frame from one
  // replica (the newest record, truncated at a frame boundary). The
  // divergence rotates the active segment first, so compare per-replica
  // *.slog byte totals, not per-file sizes.
  const std::uint64_t after0 = bytes_of(segments_of(0));
  const std::uint64_t after1 = bytes_of(segments_of(1));
  EXPECT_EQ(std::max(after0, after1), before0);
  EXPECT_LT(std::min(after0, after1), before0);
}

// --- controller --------------------------------------------------------------

TEST(ChaosController, AppliesEventsInOrderAndTracksCounters) {
  Cluster cluster(ClusterConfig{.num_machines = 4, .slots_per_machine = 2});
  ChaosSchedule schedule;  // hand-built via generate: use a real one
  ChaosOptions options;
  options.horizon = 10.0;
  options.crash_events = 2;
  options.straggler_events = 1;
  options.memo_loss_events = 0;
  options.durable_error_events = 0;
  schedule = ChaosSchedule::generate(11, options, 4);
  ASSERT_FALSE(schedule.events().empty());

  ChaosController controller(schedule, ChaosTargets{.cluster = &cluster});
  const std::uint64_t injected_before = registry_counter("failures.injected");
  const std::size_t applied_half = controller.apply_until(options.horizon / 2);
  const std::size_t applied_rest = controller.apply_until(options.horizon);
  EXPECT_EQ(applied_half + applied_rest, schedule.events().size());
  EXPECT_TRUE(controller.exhausted());
  EXPECT_EQ(controller.counters().events_applied, schedule.events().size());
  // Crashes and straggler onsets are injected failures; recoveries and
  // straggler clears are not.
  EXPECT_GT(breaking_events(controller.counters()), 0u);
  EXPECT_EQ(registry_counter("failures.injected") - injected_before,
            breaking_events(controller.counters()));
  // Crash/recover events balance in the cluster: every crash without a
  // matching applied recover leaves a failed flag.
  int expect_failed = 0;
  for (const ChaosEvent& event : schedule.events()) {
    if (event.type == ChaosEventType::kMachineCrash) ++expect_failed;
    if (event.type == ChaosEventType::kMachineRecover) --expect_failed;
  }
  EXPECT_EQ(cluster.failed_machines(), expect_failed);
}

TEST(ChaosController, StageFaultsTranslateCrashesToStageRelativeTime) {
  Cluster cluster(ClusterConfig{.num_machines = 6, .slots_per_machine = 2});
  ChaosOptions options;
  options.horizon = 100.0;
  options.crash_events = 3;
  options.straggler_events = 0;
  options.memo_loss_events = 0;
  options.durable_error_events = 0;
  const ChaosSchedule schedule = ChaosSchedule::generate(5, options, 6);
  std::vector<ChaosEvent> crashes;
  for (const ChaosEvent& e : schedule.events()) {
    if (e.type == ChaosEventType::kMachineCrash) crashes.push_back(e);
  }
  ASSERT_FALSE(crashes.empty());

  ChaosController controller(schedule, ChaosTargets{.cluster = &cluster});
  const SimDuration stage_start = crashes.front().at / 2;
  const StageFaultPlan plan = controller.stage_faults(stage_start);
  ASSERT_EQ(plan.crashes.size(), crashes.size());
  for (std::size_t i = 0; i < crashes.size(); ++i) {
    EXPECT_EQ(plan.crashes[i].machine, crashes[i].machine);
    EXPECT_DOUBLE_EQ(plan.crashes[i].at,
                     std::max<SimDuration>(0, crashes[i].at - stage_start));
  }
  EXPECT_EQ(plan.max_attempts, options.max_attempts);
  EXPECT_EQ(plan.blacklist_threshold, options.blacklist_threshold);

  // The injected-failure draw is a pure function: two plans for the same
  // stage_start agree on every (task, attempt, machine) triple.
  const StageFaultPlan replay = controller.stage_faults(stage_start);
  ASSERT_TRUE(plan.attempt_fails && replay.attempt_fails);
  for (std::size_t task = 0; task < 16; ++task) {
    for (int attempt = 0; attempt < 3; ++attempt) {
      for (MachineId m = 0; m < 6; ++m) {
        EXPECT_EQ(plan.attempt_fails(task, attempt, m),
                  replay.attempt_fails(task, attempt, m));
      }
    }
  }
}

TEST(ChaosController, MemoLossDropsMemoryWithoutFailingTheMachine) {
  CostModel cost;
  Cluster cluster(ClusterConfig{.num_machines = 3, .slots_per_machine = 1});
  MemoStore memo(cluster, cost);
  const KVTable table =
      KVTable::from_records({{"k", "v"}}, testing::sum_combiner());
  // One entry per machine home (place() is key % n for live clusters).
  for (NodeId id = 0; id < 3; ++id) {
    memo.put(id, std::make_shared<const KVTable>(table));
  }
  const std::uint64_t memory_before = memo.memory_bytes();
  ASSERT_GT(memory_before, 0u);

  ChaosSchedule schedule;  // irrelevant: drive apply() via a tiny schedule
  ChaosOptions options;
  options.horizon = 1.0;
  options.crash_events = 0;
  options.straggler_events = 0;
  options.memo_loss_events = 1;
  options.durable_error_events = 0;
  schedule = ChaosSchedule::generate(3, options, 3);
  ASSERT_EQ(schedule.events().size(), 1u);
  ASSERT_EQ(schedule.events()[0].type, ChaosEventType::kMemoMemoryLoss);

  ChaosController controller(
      schedule, ChaosTargets{.cluster = &cluster, .memo = &memo});
  controller.apply_until(options.horizon);
  EXPECT_EQ(controller.counters().memo_losses, 1u);
  // The victim machine is alive again (transient loss, not a failure)...
  EXPECT_EQ(cluster.failed_machines(), 0);
  // ...but its memory-tier copy is gone; the other machines kept theirs.
  EXPECT_LT(memo.memory_bytes(), memory_before);
  EXPECT_GT(memo.memory_bytes(), 0u);
  // The entry itself survives (persistent replicas).
  const MachineId victim = schedule.events()[0].machine;
  const MemoReadResult read = memo.get(static_cast<NodeId>(victim), 0);
  EXPECT_TRUE(read.found);
}

TEST(ChaosController, DurableErrorWindowDegradesAndDrains) {
  namespace fs = std::filesystem;
  const testing::TempDir temp("slider_chaos_durable_test");
  const fs::path& dir = temp.path;

  CostModel cost;
  Cluster cluster(ClusterConfig{.num_machines = 3, .slots_per_machine = 1});
  durability::DurableTier tier(dir.string());
  MemoStore memo(cluster, cost);
  memo.attach_durable_tier(&tier);

  ChaosOptions options;
  options.horizon = 10.0;
  options.crash_events = 0;
  options.straggler_events = 0;
  options.memo_loss_events = 0;
  options.durable_error_events = 1;
  const ChaosSchedule schedule = ChaosSchedule::generate(9, options, 3);
  ASSERT_EQ(schedule.events().size(), 2u);  // onset + clear
  const SimDuration onset = schedule.events()[0].at;
  const SimDuration clear = schedule.events()[1].at;

  ChaosController controller(
      schedule,
      ChaosTargets{.cluster = &cluster, .memo = &memo, .durable = &tier});

  const KVTable table =
      KVTable::from_records({{"key", "value"}}, testing::sum_combiner());
  const std::uint64_t injected_before = registry_counter("failures.injected");
  const std::uint64_t intervals_before =
      registry_counter("durability.degraded_intervals");
  controller.apply_until(onset);  // error window open: every replica rejects
  memo.put(100, std::make_shared<const KVTable>(table));
  EXPECT_TRUE(memo.durable_degraded());
  EXPECT_GT(memo.degraded_backlog(), 0u);
  EXPECT_FALSE(memo.persisted_durably(100));

  controller.apply_until(clear);  // window closes: forced drain
  EXPECT_FALSE(memo.durable_degraded());
  EXPECT_EQ(memo.degraded_backlog(), 0u);
  EXPECT_TRUE(memo.persisted_durably(100));
  const MemoStoreStats stats = memo.stats();
  EXPECT_GE(stats.degraded_intervals, 1u);
  EXPECT_GE(stats.degraded_writes_buffered, 1u);
  // The onset counts once as an injected failure, and each degraded
  // interval the store entered counts once.
  EXPECT_EQ(controller.counters().durable_error_windows, 1u);
  EXPECT_EQ(registry_counter("failures.injected") - injected_before,
            breaking_events(controller.counters()));
  EXPECT_EQ(registry_counter("durability.degraded_intervals") -
                intervals_before,
            stats.degraded_intervals);
}

// --- end-to-end: chaos run == failure-free control ---------------------------

std::vector<SplitPtr> batch_for(const apps::MicroBenchmark& bench,
                                std::size_t count, SplitId first_id) {
  Rng rng(555 + first_id);
  auto records =
      apps::generate_input(bench.app, count * 20, rng, first_id * 1'000'000);
  return make_splits(std::move(records), 20, first_id);
}

std::vector<std::string> output_bytes(const SliderSession& session) {
  std::vector<std::string> out;
  for (const KVTable& table : session.output()) {
    out.push_back(serialize_table(table));
  }
  return out;
}

// Serves `inner`'s plans unchanged while counting the task-attempt
// failures they inject, so a test knows the exact number to expect.
class CountingFaultProvider final : public StageFaultProvider {
 public:
  explicit CountingFaultProvider(const StageFaultProvider& inner)
      : inner_(inner) {}

  StageFaultPlan stage_faults(SimDuration stage_start) const override {
    StageFaultPlan plan = inner_.stage_faults(stage_start);
    if (plan.attempt_fails) {
      plan.attempt_fails = [this, draw = std::move(plan.attempt_fails)](
                               std::size_t task, int attempt,
                               MachineId machine) {
        const bool fails = draw(task, attempt, machine);
        if (fails) ++injected_;
        return fails;
      };
    }
    return plan;
  }

  std::uint64_t injected() const { return injected_; }

 private:
  const StageFaultProvider& inner_;
  mutable std::uint64_t injected_ = 0;
};

TEST(ChaosEndToEnd, SessionOutputsByteIdenticalToControlAndCapRespected) {
  const auto bench = apps::make_microbenchmark(apps::MicroApp::kHct);
  constexpr std::size_t kWindow = 12;
  constexpr std::size_t kSlide = 3;
  constexpr int kSlides = 4;

  SliderConfig config;
  config.mode = WindowMode::kVariableWidth;
  config.tree_kind = TreeKind::kFolding;
  config.bucket_width = kSlide;

  // Control: failure-free.
  CostModel cost;
  std::vector<std::vector<std::string>> control_outputs;
  SimDuration control_clock = 0;
  {
    Cluster cluster(ClusterConfig{.num_machines = 5, .slots_per_machine = 2});
    VanillaEngine engine(cluster, cost);
    MemoStore memo(cluster, cost);
    SliderSession session(engine, memo, bench.job, config);
    session.initial_run(batch_for(bench, kWindow, 0));
    control_outputs.push_back(output_bytes(session));
    SplitId next = kWindow;
    for (int s = 0; s < kSlides; ++s) {
      session.slide(kSlide, batch_for(bench, kSlide, next));
      next += kSlide;
      control_outputs.push_back(output_bytes(session));
    }
    control_clock = session.sim_clock();
  }

  // Chaos: same inputs under seeded faults.
  const std::uint64_t injected_before = registry_counter("failures.injected");
  const std::uint64_t retries_before = registry_counter("task.retries");
  const std::uint64_t blacklisted_before =
      registry_counter("machines.blacklisted");
  Cluster cluster(ClusterConfig{.num_machines = 5, .slots_per_machine = 2});
  VanillaEngine engine(cluster, cost);
  MemoStore memo(cluster, cost);
  ChaosOptions options;
  options.horizon = std::max<SimDuration>(control_clock, 1.0);
  options.crash_events = 2;
  options.straggler_events = 2;
  options.memo_loss_events = 2;
  options.durable_error_events = 0;  // no tier attached in this test
  options.attempt_failure_prob = 0.10;
  const ChaosSchedule schedule = ChaosSchedule::generate(17, options, 5);
  ChaosController controller(
      schedule, ChaosTargets{.cluster = &cluster, .memo = &memo});
  const CountingFaultProvider provider(controller);
  SliderConfig chaos_config = config;
  chaos_config.fault_provider = &provider;
  SliderSession session(engine, memo, bench.job, chaos_config);

  RunMetrics total;
  total += session.initial_run(batch_for(bench, kWindow, 0));
  EXPECT_EQ(output_bytes(session), control_outputs[0]);
  controller.apply_until(session.sim_clock());
  SplitId next = kWindow;
  for (int s = 0; s < kSlides; ++s) {
    total += session.slide(kSlide, batch_for(bench, kSlide, next));
    next += kSlide;
    EXPECT_EQ(output_bytes(session), control_outputs[static_cast<std::size_t>(s) + 1]);
    controller.apply_until(session.sim_clock());
  }

  // Retries stay within the attempt cap.
  EXPECT_LE(total.max_task_attempts,
            static_cast<std::uint64_t>(options.max_attempts));
  // Chaos actually happened, and each fault counted once: the applied
  // events plus the attempt failures the stage plans injected, and every
  // retry and blacklist the runs report.
  EXPECT_GT(controller.counters().events_applied, 0u);
  EXPECT_GT(provider.injected(), 0u);
  EXPECT_EQ(registry_counter("failures.injected") - injected_before,
            breaking_events(controller.counters()) + provider.injected());
  EXPECT_GT(total.task_retries, 0u);
  EXPECT_EQ(registry_counter("task.retries") - retries_before,
            total.task_retries);
  EXPECT_EQ(registry_counter("machines.blacklisted") - blacklisted_before,
            total.machines_blacklisted);
}

TEST(ChaosEndToEnd, FailureReexecBilledWhenEveryReplicaDies) {
  const auto bench = apps::make_microbenchmark(apps::MicroApp::kHct);
  CostModel cost;
  Cluster cluster(ClusterConfig{.num_machines = 4, .slots_per_machine = 2});
  VanillaEngine engine(cluster, cost);
  MemoStore memo(cluster, cost);

  SliderConfig config;
  config.mode = WindowMode::kVariableWidth;
  config.tree_kind = TreeKind::kFolding;
  SliderSession session(engine, memo, bench.job, config);
  session.initial_run(batch_for(bench, 12, 0));
  const std::vector<std::string> expected_before = output_bytes(session);

  // Kill every machine: memory homes AND both simulated replicas of every
  // entry are on failed machines for the duration of the next slide.
  const obs::LedgerSnapshot before = obs::WorkLedger::global().snapshot();
  const std::uint64_t forced_before =
      registry_counter("memo.failure_forced_misses");
  const std::uint64_t store_forced_before =
      memo.stats().failure_forced_misses;
  for (MachineId m = 0; m < cluster.num_machines(); ++m) {
    cluster.fail_machine(m);
  }
  memo.drop_memory_on_failed();

  // The slide reuses nodes with zero intact copies: every reuse degrades
  // to a recompute billed as failure_reexec — never a wrong answer or an
  // abort (a control session over the same schedule agrees byte-for-byte).
  session.slide(3, batch_for(bench, 3, 12));
  for (MachineId m = 0; m < cluster.num_machines(); ++m) {
    cluster.recover_machine(m);
  }
  const obs::LedgerSnapshot after = obs::WorkLedger::global().snapshot();
  const std::uint64_t forced =
      memo.stats().failure_forced_misses - store_forced_before;
  EXPECT_GT(forced, 0u);
  EXPECT_EQ(registry_counter("memo.failure_forced_misses") - forced_before,
            forced);
  EXPECT_GT(after.total_for(obs::WorkCause::kFailureReexec).combiner_invocations,
            before.total_for(obs::WorkCause::kFailureReexec).combiner_invocations);

  // A control session fed the identical schedule (no failures) agrees on
  // every output byte: the degradation recomputed, it did not corrupt.
  Cluster control_cluster(
      ClusterConfig{.num_machines = 4, .slots_per_machine = 2});
  VanillaEngine control_engine(control_cluster, cost);
  MemoStore control_memo(control_cluster, cost);
  SliderSession control(control_engine, control_memo, bench.job, config);
  control.initial_run(batch_for(bench, 12, 0));
  EXPECT_EQ(output_bytes(control), expected_before);
  control.slide(3, batch_for(bench, 3, 12));
  EXPECT_EQ(output_bytes(session), output_bytes(control));
}

}  // namespace
}  // namespace slider
