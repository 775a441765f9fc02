// Scheduling-policy behaviour: the properties behind Table 1, expressed as
// deterministic tests over the stage simulator and full Slider sessions.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "apps/microbench.h"
#include "slider/session.h"
#include "tests/test_util.h"

namespace slider {
namespace {

using testing::registry_counter;

std::vector<SimTask> homed_tasks(int count, SimDuration duration,
                                 MachineId home, SimDuration penalty) {
  return std::vector<SimTask>(
      static_cast<std::size_t>(count),
      SimTask{.duration = duration, .preferred = home,
              .migration_penalty = penalty});
}

TEST(Schedulers, MemoAwareBeatsFirstFreeWhenFetchesAreExpensive) {
  Cluster cluster(ClusterConfig{.num_machines = 4, .slots_per_machine = 2});
  StageSimulator sim(cluster);
  // 8 tasks homed across machines, with a fetch penalty comparable to the
  // task itself: locality-obliviousness is costly.
  std::vector<SimTask> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back(SimTask{.duration = 1.0,
                            .preferred = static_cast<MachineId>(i % 4),
                            .migration_penalty = 0.8});
  }
  const StageResult first_free =
      sim.run_stage(tasks, SchedulePolicy::kFirstFree);
  const StageResult memo_aware =
      sim.run_stage(tasks, SchedulePolicy::kPreferredOnly);
  EXPECT_LT(memo_aware.work, first_free.work);
  EXPECT_LE(memo_aware.makespan, first_free.makespan + 1e-9);
}

TEST(Schedulers, StrictMemoAwareSuffersUnderStragglers) {
  Cluster cluster(ClusterConfig{.num_machines = 4, .slots_per_machine = 2});
  cluster.set_straggler(1, 8.0);
  StageSimulator sim(cluster);
  const auto tasks = homed_tasks(4, 1.0, /*home=*/1, /*penalty=*/0.2);
  const StageResult strict =
      sim.run_stage(tasks, SchedulePolicy::kPreferredOnly);
  const StageResult hybrid = sim.run_stage(tasks, SchedulePolicy::kHybrid);
  // Strict waits on the straggler (8x tasks, serialized on 2 slots);
  // hybrid migrates and pays only the fetch penalty.
  EXPECT_GT(strict.makespan, 3.0 * hybrid.makespan);
  EXPECT_GT(hybrid.migrations, 0u);
}

TEST(Schedulers, HybridIsNeverMuchWorseThanEitherExtreme) {
  Cluster cluster(ClusterConfig{.num_machines = 6, .slots_per_machine = 2});
  cluster.set_straggler(2, 4.0);
  StageSimulator sim(cluster);
  Rng rng(3);
  std::vector<SimTask> tasks;
  for (int i = 0; i < 24; ++i) {
    tasks.push_back(
        SimTask{.duration = 0.5 + rng.next_double(),
                .preferred = static_cast<MachineId>(rng.next_below(6)),
                .migration_penalty = 0.3 * rng.next_double()});
  }
  const double first_free =
      sim.run_stage(tasks, SchedulePolicy::kFirstFree).makespan;
  const double strict =
      sim.run_stage(tasks, SchedulePolicy::kPreferredOnly).makespan;
  const double hybrid = sim.run_stage(tasks, SchedulePolicy::kHybrid).makespan;
  EXPECT_LE(hybrid, 1.15 * std::min(first_free, strict));
}

TEST(Schedulers, SessionHybridNoSlowerThanFirstFreeUnderStragglers) {
  const auto bench = apps::make_microbenchmark(apps::MicroApp::kMatrix);
  JobSpec job = bench.job;
  job.num_partitions = 12;

  auto total_time = [&](SchedulePolicy policy) {
    CostModel cost;
    cost.task_overhead_sec = 0.01;
    Cluster cluster(ClusterConfig{.num_machines = 12, .slots_per_machine = 2});
    cluster.set_straggler(2, 3.0);
    cluster.set_straggler(7, 4.0);
    VanillaEngine engine(cluster, cost);
    MemoStore memo(cluster, cost);

    SliderConfig config;
    config.mode = WindowMode::kFixedWidth;
    config.bucket_width = 2;
    config.reduce_policy = policy;
    SliderSession session(engine, memo, job, config);

    Rng rng(21);
    auto splits = make_splits(
        apps::generate_input(apps::MicroApp::kMatrix, 40 * 40, rng, 0), 40, 0);
    session.initial_run(splits);
    SimDuration total = 0;
    SplitId next_id = 40;
    for (int i = 0; i < 6; ++i) {
      auto added = make_splits(
          apps::generate_input(apps::MicroApp::kMatrix, 2 * 40, rng,
                               next_id * 1'000'000),
          40, next_id);
      next_id += 2;
      total += session.slide(2, std::move(added)).time;
    }
    return total;
  };

  const SimDuration hybrid = total_time(SchedulePolicy::kHybrid);
  const SimDuration hadoop = total_time(SchedulePolicy::kFirstFree);
  // Data-intensive app with memoized state: locality + straggler evasion
  // must not lose to locality-oblivious placement.
  EXPECT_LE(hybrid, hadoop * 1.02);
}

TEST(Schedulers, TimelineRecordsEveryPlacementInScheduleOrder) {
  Cluster cluster(ClusterConfig{.num_machines = 4, .slots_per_machine = 2});
  StageSimulator sim(cluster);
  const auto tasks = homed_tasks(6, 1.0, /*home=*/2, /*penalty=*/0.1);
  StageTimeline timeline;
  const StageResult result =
      sim.run_stage(tasks, SchedulePolicy::kFirstFree, {}, &timeline);
  ASSERT_EQ(timeline.size(), tasks.size());
  std::vector<bool> seen(tasks.size(), false);
  for (const TaskPlacement& placement : timeline) {
    ASSERT_LT(placement.task, tasks.size());
    EXPECT_FALSE(seen[placement.task]) << "task placed twice";
    seen[placement.task] = true;
    EXPECT_GE(placement.machine, 0);
    EXPECT_LT(placement.machine, 4);
    EXPECT_GE(placement.start, 0.0);
    EXPECT_LT(placement.start, placement.end);
    EXPECT_LE(placement.end, result.makespan + 1e-9);
    // First-free ignores the memo home; off-home placements are flagged.
    EXPECT_EQ(placement.migrated, placement.machine != 2);
  }
}

// The Table-1 scenario, reconstructed from the timeline: a straggler holds
// the memoized state, and the hybrid scheduler's migrations off it must be
// visible per task (the paper's scheduler timeline debugging story, §6).
TEST(Schedulers, TimelineShowsHybridMigratingOffStraggler) {
  Cluster cluster(ClusterConfig{.num_machines = 4, .slots_per_machine = 2});
  cluster.set_straggler(1, 8.0);
  StageSimulator sim(cluster);
  const auto tasks = homed_tasks(6, 1.0, /*home=*/1, /*penalty=*/0.2);
  StageTimeline timeline;
  const StageResult result =
      sim.run_stage(tasks, SchedulePolicy::kHybrid, {}, &timeline);
  ASSERT_EQ(timeline.size(), tasks.size());
  std::size_t migrated_count = 0;
  for (const TaskPlacement& placement : timeline) {
    if (placement.migrated) {
      ++migrated_count;
      EXPECT_NE(placement.machine, 1)
          << "a migrated task must have left its home machine";
    } else {
      EXPECT_EQ(placement.machine, 1);
    }
  }
  EXPECT_GT(migrated_count, 0u);
  EXPECT_EQ(migrated_count, result.migrations);
}

TEST(Schedulers, MapStagePrefersSplitLocality) {
  CostModel cost;
  Cluster cluster(ClusterConfig{.num_machines = 4, .slots_per_machine = 2});
  VanillaEngine engine(cluster, cost);

  // All splits homed by hash; with as many slots as tasks, every map task
  // should run locally (no penalty in the stage work).
  JobSpec job = apps::make_microbenchmark(apps::MicroApp::kHct).job;
  Rng rng(5);
  auto splits = make_splits(
      apps::generate_input(apps::MicroApp::kHct, 8 * 10, rng, 0), 10, 0);
  const auto stage = engine.run_map_stage(job, splits);

  SimDuration nominal = 0;
  for (const auto& split : splits) {
    nominal += cost.task_overhead_sec + cost.disk_read(split->byte_size);
  }
  // Work should be close to the nominal local cost: no big fetch premium.
  EXPECT_LT(stage.sim.work, nominal * 1.6);
}

// --- mid-stage failures (fault-aware scheduling path) ------------------------

TEST(SchedulerFaults, CrashKillsRunningAttemptAndRetriesWithBackoff) {
  // Worked example: 2 machines x 1 slot, one task of duration 1.0, machine
  // 0 crashes at t=0.5 mid-attempt. The attempt is killed there (billing
  // the partial 0.5 of work), and the retry becomes ready after the
  // exponential backoff (base * 2^0 = 0.05), landing on machine 1.
  Cluster cluster(ClusterConfig{.num_machines = 2, .slots_per_machine = 1});
  StageSimulator sim(cluster);
  const std::vector<SimTask> tasks{SimTask{.duration = 1.0}};
  StageFaultPlan plan;
  plan.crashes.push_back({.machine = 0, .at = 0.5});
  StageTimeline timeline;
  const std::uint64_t retries_before = registry_counter("task.retries");
  const std::uint64_t injected_before = registry_counter("failures.injected");
  const StageResult result = sim.run_stage(
      tasks, SchedulePolicy::kFirstFree, HybridOptions{}, &timeline, &plan);

  EXPECT_EQ(result.attempts, 2u);
  EXPECT_EQ(result.failed_attempts, 1u);
  EXPECT_EQ(result.task_retries, 1u);
  // The retry counts once; a crash kill is not an injected failure.
  EXPECT_EQ(registry_counter("task.retries") - retries_before, 1u);
  EXPECT_EQ(registry_counter("failures.injected"), injected_before);
  EXPECT_EQ(result.max_attempts_seen, 2);
  EXPECT_NEAR(result.work, 1.5, 1e-9);      // 0.5 partial + 1.0 retry
  EXPECT_NEAR(result.makespan, 1.55, 1e-9); // 0.5 kill + 0.05 backoff + 1.0

  ASSERT_EQ(timeline.size(), 2u);
  EXPECT_EQ(timeline[0].machine, 0);
  EXPECT_EQ(timeline[0].attempt, 0);
  EXPECT_TRUE(timeline[0].failed);
  EXPECT_NEAR(timeline[0].end, 0.5, 1e-9);  // frozen at the crash instant
  EXPECT_EQ(timeline[1].machine, 1);
  EXPECT_EQ(timeline[1].attempt, 1);
  EXPECT_FALSE(timeline[1].failed);
  EXPECT_NEAR(timeline[1].start, 0.55, 1e-9);
  EXPECT_NEAR(timeline[1].end, 1.55, 1e-9);
}

TEST(SchedulerFaults, InjectedFailuresBlacklistRepeatOffender) {
  Cluster cluster(ClusterConfig{.num_machines = 2, .slots_per_machine = 2});
  StageSimulator sim(cluster);
  const auto tasks = homed_tasks(4, 1.0, /*home=*/0, /*penalty=*/0.0);
  StageFaultPlan plan;
  plan.blacklist_threshold = 3;
  plan.max_attempts = 6;
  plan.attempt_fails = [](std::size_t, int, MachineId machine) {
    return machine == 0;  // machine 0 fails every attempt it hosts
  };
  StageTimeline timeline;
  const std::uint64_t retries_before = registry_counter("task.retries");
  const std::uint64_t injected_before = registry_counter("failures.injected");
  const std::uint64_t blacklisted_before =
      registry_counter("machines.blacklisted");
  const StageResult result = sim.run_stage(
      tasks, SchedulePolicy::kPreferredOnly, HybridOptions{}, &timeline, &plan);

  // Machine 0 accumulates blacklist_threshold strikes, gets banned for the
  // rest of the stage, and every task still terminates on machine 1.
  EXPECT_EQ(result.machines_blacklisted, 1);
  EXPECT_GE(result.failed_attempts, 3u);
  EXPECT_EQ(result.task_retries, result.failed_attempts);
  // No crashes in the plan: every failed attempt was injected, and each
  // event counts once process-wide.
  EXPECT_EQ(registry_counter("task.retries") - retries_before,
            result.task_retries);
  EXPECT_EQ(registry_counter("failures.injected") - injected_before,
            result.failed_attempts);
  EXPECT_EQ(registry_counter("machines.blacklisted") - blacklisted_before,
            1u);
  EXPECT_LE(result.max_attempts_seen, plan.max_attempts);
  std::vector<bool> done(tasks.size(), false);
  for (const TaskPlacement& p : timeline) {
    if (p.failed) {
      EXPECT_EQ(p.machine, 0) << "only machine 0 draws injected failures";
    } else {
      EXPECT_EQ(p.machine, 1);
      done[p.task] = true;
    }
  }
  EXPECT_TRUE(std::all_of(done.begin(), done.end(), [](bool b) { return b; }));
}

TEST(SchedulerFaults, DeadMachinesAreNeverUsed) {
  Cluster cluster(ClusterConfig{.num_machines = 3, .slots_per_machine = 1});
  StageSimulator sim(cluster);
  const auto tasks = homed_tasks(6, 1.0, /*home=*/0, /*penalty=*/0.1);
  StageFaultPlan plan;
  plan.dead_machines = {0, 2};
  StageTimeline timeline;
  const StageResult result = sim.run_stage(
      tasks, SchedulePolicy::kHybrid, HybridOptions{}, &timeline, &plan);
  ASSERT_EQ(timeline.size(), tasks.size());  // nothing failed, one per task
  for (const TaskPlacement& p : timeline) {
    EXPECT_EQ(p.machine, 1) << "dead machines must never host an attempt";
  }
  EXPECT_EQ(result.failed_attempts, 0u);
  // 6 serialized tasks on the single surviving slot, each paying the
  // off-preferred fetch penalty.
  EXPECT_NEAR(result.makespan, 6.0 * 1.1, 1e-9);
}

TEST(SchedulerFaults, FinalAttemptNeverDrawsAnInjectedFailure) {
  Cluster cluster(ClusterConfig{.num_machines = 2, .slots_per_machine = 1});
  StageSimulator sim(cluster);
  const std::vector<SimTask> tasks{SimTask{.duration = 1.0}};
  StageFaultPlan plan;
  plan.max_attempts = 3;
  plan.blacklist_threshold = 100;  // keep both machines eligible throughout
  plan.attempt_fails = [](std::size_t, int, MachineId) { return true; };
  StageTimeline timeline;
  const StageResult result = sim.run_stage(
      tasks, SchedulePolicy::kFirstFree, HybridOptions{}, &timeline, &plan);
  // Attempts 0 and 1 draw the (always-true) failure; the final attempt is
  // exempt by construction, so the stage terminates within the cap.
  EXPECT_EQ(result.attempts, 3u);
  EXPECT_EQ(result.failed_attempts, 2u);
  EXPECT_EQ(result.max_attempts_seen, 3);
  ASSERT_EQ(timeline.size(), 3u);
  EXPECT_TRUE(timeline[0].failed);
  EXPECT_TRUE(timeline[1].failed);
  EXPECT_FALSE(timeline[2].failed);
}

// 16 seeded tasks homed round-robin on `cluster`: 4 machines x 2 slots,
// with machine 2 a 3x straggler.
std::vector<SimTask> seeded_stage(Cluster& cluster) {
  cluster.set_straggler(2, 3.0);
  Rng rng(11);
  std::vector<SimTask> tasks;
  for (int i = 0; i < 16; ++i) {
    tasks.push_back(SimTask{.duration = 0.5 + rng.next_double() * 2.0,
                            .preferred = static_cast<MachineId>(i % 4),
                            .migration_penalty = 0.3});
  }
  return tasks;
}

TEST(SchedulerFaults, EmptyPlanMatchesFaultFreePathExactly) {
  // A null and an empty plan both take the failure-free case of the one
  // scheduling loop. Both must schedule this stage bit for bit as the
  // scheduler's earlier, dedicated fault-free loop did: the expected values
  // are hex-float literals captured from that loop. Placements read
  // {task, machine, start, end, migrated}.
  struct Expected {
    SimDuration makespan;
    SimDuration work;
    std::uint64_t migrations;
    StageTimeline timeline;
  };
  const Expected first_free = {
      0x1.93a37149c5f81p+2, 0x1.1aacce8eabd8ep+5, 10,
      {
          {12, 0, 0x0p+0, 0x1.27b5438870c2ap+1, false},
          {9, 0, 0x0p+0, 0x1.487a74c820b58p+1, true},
          {13, 1, 0x0p+0, 0x1.199db0d3489a8p+1, false},
          {8, 1, 0x0p+0, 0x1.3586afd5e6a78p+1, true},
          {14, 2, 0x0p+0, 0x1.8a346dc05fc3ap+2, false},
          {1, 2, 0x0p+0, 0x1.93a37149c5f81p+2, true},
          {7, 3, 0x0p+0, 0x1.c66f5a0b009fcp+0, false},
          {2, 3, 0x0p+0, 0x1.e5ef7a7baae09p+0, true},
          {3, 3, 0x1.c66f5a0b009fcp+0, 0x1.9c303eb5dd3a3p+1, false},
          {4, 3, 0x1.e5ef7a7baae09p+0, 0x1.c9694d502fap+1, true},
          {5, 1, 0x1.199db0d3489a8p+1, 0x1.b2848960aea38p+1, false},
          {15, 0, 0x1.27b5438870c2ap+1, 0x1.bc56ce4f22a8ep+1, true},
          {11, 1, 0x1.3586afd5e6a78p+1, 0x1.c2b3528293b72p+1, true},
          {6, 0, 0x1.487a74c820b58p+1, 0x1.cfbd09bbe6becp+1, true},
          {0, 3, 0x1.9c303eb5dd3a3p+1, 0x1.1126f36a725f9p+2, true},
          {10, 1, 0x1.b2848960aea38p+1, 0x1.1a4f6611e04cp+2, true},
      }};
  const Expected preferred_only = {
      0x1.09e11c25b08c7p+3, 0x1.13c7a044f98fep+5, 0,
      {
          {12, 0, 0x0p+0, 0x1.27b5438870c2ap+1, false},
          {9, 1, 0x0p+0, 0x1.22140e61ba4f2p+1, false},
          {13, 1, 0x0p+0, 0x1.199db0d3489a8p+1, false},
          {8, 0, 0x0p+0, 0x1.0f20496f80412p+1, false},
          {14, 2, 0x0p+0, 0x1.8a346dc05fc3ap+2, false},
          {1, 1, 0x1.199db0d3489a8p+1, 0x1.0cf442712a8eep+2, false},
          {7, 3, 0x0p+0, 0x1.c66f5a0b009fcp+0, false},
          {2, 2, 0x0p+0, 0x1.32da0243268edp+2, false},
          {3, 3, 0x0p+0, 0x1.71f12360b9d4ap+0, false},
          {4, 0, 0x1.0f20496f80412p+1, 0x1.bf2b731b740a6p+1, false},
          {5, 1, 0x1.22140e61ba4f2p+1, 0x1.bafae6ef20582p+1, false},
          {15, 3, 0x1.71f12360b9d4ap+0, 0x1.2733b610a86a2p+1, false},
          {11, 3, 0x1.c66f5a0b009fcp+0, 0x1.49fde94bc6f91p+1, false},
          {6, 2, 0x1.32da0243268edp+2, 0x1.c424481736031p+2, false},
          {0, 0, 0x1.27b5438870c2ap+1, 0x1.876c854111e13p+1, false},
          {10, 2, 0x1.8a346dc05fc3ap+2, 0x1.09e11c25b08c7p+3, false},
      }};
  const Expected hybrid = {
      0x1.1e8a94d919266p+2, 0x1.d5a0a56ff5f2p+4, 6,
      {
          {12, 0, 0x0p+0, 0x1.27b5438870c2ap+1, false},
          {9, 1, 0x0p+0, 0x1.22140e61ba4f2p+1, false},
          {13, 1, 0x0p+0, 0x1.199db0d3489a8p+1, false},
          {8, 0, 0x0p+0, 0x1.0f20496f80412p+1, false},
          {14, 3, 0x0p+0, 0x1.2d3404e6a63e2p+1, true},
          {1, 1, 0x1.199db0d3489a8p+1, 0x1.0cf442712a8eep+2, false},
          {7, 3, 0x0p+0, 0x1.c66f5a0b009fcp+0, false},
          {2, 3, 0x1.c66f5a0b009fcp+0, 0x1.d62f6a4355c02p+1, true},
          {3, 3, 0x1.2d3404e6a63e2p+1, 0x1.e62c969703287p+1, false},
          {4, 0, 0x1.0f20496f80412p+1, 0x1.bf2b731b740a6p+1, false},
          {5, 1, 0x1.22140e61ba4f2p+1, 0x1.bafae6ef20582p+1, false},
          {15, 2, 0x0p+0, 0x1.7117d38748e5dp+1, true},
          {11, 2, 0x0p+0, 0x1.5ab91b393a61fp+1, true},
          {6, 0, 0x1.27b5438870c2ap+1, 0x1.aef7d87c36cbep+1, true},
          {0, 0, 0x1.aef7d87c36cbep+1, 0x1.07578d1a6bf54p+2, false},
          {10, 1, 0x1.bafae6ef20582p+1, 0x1.1e8a94d919266p+2, true},
      }};

  Cluster cluster(ClusterConfig{.num_machines = 4, .slots_per_machine = 2});
  const std::vector<SimTask> tasks = seeded_stage(cluster);
  StageSimulator sim(cluster);
  const StageFaultPlan empty_plan;
  ASSERT_TRUE(empty_plan.empty());
  for (const SchedulePolicy policy :
       {SchedulePolicy::kFirstFree, SchedulePolicy::kPreferredOnly,
        SchedulePolicy::kHybrid}) {
    const Expected& want = policy == SchedulePolicy::kFirstFree ? first_free
                           : policy == SchedulePolicy::kPreferredOnly
                               ? preferred_only
                               : hybrid;
    for (const StageFaultPlan* plan :
         {static_cast<const StageFaultPlan*>(nullptr), &empty_plan}) {
      SCOPED_TRACE(::testing::Message()
                   << "policy " << static_cast<int>(policy)
                   << (plan != nullptr ? " empty plan" : ""));
      StageTimeline timeline;
      const StageResult got =
          sim.run_stage(tasks, policy, HybridOptions{}, &timeline, plan);
      EXPECT_EQ(got.makespan, want.makespan);
      EXPECT_EQ(got.work, want.work);
      EXPECT_EQ(got.migrations, want.migrations);
      EXPECT_EQ(got.attempts, tasks.size());
      EXPECT_EQ(got.failed_attempts, 0u);
      EXPECT_EQ(got.max_attempts_seen, 1);
      ASSERT_EQ(timeline.size(), want.timeline.size());
      for (std::size_t i = 0; i < timeline.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "placement " << i);
        const TaskPlacement& g = timeline[i];
        const TaskPlacement& w = want.timeline[i];
        EXPECT_EQ(g.task, w.task);
        EXPECT_EQ(g.machine, w.machine);
        EXPECT_EQ(g.start, w.start);
        EXPECT_EQ(g.end, w.end);
        EXPECT_EQ(g.migrated, w.migrated);
        EXPECT_EQ(g.attempt, 0);
        EXPECT_FALSE(g.failed);
      }
    }
  }
}

}  // namespace
}  // namespace slider
