// Unit tests for the cluster substrate: machine state, placement, and the
// slot simulator's scheduling policies.

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "cluster/cost_model.h"
#include "cluster/simulator.h"

namespace slider {
namespace {

TEST(Cluster, ConfigShapesMachines) {
  Cluster cluster(ClusterConfig{.num_machines = 4, .slots_per_machine = 3});
  EXPECT_EQ(cluster.num_machines(), 4);
  EXPECT_EQ(cluster.slots_per_machine(), 3);
  EXPECT_DOUBLE_EQ(cluster.duration_factor(0), 1.0);
}

TEST(Cluster, StragglerAndFailureFlags) {
  Cluster cluster(ClusterConfig{.num_machines = 3, .slots_per_machine = 1});
  cluster.set_straggler(1, 4.0);
  EXPECT_DOUBLE_EQ(cluster.duration_factor(1), 4.0);

  cluster.fail_machine(2);
  EXPECT_TRUE(cluster.machine(2).failed);
  cluster.recover_machine(2);
  EXPECT_FALSE(cluster.machine(2).failed);
}

TEST(Cluster, PlacementIsStable) {
  Cluster cluster(ClusterConfig{.num_machines = 7, .slots_per_machine = 2});
  for (std::uint64_t key = 0; key < 100; ++key) {
    const MachineId m = cluster.place(key);
    EXPECT_EQ(m, cluster.place(key));
    EXPECT_GE(m, 0);
    EXPECT_LT(m, 7);
  }
}

TEST(Cluster, PlacementFallsBackToLiveMachineRing) {
  Cluster cluster(ClusterConfig{.num_machines = 5, .slots_per_machine = 2});
  const std::uint64_t key = 12;  // primary = key % 5 = 2
  ASSERT_EQ(cluster.place(key), 2);

  // Primary failed: the ring probes forward to the next live machine.
  cluster.fail_machine(2);
  EXPECT_EQ(cluster.place(key), 3);
  cluster.fail_machine(3);
  EXPECT_EQ(cluster.place(key), 4);
  cluster.fail_machine(4);
  EXPECT_EQ(cluster.place(key), 0);  // wraps around
  EXPECT_EQ(cluster.failed_machines(), 3);
  EXPECT_TRUE(cluster.any_live());

  // Recovery restores the original deterministic placement.
  cluster.recover_machine(2);
  EXPECT_EQ(cluster.place(key), 2);
  cluster.recover_machine(3);
  cluster.recover_machine(4);
  EXPECT_EQ(cluster.failed_machines(), 0);

  // Every machine down: place() degrades to the primary (callers must
  // treat the result as best-effort; any_live() reports the state).
  for (MachineId m = 0; m < cluster.num_machines(); ++m) {
    cluster.fail_machine(m);
  }
  EXPECT_FALSE(cluster.any_live());
  EXPECT_EQ(cluster.place(key), 2);
}

TEST(StageSimulator, ParallelTasksOverlap) {
  Cluster cluster(ClusterConfig{.num_machines = 4, .slots_per_machine = 2});
  StageSimulator sim(cluster);
  std::vector<SimTask> tasks(8, SimTask{.duration = 1.0});
  const StageResult r = sim.run_stage(tasks, SchedulePolicy::kFirstFree);
  // 8 unit tasks on 8 slots: makespan 1, work 8.
  EXPECT_DOUBLE_EQ(r.makespan, 1.0);
  EXPECT_DOUBLE_EQ(r.work, 8.0);
}

TEST(StageSimulator, QueuesWhenOversubscribed) {
  Cluster cluster(ClusterConfig{.num_machines = 2, .slots_per_machine = 1});
  StageSimulator sim(cluster);
  std::vector<SimTask> tasks(4, SimTask{.duration = 1.0});
  const StageResult r = sim.run_stage(tasks, SchedulePolicy::kFirstFree);
  EXPECT_DOUBLE_EQ(r.makespan, 2.0);
  EXPECT_DOUBLE_EQ(r.work, 4.0);
}

TEST(StageSimulator, StragglerStretchesItsTasks) {
  Cluster cluster(ClusterConfig{.num_machines = 2, .slots_per_machine = 1});
  cluster.set_straggler(0, 10.0);
  StageSimulator sim(cluster);
  std::vector<SimTask> tasks(2, SimTask{.duration = 1.0});
  const StageResult r = sim.run_stage(tasks, SchedulePolicy::kFirstFree);
  // One task lands on the straggler: 10× duration.
  EXPECT_DOUBLE_EQ(r.makespan, 10.0);
  EXPECT_DOUBLE_EQ(r.work, 11.0);
}

TEST(StageSimulator, PreferredOnlyWaitsForHomeMachine) {
  Cluster cluster(ClusterConfig{.num_machines = 2, .slots_per_machine = 1});
  StageSimulator sim(cluster);
  // Three tasks all homed on machine 0.
  std::vector<SimTask> tasks(3, SimTask{.duration = 1.0, .preferred = 0});
  const StageResult strict =
      sim.run_stage(tasks, SchedulePolicy::kPreferredOnly);
  EXPECT_DOUBLE_EQ(strict.makespan, 3.0);  // serialized on machine 0
  EXPECT_EQ(strict.migrations, 0u);
}

TEST(StageSimulator, HybridMigratesOffBackedUpMachine) {
  Cluster cluster(ClusterConfig{.num_machines = 2, .slots_per_machine = 1});
  StageSimulator sim(cluster);
  std::vector<SimTask> tasks(
      4, SimTask{.duration = 1.0, .preferred = 0, .migration_penalty = 0.1});
  const StageResult hybrid = sim.run_stage(tasks, SchedulePolicy::kHybrid);
  // Patience ~1 task: roughly half the tasks migrate to machine 1.
  EXPECT_GT(hybrid.migrations, 0u);
  EXPECT_LT(hybrid.makespan, 4.0);
}

TEST(StageSimulator, HybridAvoidsStragglingPreferredMachine) {
  Cluster cluster(ClusterConfig{.num_machines = 2, .slots_per_machine = 1});
  cluster.set_straggler(0, 8.0);
  StageSimulator sim(cluster);
  std::vector<SimTask> tasks(
      1, SimTask{.duration = 1.0, .preferred = 0, .migration_penalty = 0.2});
  const StageResult r = sim.run_stage(tasks, SchedulePolicy::kHybrid);
  EXPECT_EQ(r.migrations, 1u);
  EXPECT_DOUBLE_EQ(r.makespan, 1.2);  // ran remotely + fetch penalty
}

TEST(StageSimulator, MigrationPenaltyChargedUnderFirstFree) {
  Cluster cluster(ClusterConfig{.num_machines = 2, .slots_per_machine = 1});
  StageSimulator sim(cluster);
  // kFirstFree ignores locality: a preferred task that lands elsewhere
  // pays the fetch penalty (vanilla Hadoop reduce placement).
  std::vector<SimTask> tasks(
      2, SimTask{.duration = 1.0, .preferred = 0, .migration_penalty = 0.5});
  const StageResult r = sim.run_stage(tasks, SchedulePolicy::kFirstFree);
  EXPECT_EQ(r.migrations, 1u);
  EXPECT_DOUBLE_EQ(r.work, 2.5);
}

TEST(StageSimulator, EmptyStage) {
  Cluster cluster(ClusterConfig{.num_machines = 2, .slots_per_machine = 1});
  StageSimulator sim(cluster);
  const StageResult r = sim.run_stage({}, SchedulePolicy::kFirstFree);
  EXPECT_DOUBLE_EQ(r.makespan, 0.0);
  EXPECT_DOUBLE_EQ(r.work, 0.0);
}

TEST(CostModel, PricesScaleWithBytes) {
  CostModel cost;
  EXPECT_LT(cost.mem_read(1000), cost.disk_read(1000));
  EXPECT_GT(cost.net_transfer(0), 0.0);  // latency floor
  EXPECT_LT(cost.net_transfer(100), cost.net_transfer(1'000'000));
}

}  // namespace
}  // namespace slider
