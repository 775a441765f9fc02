// Slot-based stage simulator.
//
// A MapReduce job executes as a sequence of stages (map wave, contraction,
// reduce wave); within a stage, tasks are independent and run on machine
// slots. The simulator assigns tasks to slots under a scheduling policy and
// returns the stage makespan and total work. This is the substrate for the
// paper's scheduler experiments:
//   * kFirstFree     — vanilla Hadoop reduce placement: first available
//                      slot, no locality; remote data is always fetched,
//                      so off-preferred penalties always apply.
//   * kPreferredOnly — strict memoization-aware placement (§6): wait for
//                      the machine holding the memoized state, even if it
//                      is slow.
//   * kHybrid        — Slider's scheduler (§6): prefer the memo machine,
//                      but migrate (paying the remote-fetch penalty) when
//                      that machine is backed up, e.g. by a straggler.
//                      Migration is the one straggler policy (Table 1):
//                      no task ever runs twice at once.
// One scheduling loop serves every stage. It keeps running through
// machine failures (§6): a StageFaultPlan scripts mid-stage crashes, dead
// machines and injected task failures, and a null or empty plan is the
// loop's failure-free case.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "cluster/cluster.h"
#include "common/metrics.h"

namespace slider {

enum class SchedulePolicy { kFirstFree, kPreferredOnly, kHybrid };

struct SimTask {
  SimDuration duration = 0;  // nominal duration on a speed-1 machine
  MachineId preferred = -1;  // -1: no placement preference
  // Extra duration if the task runs off its preferred machine (remote
  // fetch of input or memoized state).
  SimDuration migration_penalty = 0;
};

struct StageResult {
  SimDuration makespan = 0;
  SimDuration work = 0;  // sum of effective task durations
  std::uint64_t migrations = 0;
  // Fault tolerance (§6 failures): attempt accounting. `attempts` counts
  // every placement (first tries and re-executions), `failed_attempts`
  // counts attempts that were killed by a mid-stage machine crash or drew
  // an injected task failure, and `task_retries` counts the resulting
  // re-queues (one per failed attempt). `max_attempts_seen` is the largest
  // per-task attempt count observed (1 when nothing failed).
  std::uint64_t attempts = 0;
  std::uint64_t failed_attempts = 0;
  std::uint64_t task_retries = 0;
  int machines_blacklisted = 0;
  int max_attempts_seen = 0;
};

// One scheduled task occurrence in a stage: which machine ran it, when
// (stage-relative simulated time), and whether it ran off its preferred
// (memo-local) machine. The timeline makes Table-1 straggler behaviour
// visually debuggable: feed it to the trace layer and the per-machine
// lanes show queues piling up on stragglers and the hybrid policy's
// migrations away from them.
struct TaskPlacement {
  std::size_t task = 0;  // index into the input task span
  MachineId machine = -1;
  SimDuration start = 0;
  SimDuration end = 0;
  bool migrated = false;
  // Fault tolerance: which attempt of the task this placement is (0 for
  // the first try) and whether the attempt failed — killed by a machine
  // crash mid-run or by an injected task failure — and was re-queued.
  int attempt = 0;
  bool failed = false;
};

// Placements in scheduling order (longest-task-first, retries appended in
// ready-time order); one per task when no attempt fails, more otherwise.
using StageTimeline = std::vector<TaskPlacement>;

struct HybridOptions {
  // Migrate if the best remote slot would finish the task more than this
  // tolerance earlier than the preferred (memo-local) machine. The
  // tolerance scales with the task's own duration plus a small floor, so
  // short tasks flee stragglers too.
  double patience_factor = 0.5;
  SimDuration patience_floor = 0.02;  // absolute slack tolerated
};

// Deterministic fault script for one stage, expressed in stage-relative
// simulated time. The scheduler does not know the future: tasks are placed
// on a machine as long as their start precedes its crash instant, and any
// attempt still running at that instant is killed there and re-queued as a
// new attempt (exponential sim-time backoff) on a live slot. Machines that
// accumulate `blacklist_threshold` injected failures are blacklisted for
// the remainder of the stage. The whole plan is data + a pure predicate, so
// replaying the same plan yields byte-identical schedules.
struct StageFaultPlan {
  struct Crash {
    MachineId machine = -1;
    SimDuration at = 0;  // stage-relative kill instant
  };
  std::vector<Crash> crashes;
  // Machines already failed when the stage began: never eligible.
  std::vector<MachineId> dead_machines;
  // Injected per-attempt task failure. Consulted only while the attempt
  // cap allows a retry (the final attempt never draws a failure), so a
  // `true` here costs the full attempt duration and forces a re-queue.
  // Must be a pure function of its arguments for determinism.
  std::function<bool(std::size_t task, int attempt, MachineId machine)>
      attempt_fails;
  int max_attempts = 4;           // attempts per task (>=1)
  SimDuration backoff_base = 0.05;  // retry delay: base * 2^attempt
  int blacklist_threshold = 3;    // injected failures before blacklisting
  bool empty() const {
    return crashes.empty() && dead_machines.empty() && !attempt_fails;
  }
};

// Source of per-stage fault plans; implemented by the chaos controller.
// `stage_start` is the absolute simulated time at which the stage begins,
// so the provider can translate its global event timeline into the
// stage-relative script the simulator consumes.
class StageFaultProvider {
 public:
  virtual ~StageFaultProvider() = default;
  virtual StageFaultPlan stage_faults(SimDuration stage_start) const = 0;
};

class StageSimulator {
 public:
  explicit StageSimulator(const Cluster& cluster) : cluster_(&cluster) {}

  // Schedules one stage. `timeline`, when non-null, receives the
  // placements (one per attempt). `faults` scripts the stage's failures:
  // mid-stage crashes kill running attempts, failed attempts are retried
  // with backoff under a bounded cap, and repeat offenders are
  // blacklisted. A null or empty plan is the failure-free case.
  StageResult run_stage(std::span<const SimTask> tasks, SchedulePolicy policy,
                        const HybridOptions& hybrid = {},
                        StageTimeline* timeline = nullptr,
                        const StageFaultPlan* faults = nullptr) const;

 private:
  const Cluster* cluster_;
};

}  // namespace slider
