#include "cluster/simulator.h"

#include <algorithm>
#include <limits>

#include "observability/stats.h"

namespace slider {
namespace {

constexpr SimDuration kNever = std::numeric_limits<SimDuration>::infinity();

struct Slot {
  MachineId machine;
  SimDuration free_at;
};

// One machine's state for the length of a stage.
struct StageMachine {
  double factor = 1;  // Cluster::duration_factor
  // Kill instant: attempts must start before it. 0 for a machine that was
  // dead when the stage began, so it is never eligible.
  SimDuration crash_at = kNever;
  int strikes = 0;  // injected failures drawn here
  bool blacklisted = false;
};

struct Pending {
  std::size_t task;
  int attempt;
  SimDuration ready;
};

}  // namespace

// Semantics, all in stage-relative simulated time:
//   * Placement. The first wave runs longest-task-first. A first attempt
//     follows the policy over the eligible slots; a retry takes the
//     earliest eligible slot, since the memoized state may have died with
//     its machine. Ties go to the lowest slot index, i.e. the lowest
//     machine id.
//   * Eligibility. A slot can host an attempt that STARTS before its
//     machine's crash instant (the scheduler cannot see the future). A
//     machine in `dead_machines` is never eligible, nor is a blacklisted
//     one while another slot fits. A task's final attempt must also be
//     guaranteed to finish before the crash; failing that, it takes the
//     latest-crashing slot.
//   * Crash. An attempt still running at its machine's crash instant is
//     killed there: the placement records failed=true and end=crash, the
//     partial run is billed, and the task is re-queued with ready time
//     crash + backoff_base * 2^attempt.
//   * Injected failure. The attempt_fails predicate is consulted on every
//     attempt but a task's final one. A failure bills the full run, strikes
//     the machine (blacklisted at blacklist_threshold strikes) and
//     re-queues the task the same way.
// Termination: a crash kill leaves the killed machine ineligible for every
// later-starting attempt (free_at is clamped to the crash instant), so a
// task is killed at most once per crashing machine; injected failures are
// capped by max_attempts.
StageResult StageSimulator::run_stage(std::span<const SimTask> tasks,
                                      SchedulePolicy policy,
                                      const HybridOptions& hybrid,
                                      StageTimeline* timeline,
                                      const StageFaultPlan* faults) const {
  static const StageFaultPlan kNoFaults;
  const StageFaultPlan& plan = faults != nullptr ? *faults : kNoFaults;
  // Process-wide fault-tolerance counters, looked up once. The chaos
  // controller counts the events it applies into "failures.injected" too.
  obs::StatsRegistry& stats = obs::StatsRegistry::global();
  static obs::Counter& retries = stats.counter("task.retries");
  static obs::Counter& injections = stats.counter("failures.injected");
  static obs::Counter& blacklists = stats.counter("machines.blacklisted");
  if (timeline != nullptr) {
    timeline->clear();
    timeline->reserve(tasks.size());
  }
  const int spm = cluster_->slots_per_machine();
  const int num_machines = cluster_->num_machines();
  std::vector<Slot> slots;
  slots.reserve(static_cast<std::size_t>(num_machines * spm));
  std::vector<StageMachine> machines(static_cast<std::size_t>(num_machines));
  auto machine_of = [&](MachineId id) -> StageMachine& {
    return machines[static_cast<std::size_t>(id)];
  };
  for (MachineId m = 0; m < num_machines; ++m) {
    for (int s = 0; s < spm; ++s) slots.push_back({m, 0.0});
    machine_of(m).factor = cluster_->duration_factor(m);
  }
  for (const StageFaultPlan::Crash& crash : plan.crashes) {
    if (crash.machine < 0 || crash.machine >= num_machines) continue;
    SimDuration& at = machine_of(crash.machine).crash_at;
    at = std::min(at, std::max<SimDuration>(0, crash.at));
  }
  for (const MachineId dead : plan.dead_machines) {
    if (dead < 0 || dead >= num_machines) continue;
    machine_of(dead).crash_at = 0;
  }
  const int max_attempts = std::max(1, plan.max_attempts);

  // Duration of `task` on `machine`: straggler factor, plus the remote
  // fetch when it runs off its preferred machine.
  auto effective_on = [&](const SimTask& task, MachineId machine) {
    SimDuration effective = task.duration * machine_of(machine).factor;
    if (task.preferred >= 0 && machine != task.preferred) {
      effective += task.migration_penalty;
    }
    return effective;
  };
  // Earliest-starting eligible slot, optionally only on `only_machine`
  // (whose slots are contiguous: the layout is machine-major) or off
  // `exclude_machine`; -1 when none is eligible.
  auto pick_slot = [&](const SimTask& task, SimDuration ready,
                       bool honor_blacklist, bool require_completion,
                       MachineId only_machine,
                       MachineId exclude_machine) -> std::ptrdiff_t {
    std::size_t begin = 0;
    std::size_t end = slots.size();
    if (only_machine >= 0) {
      begin = std::min(slots.size(), static_cast<std::size_t>(only_machine) *
                                         static_cast<std::size_t>(spm));
      end = std::min(slots.size(), begin + static_cast<std::size_t>(spm));
    }
    std::ptrdiff_t best = -1;
    SimDuration best_start = kNever;
    for (std::size_t i = begin; i < end; ++i) {
      const Slot& slot = slots[i];
      if (slot.machine == exclude_machine) continue;
      const StageMachine& machine = machine_of(slot.machine);
      if (honor_blacklist && machine.blacklisted) continue;
      const SimDuration start = std::max(slot.free_at, ready);
      const bool fits =
          require_completion
              ? start + effective_on(task, slot.machine) <= machine.crash_at
              : start < machine.crash_at;
      if (!fits) continue;
      if (best < 0 || start < best_start) {
        best = static_cast<std::ptrdiff_t>(i);
        best_start = start;
      }
    }
    return best;
  };

  std::vector<Pending> wave;
  wave.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) wave.push_back({i, 0, 0.0});
  // Longest-processing-time-first gives stable, near-optimal packing and
  // mirrors Hadoop's tendency to schedule big tasks early in a wave.
  std::stable_sort(wave.begin(), wave.end(),
                   [&](const Pending& a, const Pending& b) {
                     return tasks[a.task].duration > tasks[b.task].duration;
                   });

  StageResult result;
  std::vector<Pending> next_wave;
  while (!wave.empty()) {
    for (const Pending& pending : wave) {
      const SimTask& task = tasks[pending.task];
      const bool final_attempt = pending.attempt + 1 >= max_attempts;

      // Relaxation ladder when the policy's choice finds nothing: any
      // eligible slot, then ignore the blacklist, then (final attempts)
      // the latest-crashing machine, accepting a possible further kill.
      std::ptrdiff_t chosen = -1;
      if (pending.attempt == 0 && task.preferred >= 0 &&
          policy == SchedulePolicy::kPreferredOnly) {
        chosen = pick_slot(task, pending.ready, /*honor_blacklist=*/true,
                           final_attempt, task.preferred, -1);
      } else if (pending.attempt == 0 && task.preferred >= 0 &&
                 policy == SchedulePolicy::kHybrid) {
        // Compare the finish on the memo-local machine with the best
        // remote one, which pays the fetch penalty, and migrate only when
        // the remote finish wins by more than the patience tolerance. One
        // rule covers both backed-up queues and stragglers.
        const std::ptrdiff_t pref = pick_slot(
            task, pending.ready, true, final_attempt, task.preferred, -1);
        const std::ptrdiff_t other = pick_slot(
            task, pending.ready, true, final_attempt, -1, task.preferred);
        chosen = pref >= 0 ? pref : other;
        if (pref >= 0 && other >= 0) {
          const Slot& local = slots[static_cast<std::size_t>(pref)];
          const Slot& remote = slots[static_cast<std::size_t>(other)];
          // Summed as (start + d·f) + penalty, not start + effective_on():
          // the rounding is part of the schedule the tests pin.
          const SimDuration pref_finish =
              std::max(local.free_at, pending.ready) +
              task.duration * machine_of(task.preferred).factor;
          const SimDuration other_finish =
              std::max(remote.free_at, pending.ready) +
              task.duration * machine_of(remote.machine).factor +
              task.migration_penalty;
          const SimDuration tolerance =
              hybrid.patience_floor + hybrid.patience_factor * task.duration;
          if (other_finish + tolerance < pref_finish) chosen = other;
        }
      }
      if (chosen < 0) {
        chosen = pick_slot(task, pending.ready, /*honor_blacklist=*/true,
                           final_attempt, -1, -1);
      }
      if (chosen < 0) {
        chosen = pick_slot(task, pending.ready, /*honor_blacklist=*/false,
                           final_attempt, -1, -1);
      }
      if (chosen < 0 && final_attempt) {
        SimDuration latest_crash = -1;
        for (std::size_t i = 0; i < slots.size(); ++i) {
          const SimDuration crash_at = machine_of(slots[i].machine).crash_at;
          if (std::max(slots[i].free_at, pending.ready) < crash_at &&
              crash_at > latest_crash) {
            chosen = static_cast<std::ptrdiff_t>(i);
            latest_crash = crash_at;
          }
        }
      }
      SLIDER_CHECK(chosen >= 0)
          << "no eligible slot for task " << pending.task << " attempt "
          << pending.attempt << " (all machines failed?)";

      Slot& slot = slots[static_cast<std::size_t>(chosen)];
      const MachineId machine_id = slot.machine;
      StageMachine& machine = machine_of(machine_id);
      const bool migrated = task.preferred >= 0 && machine_id != task.preferred;
      const SimDuration effective = effective_on(task, machine_id);
      const SimDuration start = std::max(slot.free_at, pending.ready);
      const SimDuration nominal_end = start + effective;
      ++result.attempts;
      result.max_attempts_seen =
          std::max(result.max_attempts_seen, pending.attempt + 1);
      if (migrated) ++result.migrations;

      // A crash kills the attempt at the crash instant and bills the
      // partial run; an injected failure lets it run to completion (lost
      // output, poisoned container, ...) and bills all of it.
      const bool killed = nominal_end > machine.crash_at;
      const bool injected =
          !killed && !final_attempt && plan.attempt_fails &&
          plan.attempt_fails(pending.task, pending.attempt, machine_id);
      const SimDuration end = killed ? machine.crash_at : nominal_end;
      slot.free_at = end;
      result.work += killed ? end - start : effective;
      if (timeline != nullptr) {
        timeline->push_back(TaskPlacement{.task = pending.task,
                                          .machine = machine_id,
                                          .start = start,
                                          .end = end,
                                          .migrated = migrated,
                                          .attempt = pending.attempt,
                                          .failed = killed || injected});
      }
      if (killed || injected) {
        ++result.failed_attempts;
        ++result.task_retries;
        retries.add();
        if (injected) {
          injections.add();
          if (++machine.strikes >= plan.blacklist_threshold &&
              !machine.blacklisted) {
            machine.blacklisted = true;
            ++result.machines_blacklisted;
            blacklists.add();
          }
        }
        const SimDuration backoff =
            plan.backoff_base *
            static_cast<SimDuration>(1u << std::min(pending.attempt, 16));
        next_wave.push_back({pending.task, pending.attempt + 1, end + backoff});
      }
    }
    // Retries run as the next wave, ordered by (ready time, task index)
    // for determinism.
    std::stable_sort(next_wave.begin(), next_wave.end(),
                     [](const Pending& a, const Pending& b) {
                       if (a.ready != b.ready) return a.ready < b.ready;
                       return a.task < b.task;
                     });
    wave.swap(next_wave);
    next_wave.clear();
  }

  for (const Slot& slot : slots) {
    result.makespan = std::max(result.makespan, slot.free_at);
  }
  return result;
}

}  // namespace slider
