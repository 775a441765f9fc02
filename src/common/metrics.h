// Run-metrics accounting.
//
// The evaluation reports two measures (paper §7.1):
//   * work — the total amount of computation performed by all tasks,
//     i.e. the sum of the active time of every Map / contraction / Reduce
//     task;
//   * time — the end-to-end running time of the job (here: the simulated
//     makespan produced by the cluster scheduler).
//
// RunMetrics is the per-run record every engine entry point returns; the
// breakdown fields feed Fig 9 (work breakdown) and Fig 11 (split
// processing). Named counters live in observability/stats.h.
#pragma once

#include <cstdint>

namespace slider {

// Simulated seconds. All cost-model outputs are in this unit.
using SimDuration = double;

struct RunMetrics {
  // Work (sum of simulated task durations), split by phase.
  SimDuration map_work = 0;
  SimDuration contraction_work = 0;  // combiner invocations in the tree
  SimDuration reduce_work = 0;
  SimDuration shuffle_work = 0;   // data movement charged to tasks
  SimDuration memo_read_work = 0; // time spent reading memoized state
  // Background pre-processing work (split-processing mode). Not part of
  // foreground work/time; reported separately (Fig 11).
  SimDuration background_work = 0;

  // End-to-end simulated running times.
  SimDuration time = 0;             // foreground makespan
  SimDuration map_time = 0;         // map-stage portion of `time`
  SimDuration background_time = 0;  // background phase makespan

  // Task counts, useful for tests and sanity checks.
  std::uint64_t map_tasks = 0;
  std::uint64_t combiner_invocations = 0;
  std::uint64_t combiner_reused = 0;  // memo hits in the contraction tree
  std::uint64_t reduce_tasks = 0;
  // Tasks the scheduler ran off their memo-preferred machine (Table 1).
  std::uint64_t migrations = 0;
  // Fault tolerance (paper §6): task attempts scheduled (>= tasks when
  // failures force re-execution), attempts that died (crash or injected
  // failure), retries (attempts beyond each task's first), and machines
  // blacklisted for repeated injected failures.
  std::uint64_t task_attempts = 0;
  std::uint64_t failed_attempts = 0;
  std::uint64_t task_retries = 0;
  std::uint64_t machines_blacklisted = 0;
  // Max attempts any single task needed across the run's stages. Folds as
  // max (not sum) under operator+= — the acceptance bound is per task.
  std::uint64_t max_task_attempts = 0;

  // Bytes of memoized state written by this run (Fig 13c space overhead).
  std::uint64_t memo_bytes_written = 0;

  SimDuration work() const {
    return map_work + contraction_work + reduce_work + shuffle_work +
           memo_read_work;
  }

  RunMetrics& operator+=(const RunMetrics& other);
};

}  // namespace slider
