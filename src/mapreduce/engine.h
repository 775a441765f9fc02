// Vanilla (non-incremental) MapReduce engine.
//
// This is the recompute-from-scratch baseline of the evaluation ("H" /
// unmodified Hadoop in Figs 7, 9, 13): every run maps every split in the
// window, shuffles, merge-sorts and reduces, with no memoization. It is
// also the substrate the Slider session builds on — the map wave and the
// final reduce are shared code.
#pragma once

#include <span>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/cost_model.h"
#include "cluster/simulator.h"
#include "common/metrics.h"
#include "data/split.h"
#include "mapreduce/api.h"
#include "mapreduce/map_runner.h"
#include "mapreduce/reduce_runner.h"

namespace slider {

struct JobResult {
  std::vector<KVTable> partition_outputs;  // one reduced table per partition
  RunMetrics metrics;
};

class VanillaEngine {
 public:
  VanillaEngine(const Cluster& cluster, const CostModel& cost)
      : cluster_(&cluster), cost_(&cost), simulator_(cluster) {}

  JobResult run(const JobSpec& job, std::span<const SplitPtr> splits) const;

  // Exposed pieces reused by the Slider session ---------------------------

  // Executes all map tasks, returning per-split outputs plus the simulated
  // map-stage result. Map tasks prefer their split's home machine.
  struct MapStage {
    std::vector<MapOutput> outputs;  // parallel to `splits`
    StageResult sim;
  };
  MapStage run_map_stage(const JobSpec& job,
                         std::span<const SplitPtr> splits) const;

  const Cluster& cluster() const { return *cluster_; }
  const CostModel& cost_model() const { return *cost_; }
  const StageSimulator& simulator() const { return simulator_; }

 private:
  const Cluster* cluster_;
  const CostModel* cost_;
  StageSimulator simulator_;
};

}  // namespace slider
