// Map-task execution: runs the user Mapper over one split and combines its
// output locally, producing one KVTable per reduce partition. The engine
// folds each record into a hash table as it is emitted (in-mapper
// combining, see Emitter); the simulator still charges Hadoop's sort-based
// combiner-at-the-mapper on the emitted record count.
#pragma once

#include <memory>
#include <vector>

#include "common/metrics.h"
#include "data/split.h"
#include "mapreduce/api.h"

namespace slider {

struct MapOutput {
  // One locally-combined table per reduce partition.
  std::vector<std::shared_ptr<const KVTable>> partitions;
  SimDuration cpu_cost = 0;  // map function + local combine, priced
  std::uint64_t records_in = 0;
  std::uint64_t records_out = 0;  // after local combine, across partitions
  std::size_t bytes_out = 0;
};

MapOutput run_map_task(const JobSpec& job, const InputSplit& split);

}  // namespace slider
