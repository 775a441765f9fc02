// Map-task execution: runs the user Mapper over one split and combines its
// output locally, producing one KVTable per reduce partition. The engine
// folds each record into a hash table as it is emitted (in-mapper
// combining, see Emitter); the simulator still charges Hadoop's sort-based
// combiner-at-the-mapper on the emitted record count.
//
// A flat_eligible() job hands its kernel to the Emitter, which then folds
// its values as 64-bit lanes (see Emitter). Each partition's rows are
// sorted as (8-byte big-endian key prefix, row) pairs, the full key
// compare breaking prefix ties, and copied in that order into an
// exact-size table. The output is byte-identical to a sort-and-fold of the
// emitted records (KVTable::from_records).
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
