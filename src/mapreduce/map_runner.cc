#include "mapreduce/map_runner.h"

#include <algorithm>
#include <cmath>

namespace slider {

Emitter::Emitter(CombineFn combiner, int num_partitions)
    : combiner_(std::move(combiner)),
      partitions_(static_cast<std::size_t>(num_partitions)) {}

void Emitter::emit(std::string key, std::string value) {
  ++emitted_;
  if (partitions_.empty()) {
    records_.push_back({std::move(key), std::move(value)});
    return;
  }
  const std::uint64_t hash = hash_string(key);
  std::vector<Record>& rows = partitions_[hash % partitions_.size()];
  const auto next = static_cast<std::uint32_t>(rows.size());
  // A key sharing this one's hash tag may sit in another partition, where
  // its row number means nothing here: bound it before comparing.
  const std::uint32_t row =
      index_.insert(hash, next, [&](std::uint32_t r) {
        return r < rows.size() && rows[r].key == key;
      });
  if (row == next) {
    rows.push_back({std::move(key), std::move(value)});
    return;
  }
  Record& acc = rows[row];
  acc.value = combiner_(acc.key, acc.value, value);
}

MapOutput run_map_task(const JobSpec& job, const InputSplit& split) {
  Emitter emitter(job.combiner, job.num_partitions);
  for (const Record& r : split.records) {
    job.mapper->map(r, emitter);
  }
  const std::uint64_t emitted_count = emitter.size();

  MapOutput out;
  out.records_in = split.records.size();
  out.partitions.reserve(static_cast<std::size_t>(job.num_partitions));
  for (std::vector<Record>& rows : emitter.take_partitions()) {
    std::sort(rows.begin(), rows.end(),
              [](const Record& a, const Record& b) { return a.key < b.key; });
    // The table outlives the task as a memoized leaf, so adopt an exact-size
    // copy. Copying also lays each heap-allocated key and value out in key
    // order, the order the tree's merges scan them; the fold allocated them
    // in emission order, and moving them would keep that scatter.
    auto table = std::make_shared<const KVTable>(KVTable::from_sorted_unique(
        std::vector<Record>(rows.begin(), rows.end())));
    out.records_out += table->size();
    out.bytes_out += table->byte_size();
    out.partitions.push_back(std::move(table));
  }

  // Pricing: the user map function per record/byte, plus the local combine
  // over everything emitted. The engine folds by hash (Emitter), but the
  // simulator prices Hadoop's combiner-at-the-mapper, which sorts the
  // emitted records first (n log n-ish; the log factor matters little at
  // split granularity, so charge it explicitly).
  const double sort_factor =
      emitted_count > 1 ? std::log2(static_cast<double>(emitted_count)) : 1.0;
  out.cpu_cost =
      job.costs.map_cpu_per_record * static_cast<double>(out.records_in) +
      job.costs.map_cpu_per_byte * static_cast<double>(split.byte_size) +
      job.costs.combine_cpu_per_row * static_cast<double>(emitted_count) *
          sort_factor;
  return out;
}

}  // namespace slider
