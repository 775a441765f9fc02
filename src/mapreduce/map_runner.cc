#include "mapreduce/map_runner.h"

#include <algorithm>
#include <cmath>

namespace slider {
namespace {

constexpr std::size_t kInitialSlots = 64;

}  // namespace

Emitter::Emitter(CombineFn combiner, int num_partitions)
    : combiner_(std::move(combiner)),
      partitions_(static_cast<std::size_t>(num_partitions)),
      slots_(kInitialSlots) {}

void Emitter::emit(std::string key, std::string value) {
  ++emitted_;
  if (partitions_.empty()) {
    records_.push_back({std::move(key), std::move(value)});
    return;
  }
  const std::uint64_t hash = hash_string(key);
  std::vector<Record>& rows = partitions_[hash % partitions_.size()];
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.row == kNoRow) {
      slot = {hash, rows.size()};
      rows.push_back({std::move(key), std::move(value)});
      if (++distinct_ * 2 > slots_.size()) grow();
      return;
    }
    if (slot.hash == hash && rows[slot.row].key == key) {
      Record& acc = rows[slot.row];
      acc.value = combiner_(acc.key, acc.value, value);
      return;
    }
  }
}

void Emitter::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{});
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.row == kNoRow) continue;
    std::size_t i = slot.hash & mask;
    while (slots_[i].row != kNoRow) i = (i + 1) & mask;
    slots_[i] = slot;
  }
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
