#include "mapreduce/map_runner.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <utility>

namespace slider {
namespace {

// The key's first 8 bytes, zero-padded, read big-endian. Comparing two
// prefixes as integers compares those bytes as unsigned chars, which is
// how std::string orders them; keys whose prefixes tie need the full
// compare (they share 8 bytes, or zero-pad alike, like "ab" and "ab\0").
std::uint64_t key_prefix(const std::string& key) {
  std::uint64_t prefix = 0;
  std::memcpy(&prefix, key.data(), std::min(key.size(), sizeof prefix));
  if constexpr (std::endian::native == std::endian::little) {
    prefix = __builtin_bswap64(prefix);
  }
  return prefix;
}

}  // namespace

Emitter::Emitter(CombineFn combiner, int num_partitions, FlatKernel kernel)
    : combiner_(std::move(combiner)),
      kernel_(kernel),
      partitions_(static_cast<std::size_t>(num_partitions)),
      folds_(partitions_.size()) {}

void Emitter::emit(std::string key, std::string value) {
  ++emitted_;
  if (partitions_.empty()) {
    records_.push_back({std::move(key), std::move(value)});
    return;
  }
  const std::uint64_t hash = hash_string(key);
  const std::size_t p = hash % partitions_.size();
  std::vector<Record>& rows = partitions_[p];
  const auto next = static_cast<std::uint32_t>(rows.size());
  // A key sharing this one's hash tag may sit in another partition, where
  // its row number means nothing here: bound it before comparing.
  const std::uint32_t row =
      index_.insert(hash, next, [&](std::uint32_t r) {
        return r < rows.size() && rows[r].key == key;
      });
  if (row == next) {
    rows.push_back({std::move(key), std::move(value)});
    // Without a kernel every fold goes through the combiner.
    folds_[p].push_back({0, kernel_ == FlatKernel::kNone ? Fold::kCombine
                                                         : Fold::kOnce});
    return;
  }
  fold(rows[row], folds_[p][row], value);
}

void Emitter::fold(Record& row, RowFold& acc, const std::string& value) {
  flat::Lane lane = 0;
  switch (acc.fold) {
    case Fold::kOnce:
      if (flat::decode_value(kernel_, row.value, &acc.lane) &&
          flat::decode_value(kernel_, value, &lane)) {
        acc.lane += lane;
        acc.fold = Fold::kLane;
        return;
      }
      break;
    case Fold::kLane:
      if (flat::decode_value(kernel_, value, &lane)) {
        acc.lane += lane;
        return;
      }
      row.value = flat::encode_value(kernel_, acc.lane);
      break;
    case Fold::kCombine:
      break;
  }
  acc.fold = Fold::kCombine;
  row.value = combiner_(row.key, row.value, value);
}

std::vector<std::vector<Record>> Emitter::take_partitions() {
  for (std::size_t p = 0; p < partitions_.size(); ++p) {
    for (std::size_t i = 0; i < partitions_[p].size(); ++i) {
      const RowFold& acc = folds_[p][i];
      if (acc.fold == Fold::kLane) {
        partitions_[p][i].value = flat::encode_value(kernel_, acc.lane);
      }
    }
  }
  folds_.clear();
  return std::move(partitions_);
}

MapOutput run_map_task(const JobSpec& job, const InputSplit& split) {
  Emitter emitter(job.combiner, job.num_partitions,
                  job.traits.flat_eligible() ? job.traits.flat_kernel
                                             : FlatKernel::kNone);
  for (const Record& r : split.records) {
    job.mapper->map(r, emitter);
  }
  const std::uint64_t emitted_count = emitter.size();

  MapOutput out;
  out.records_in = split.records.size();
  out.partitions.reserve(static_cast<std::size_t>(job.num_partitions));
  std::vector<std::pair<std::uint64_t, std::uint32_t>> order;
  for (const std::vector<Record>& rows : emitter.take_partitions()) {
    // Sort (prefix, row) pairs rather than the rows themselves; only
    // prefix ties compare the keys.
    order.clear();
    for (std::size_t i = 0; i < rows.size(); ++i) {
      order.emplace_back(key_prefix(rows[i].key),
                         static_cast<std::uint32_t>(i));
    }
    std::sort(order.begin(), order.end(), [&rows](const auto& a,
                                                  const auto& b) {
      if (a.first != b.first) return a.first < b.first;
      return rows[a.second].key < rows[b.second].key;
    });
    // The table outlives the task as a memoized leaf, so its buffer is
    // sized exactly, and the rows land in it in key order.
    std::size_t bytes = 0;
    for (const Record& r : rows) {
      bytes += r.key.size() + r.value.size() + KVTable::kRowFraming;
    }
    KVTable::Builder builder(rows.size(), bytes);
    for (const auto& [prefix, i] : order) {
      builder.add(rows[i].key, rows[i].value);
    }
    auto table = std::make_shared<const KVTable>(std::move(builder).finish());
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
