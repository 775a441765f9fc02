// Key/value records and the KVTable payload type.
//
// Slider interposes a tree of Combiner invocations between shuffle and
// Reduce (paper §2.2). In this reproduction a tree node's payload is a
// KVTable: the key-sorted, per-key-combined output of a subtree of map
// outputs. Combining two sibling nodes is a sorted merge that applies the
// job's Combiner to equal keys — exactly "apply the Combiner to pairs of
// partitions" from the paper, with per-key granularity built in.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace slider {

struct Record {
  std::string key;
  std::string value;

  friend bool operator==(const Record&, const Record&) = default;
};

// Binary, associative combiner: (key, a, b) -> combined value.
// The rotating contraction tree additionally requires commutativity
// (paper §4.1); tests/property suites verify both for every shipped app.
using CombineFn = std::function<std::string(
    const std::string& key, const std::string& a, const std::string& b)>;

struct MergeStats {
  std::uint64_t rows_scanned = 0;    // rows read from both inputs
  std::uint64_t combines_applied = 0;  // per-key combiner applications
};

// Immutable-after-build, key-sorted table with unique keys.
class KVTable {
 public:
  KVTable() = default;

  // Stable-sorts an arbitrary record batch by key and folds each key's
  // values left to right in batch order. Map tasks no longer build their
  // output this way (they fold on emit, see mapreduce/api.h's Emitter);
  // this stays as the sort-and-fold reference that tests build tables with
  // and compare map output against.
  static KVTable from_records(std::vector<Record> rows,
                              const CombineFn& combine);

  // Sorted merge of two tables; equal keys are combined.
  static KVTable merge(const KVTable& a, const KVTable& b,
                       const CombineFn& combine, MergeStats* stats = nullptr);

  // Adopts rows the caller guarantees are already key-sorted with unique
  // keys (checked in debug builds). For producers that fold and order rows
  // themselves: map tasks, reduce tasks, the serde reader, and the flat
  // aggregation tier, which emits its root this way every slide.
  static KVTable from_sorted_unique(std::vector<Record> rows);

  std::span<const Record> rows() const { return rows_; }
  std::size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  // Returns nullptr when the key is absent.
  const std::string* find(const std::string& key) const;

  // Serialized size in bytes (keys + values + framing); used by the cost
  // model and the memo store.
  std::size_t byte_size() const { return byte_size_; }

  // Stable content hash: equal tables hash equal across runs/processes.
  std::uint64_t content_hash() const;

  friend bool operator==(const KVTable&, const KVTable&) = default;

 private:
  explicit KVTable(std::vector<Record> sorted_unique_rows);

  std::vector<Record> rows_;
  std::size_t byte_size_ = 0;
};

}  // namespace slider
