// User-facing programming model.
//
// Applications are written exactly once, in plain (non-incremental)
// MapReduce style — a Mapper, an associative Combiner and a Reducer — and
// run unchanged under the vanilla engine, the strawman memoizer and every
// Slider contraction tree. That transparency is the paper's headline
// property.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cost_model.h"
#include "common/hash.h"
#include "common/key_index.h"
#include "data/combiner_traits.h"
#include "data/record.h"

namespace slider {

// Receives a mapper's output. One Emitter serves one map task.
class Emitter {
 public:
  // Collects every emitted record as is, in emission order, for take().
  // Tests read raw mapper output this way.
  Emitter() = default;

  // Combines in the mapper (Lin & Dyer, "Data-Intensive Text Processing
  // with MapReduce", 2010): emit() hashes the key once, and the hash picks
  // both the partition (as partition_of does) and the key's row through a
  // KeyIndex. A repeated key folds as acc = combiner(key, acc, value), so
  // each key's values fold left to right in emission order.
  // take_partitions() returns the folded rows.
  Emitter(CombineFn combiner, int num_partitions);

  void emit(std::string key, std::string value);

  // Records emitted so far, before any folding.
  std::size_t size() const { return emitted_; }

  // Collecting Emitter: every emitted record, in emission order.
  std::vector<Record> take() { return std::move(records_); }

  // Folding Emitter: per partition, one row per distinct key, in order of
  // each key's first emission (not sorted).
  std::vector<std::vector<Record>> take_partitions() {
    return std::move(partitions_);
  }

 private:
  std::size_t emitted_ = 0;
  std::vector<Record> records_;  // collecting Emitter
  // Folding Emitter; partitions_ is empty in a collecting one. index_
  // maps each key to its row in partitions_[hash % partitions_.size()].
  CombineFn combiner_;
  std::vector<std::vector<Record>> partitions_;
  KeyIndex index_;
};

class Mapper {
 public:
  virtual ~Mapper() = default;
  virtual void map(const Record& input, Emitter& out) const = 0;
};

// Final reduction applied per key to the fully combined value. Returning
// nullopt drops the key from the output (e.g. below-threshold substrings).
using ReduceFn = std::function<std::optional<std::string>(
    const std::string& key, const std::string& combined)>;

struct JobSpec {
  std::string name;
  std::shared_ptr<const Mapper> mapper;
  CombineFn combiner;
  // Algebraic properties the app vouches for beyond bare associativity;
  // strong enough traits route partitions to the flat aggregation tier.
  CombinerTraits traits;
  ReduceFn reducer;
  int num_partitions = 4;
  AppCostProfile costs;

  std::uint64_t job_hash() const { return hash_string(name); }
};

inline int partition_of(const std::string& key, int num_partitions) {
  return static_cast<int>(hash_string(key) %
                          static_cast<std::uint64_t>(num_partitions));
}

}  // namespace slider
