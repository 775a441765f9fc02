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
#include <string_view>
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
  //
  // With a flat kernel (run_map_task passes the job's when its traits are
  // flat_eligible(), kNone otherwise), a key folds as a 64-bit lane
  // instead of through the combiner. A key emitted once keeps its emitted
  // string and is never decoded. On a key's first fold both values go
  // through the strict flat::decode_value, later values add into the lane
  // with the kernel's wrapping add, and take_partitions() encodes the lane
  // once. A value that fails the strict decode (the flat tier's poison
  // case, "007" say) sends its key through the combiner from then on,
  // starting from the lane's encoding if it has folded. Every flat kernel
  // is a wrapping sum, so the rows equal the combiner's left-to-right fold.
  Emitter(CombineFn combiner, int num_partitions, FlatKernel kernel);

  void emit(std::string key, std::string value);

  // Records emitted so far, before any folding.
  std::size_t size() const { return emitted_; }

  // Collecting Emitter: every emitted record, in emission order.
  std::vector<Record> take() { return std::move(records_); }

  // Folding Emitter: per partition, one row per distinct key, in order of
  // each key's first emission (run_map_task sorts them by key prefix).
  std::vector<std::vector<Record>> take_partitions();

 private:
  // How a folding Emitter holds a key's value.
  enum class Fold : std::uint8_t {
    kOnce,     // emitted once: the row's value as emitted, not yet decoded
    kLane,     // `lane` holds the fold; the row's value is stale
    kCombine,  // the combiner folds into the row's value
  };
  struct RowFold {
    flat::Lane lane = 0;
    Fold fold = Fold::kOnce;
  };

  void fold(Record& row, RowFold& acc, const std::string& value);

  std::size_t emitted_ = 0;
  std::vector<Record> records_;  // collecting Emitter
  // Folding Emitter; partitions_ is empty in a collecting one. index_
  // maps each key to its row in partitions_[hash % partitions_.size()],
  // and folds_ holds each row's fold state at the same position.
  CombineFn combiner_;
  FlatKernel kernel_ = FlatKernel::kNone;
  std::vector<std::vector<Record>> partitions_;
  std::vector<std::vector<RowFold>> folds_;
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

inline int partition_of(std::string_view key, int num_partitions) {
  return static_cast<int>(hash_string(key) %
                          static_cast<std::uint64_t>(num_partitions));
}

}  // namespace slider
