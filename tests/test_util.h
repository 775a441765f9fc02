// Shared helpers for the test suite.
#pragma once

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include <unistd.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "contraction/tree.h"
#include "data/record.h"
#include "data/split.h"
#include "durability/segment_log.h"
#include "observability/stats.h"

namespace slider::testing {

// Scoped scratch directory `<tmp>/<tag>_<pid>`, created empty and removed
// with everything in it on destruction. The pid keeps two suites running
// at once (say, a default and a sanitizer build) out of each other's way.
struct TempDir {
  explicit TempDir(const std::string& tag)
      : path(std::filesystem::temp_directory_path() /
             (tag + "_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  std::filesystem::path path;
};

// The segment cleaner's liveness test over a fixed set: a put is live iff
// its (key, seq) is one of `live`.
inline durability::SegmentLog::LivePredicate live_set(
    std::vector<std::pair<durability::LogKey, std::uint64_t>> live) {
  return [live = std::move(live)](durability::LogKey key, std::uint64_t seq) {
    return std::find(live.begin(), live.end(), std::pair{key, seq}) !=
           live.end();
  };
}

// Current value of a process-wide StatsRegistry counter. Tests compare
// deltas: every gtest case runs in its own ctest process, but a direct run
// of the binary shares one registry across cases.
inline std::uint64_t registry_counter(std::string_view name) {
  return obs::StatsRegistry::global().counter(name).value();
}

// Integer-sum combiner: associative and commutative, the canonical
// aggregate of the paper's micro-benchmarks.
inline CombineFn sum_combiner() {
  return [](const std::string&, const std::string& a, const std::string& b) {
    std::uint64_t x = 0;
    std::uint64_t y = 0;
    parse_u64(a, &x);
    parse_u64(b, &y);
    return std::to_string(x + y);
  };
}

// String-concatenation combiner: associative but NOT commutative; used to
// verify that order-sensitive trees preserve leaf order.
inline CombineFn concat_combiner() {
  return [](const std::string&, const std::string& a, const std::string& b) {
    return a + "|" + b;
  };
}

inline Leaf make_leaf(SplitId id, std::vector<Record> rows,
                      const CombineFn& combiner) {
  return Leaf{id, std::make_shared<const KVTable>(
                      KVTable::from_records(std::move(rows), combiner))};
}

// Deterministic random leaf: a handful of keys from a small key space with
// numeric values.
inline Leaf random_leaf(SplitId id, Rng& rng, const CombineFn& combiner,
                        int keys_per_leaf = 6, int key_space = 12) {
  std::vector<Record> rows;
  rows.reserve(static_cast<std::size_t>(keys_per_leaf));
  for (int i = 0; i < keys_per_leaf; ++i) {
    rows.push_back(
        {"k" + std::to_string(rng.next_below(static_cast<std::uint64_t>(
                   key_space))),
         std::to_string(rng.next_below(100))});
  }
  return make_leaf(id, std::move(rows), combiner);
}

// Ground truth: left-fold of all leaf tables.
inline KVTable fold_leaves(const std::vector<Leaf>& leaves,
                           const CombineFn& combiner) {
  KVTable acc;
  for (const Leaf& leaf : leaves) {
    acc = KVTable::merge(acc, *leaf.table, combiner);
  }
  return acc;
}

}  // namespace slider::testing
