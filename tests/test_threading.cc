// Threading tests: ThreadPool semantics, serial-vs-parallel determinism of
// whole sessions, trees running on their caller's thread, MemoStore thread
// safety, and regression tests for the satellite fixes (gauge freshness,
// re-put LRU recency, failed-home re-put, per-partition contraction
// breadth).
//
// Suite names are matched by the tsan CTest preset filter
// (ThreadPool|Determinism|Concurrency) — keep them stable.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "apps/microbench.h"
#include "common/thread_pool.h"
#include "durability/durable_tier.h"
#include "durability/scrubber.h"
#include "observability/stats.h"
#include "slider/session.h"
#include "tests/test_util.h"

namespace slider {
namespace {

using apps::MicroApp;
using testing::sum_combiner;

// Restores the global pool to its environment-default size on scope exit.
struct GlobalThreadsGuard {
  explicit GlobalThreadsGuard(int threads) {
    ThreadPool::set_global_threads(threads);
  }
  ~GlobalThreadsGuard() { ThreadPool::set_global_threads(0); }
};

// --- ThreadPool unit tests --------------------------------------------------

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::vector<int> times_run(1000, 0);
  pool.parallel_for(times_run.size(),
                    [&](std::size_t i) { ++times_run[i]; });
  for (std::size_t i = 0; i < times_run.size(); ++i) {
    EXPECT_EQ(times_run[i], 1) << "index " << i;
  }
}

TEST(ThreadPool, ZeroAndSingleIndexWork) {
  ThreadPool pool(4);
  int runs = 0;
  pool.parallel_for(0, [&](std::size_t) { ++runs; });
  EXPECT_EQ(runs, 0);
  pool.parallel_for(1, [&](std::size_t) { ++runs; });
  EXPECT_EQ(runs, 1);
}

TEST(ThreadPool, SingleThreadedPoolRunsInline) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(16);
  pool.parallel_for(seen.size(), [&](std::size_t i) {
    seen[i] = std::this_thread::get_id();
  });
  for (const std::thread::id id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.parallel_for(8, [&](std::size_t) {
    // Nested calls must not wait on pool slots held by their own callers.
    pool.parallel_for(8, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](std::size_t i) {
                                   if (i == 13) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  // The pool must stay usable after a failed job.
  std::atomic<int> runs{0};
  pool.parallel_for(32, [&](std::size_t) {
    runs.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(runs.load(), 32);
}

TEST(ThreadPool, GlobalPoolRespectsOverride) {
  GlobalThreadsGuard guard(3);
  EXPECT_EQ(ThreadPool::global().size(), 3);
  EXPECT_EQ(ThreadPool::global_threads(), 3);
  std::vector<int> slots(100, 0);
  parallel_for(slots.size(), [&](std::size_t i) { slots[i] = 1; });
  for (const int s : slots) EXPECT_EQ(s, 1);
}

// --- serial vs parallel determinism ----------------------------------------

struct Harness {
  Harness()
      : cluster(ClusterConfig{.num_machines = 8, .slots_per_machine = 2}),
        engine(cluster, cost),
        memo(cluster, cost) {}

  CostModel cost{};
  Cluster cluster;
  VanillaEngine engine;
  MemoStore memo;
};

std::vector<SplitPtr> make_app_splits(MicroApp app, Rng& rng,
                                      std::size_t splits,
                                      std::size_t records_per_split,
                                      SplitId first_id) {
  auto records = apps::generate_input(app, splits * records_per_split, rng,
                                      first_id * 1'000'000);
  return make_splits(std::move(records), records_per_split, first_id);
}

void expect_metrics_identical(const RunMetrics& a, const RunMetrics& b) {
  // Exact equality on doubles is intentional: the determinism contract is
  // *bit-identical* simulated metrics for any thread count.
  EXPECT_EQ(a.map_work, b.map_work);
  EXPECT_EQ(a.contraction_work, b.contraction_work);
  EXPECT_EQ(a.reduce_work, b.reduce_work);
  EXPECT_EQ(a.shuffle_work, b.shuffle_work);
  EXPECT_EQ(a.memo_read_work, b.memo_read_work);
  EXPECT_EQ(a.background_work, b.background_work);
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.map_time, b.map_time);
  EXPECT_EQ(a.background_time, b.background_time);
  EXPECT_EQ(a.map_tasks, b.map_tasks);
  EXPECT_EQ(a.combiner_invocations, b.combiner_invocations);
  EXPECT_EQ(a.combiner_reused, b.combiner_reused);
  EXPECT_EQ(a.reduce_tasks, b.reduce_tasks);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.memo_bytes_written, b.memo_bytes_written);
}

struct ScenarioResult {
  std::vector<KVTable> outputs;
  std::vector<RunMetrics> metrics;
};

ScenarioResult run_scenario(int threads, MicroApp app, WindowMode mode,
                            std::optional<TreeKind> tree_kind,
                            bool split_processing) {
  GlobalThreadsGuard guard(threads);
  Harness h;
  const auto bench = apps::make_microbenchmark(app);
  Rng rng(77);

  constexpr std::size_t kWindowSplits = 20;
  constexpr std::size_t kRecordsPerSplit = 30;
  constexpr std::size_t kSlide = 4;

  SliderConfig config;
  config.mode = mode;
  config.tree_kind = tree_kind;
  config.split_processing = split_processing;
  config.bucket_width = kSlide;
  SliderSession session(h.engine, h.memo, bench.job, config);

  ScenarioResult result;
  auto splits = make_app_splits(app, rng, kWindowSplits, kRecordsPerSplit, 0);
  result.metrics.push_back(session.initial_run(std::move(splits)));

  SplitId next_id = kWindowSplits;
  for (int slide = 0; slide < 3; ++slide) {
    const std::size_t remove = mode == WindowMode::kAppendOnly ? 0 : kSlide;
    auto added = make_app_splits(app, rng, kSlide, kRecordsPerSplit, next_id);
    next_id += kSlide;
    result.metrics.push_back(session.slide(remove, std::move(added)));
    if (split_processing) {
      result.metrics.push_back(session.run_background());
    }
  }
  result.outputs = session.output();
  return result;
}

void expect_scenarios_identical(const ScenarioResult& serial,
                                const ScenarioResult& parallel) {
  ASSERT_EQ(serial.outputs.size(), parallel.outputs.size());
  for (std::size_t p = 0; p < serial.outputs.size(); ++p) {
    EXPECT_EQ(serial.outputs[p], parallel.outputs[p]) << "partition " << p;
  }
  ASSERT_EQ(serial.metrics.size(), parallel.metrics.size());
  for (std::size_t i = 0; i < serial.metrics.size(); ++i) {
    SCOPED_TRACE("run " + std::to_string(i));
    expect_metrics_identical(serial.metrics[i], parallel.metrics[i]);
  }
}

TEST(ParallelDeterminism, FoldingTreeMatchesSerial) {
  const auto serial = run_scenario(1, MicroApp::kKMeans,
                                   WindowMode::kVariableWidth, std::nullopt,
                                   /*split_processing=*/false);
  const auto parallel = run_scenario(4, MicroApp::kKMeans,
                                     WindowMode::kVariableWidth, std::nullopt,
                                     /*split_processing=*/false);
  expect_scenarios_identical(serial, parallel);
}

// The hct-fold-w800 benchmark's shape at test size: HCT's histogram
// kernel keeps per-thread scratch state, merged here by pool threads.
TEST(ParallelDeterminism, HctFoldingTreeMatchesSerial) {
  const auto serial =
      run_scenario(1, MicroApp::kHct, WindowMode::kVariableWidth,
                   TreeKind::kFolding, /*split_processing=*/false);
  const auto parallel =
      run_scenario(4, MicroApp::kHct, WindowMode::kVariableWidth,
                   TreeKind::kFolding, /*split_processing=*/false);
  expect_scenarios_identical(serial, parallel);
}

TEST(ParallelDeterminism, RandomizedFoldingTreeMatchesSerial) {
  const auto serial =
      run_scenario(1, MicroApp::kSubStr, WindowMode::kVariableWidth,
                   TreeKind::kRandomizedFolding, /*split_processing=*/false);
  const auto parallel =
      run_scenario(4, MicroApp::kSubStr, WindowMode::kVariableWidth,
                   TreeKind::kRandomizedFolding, /*split_processing=*/false);
  expect_scenarios_identical(serial, parallel);
}

TEST(ParallelDeterminism, RotatingTreeWithBackgroundMatchesSerial) {
  const auto serial =
      run_scenario(1, MicroApp::kHct, WindowMode::kFixedWidth, std::nullopt,
                   /*split_processing=*/true);
  const auto parallel =
      run_scenario(4, MicroApp::kHct, WindowMode::kFixedWidth, std::nullopt,
                   /*split_processing=*/true);
  expect_scenarios_identical(serial, parallel);
}

// Append-only with split processing: each slide folds its batch through
// the shared batch fold, and the background phase coalesces it.
TEST(ParallelDeterminism, CoalescingTreeWithBackgroundMatchesSerial) {
  const auto serial =
      run_scenario(1, MicroApp::kHct, WindowMode::kAppendOnly,
                   TreeKind::kCoalescing, /*split_processing=*/true);
  const auto parallel =
      run_scenario(4, MicroApp::kHct, WindowMode::kAppendOnly,
                   TreeKind::kCoalescing, /*split_processing=*/true);
  expect_scenarios_identical(serial, parallel);
}

// substr's combiner is flat-eligible and tree_kind is unset, so this
// scenario runs on the flat aggregation tier — same bit-identical
// contract as the tree variants above, at any thread count.
TEST(ParallelDeterminism, FlatTierMatchesSerial) {
  const auto serial =
      run_scenario(1, MicroApp::kSubStr, WindowMode::kVariableWidth,
                   std::nullopt, /*split_processing=*/false);
  const auto parallel =
      run_scenario(4, MicroApp::kSubStr, WindowMode::kVariableWidth,
                   std::nullopt, /*split_processing=*/false);
  expect_scenarios_identical(serial, parallel);
}

// --- float fold ordering through the flat tier ------------------------------

// Sliding sum over double-valued samples. IEEE addition is not
// associative, so the only reduction order that keeps outputs
// bit-identical across thread counts AND across the flat-vs-tree routing
// split is "no float folds at all": each sample is pinned to fixed-point
// micro-units (i64) at the map boundary, and every later fold — per-slot
// partials, tree merges, flat lane adds — is exact integer arithmetic.
JobSpec make_double_sum_job() {
  JobSpec job;
  job.name = "double-sum-micro";
  struct SampleMapper : Mapper {
    void map(const Record& input, Emitter& out) const override {
      const double sample = std::strtod(input.value.c_str(), nullptr);
      const auto micros =
          static_cast<std::int64_t>(std::llround(sample * 1e6));
      out.emit(input.key, flat::encode_value(FlatKernel::kSumI64,
                                             std::bit_cast<flat::Lane>(micros)));
    }
  };
  job.mapper = std::make_shared<SampleMapper>();
  job.combiner = [](const std::string&, const std::string& a,
                    const std::string& b) {
    flat::Lane x = 0;
    flat::Lane y = 0;
    SLIDER_CHECK(flat::decode_value(FlatKernel::kSumI64, a, &x));
    SLIDER_CHECK(flat::decode_value(FlatKernel::kSumI64, b, &y));
    return flat::encode_value(FlatKernel::kSumI64, x + y);
  };
  job.traits.commutative = true;
  job.traits.invertible = true;
  job.traits.exactly_associative = true;
  job.traits.flat_kernel = FlatKernel::kSumI64;
  job.reducer = [](const std::string&,
                   const std::string& combined) -> std::optional<std::string> {
    return combined;
  };
  return job;
}

ScenarioResult run_double_sum_scenario(int threads, bool enable_flat) {
  GlobalThreadsGuard guard(threads);
  Harness h;
  const JobSpec job = make_double_sum_job();
  Rng rng(123);

  constexpr std::size_t kWindowSplits = 18;
  constexpr std::size_t kRecordsPerSplit = 25;
  constexpr std::size_t kSlide = 3;

  auto make = [&](std::size_t count, SplitId first) {
    std::vector<Record> records;
    records.reserve(count * kRecordsPerSplit);
    for (std::size_t i = 0; i < count * kRecordsPerSplit; ++i) {
      // Exact binary fractions in [-156.25, 156.25]; signed sums exercise
      // the two's-complement lane math.
      const double sample =
          (static_cast<double>(rng.next_below(20001)) - 10000.0) / 64.0;
      records.push_back({"sensor" + std::to_string(rng.next_below(9)),
                         std::to_string(sample)});
    }
    return make_splits(std::move(records), kRecordsPerSplit, first);
  };

  SliderConfig config;
  config.mode = WindowMode::kVariableWidth;
  config.enable_flat_tier = enable_flat;
  SliderSession session(h.engine, h.memo, job, config);

  ScenarioResult result;
  result.metrics.push_back(session.initial_run(make(kWindowSplits, 0)));
  SplitId next_id = kWindowSplits;
  for (int slide = 0; slide < 3; ++slide) {
    result.metrics.push_back(session.slide(kSlide, make(kSlide, next_id)));
    next_id += kSlide;
  }
  result.outputs = session.output();
  return result;
}

TEST(ParallelDeterminism, FlatTierDoubleSumFixedPointBitIdentical) {
  const auto serial = run_double_sum_scenario(1, /*enable_flat=*/true);
  const auto parallel = run_double_sum_scenario(4, /*enable_flat=*/true);
  expect_scenarios_identical(serial, parallel);

  // Routing must not change the answer either: the same job through the
  // folding tree (tier off) produces byte-identical output tables.
  const auto tree = run_double_sum_scenario(4, /*enable_flat=*/false);
  ASSERT_EQ(serial.outputs.size(), tree.outputs.size());
  for (std::size_t p = 0; p < serial.outputs.size(); ++p) {
    EXPECT_EQ(serial.outputs[p], tree.outputs[p]) << "partition " << p;
  }
}

// --- trees run on their caller's thread --------------------------------------

// One tree driven directly: the threads its combiner ran on, the charges
// of each op and the final root.
struct DirectTreeRun {
  std::set<std::thread::id> combiner_threads;
  std::vector<TreeUpdateStats> ops;  // the build, then one per slide
  std::shared_ptr<const KVTable> root;
};

DirectTreeRun drive_tree_directly(TreeKind kind, MemoStore* store) {
  constexpr SplitId kLeaves = 256;
  constexpr SplitId kSlide = 4;
  DirectTreeRun run;
  std::mutex threads_mutex;
  const CombineFn sum = sum_combiner();
  const CombineFn combiner = [&](const std::string& key, const std::string& a,
                                 const std::string& b) {
    {
      std::lock_guard<std::mutex> lock(threads_mutex);
      run.combiner_threads.insert(std::this_thread::get_id());
    }
    return sum(key, a, b);
  };
  const auto make_leaves = [&](SplitId first, SplitId count) {
    Rng rng(first + 1);
    std::vector<Leaf> leaves;
    for (SplitId id = first; id < first + count; ++id) {
      leaves.push_back(testing::random_leaf(id, rng, sum, /*keys_per_leaf=*/50,
                                            /*key_space=*/1000));
    }
    return leaves;
  };

  TreeOptions options;
  options.kind = kind;
  options.bucket_width = kSlide;
  MemoContext ctx;
  ctx.store = store;
  ctx.job_hash = 0x7EAD;
  auto tree = make_tree(options, ctx, combiner);
  run.ops.emplace_back();
  tree->initial_build(make_leaves(0, kLeaves), &run.ops.back());
  for (SplitId next = kLeaves; next < kLeaves + 4 * kSlide; next += kSlide) {
    run.ops.emplace_back();
    tree->apply_delta(kSlide, make_leaves(next, kSlide), &run.ops.back());
  }
  run.root = tree->root();
  return run;
}

void expect_charges_identical(const TreeUpdateStats& a,
                              const TreeUpdateStats& b) {
  EXPECT_EQ(a.combiner_invocations, b.combiner_invocations);
  EXPECT_EQ(a.combiner_reused, b.combiner_reused);
  EXPECT_EQ(a.nodes_visited, b.nodes_visited);
  EXPECT_EQ(a.rows_scanned, b.rows_scanned);
  EXPECT_EQ(a.memo_read_cost, b.memo_read_cost);
  EXPECT_EQ(a.memo_bytes_read, b.memo_bytes_read);
  EXPECT_EQ(a.memo_bytes_written, b.memo_bytes_written);
  EXPECT_EQ(a.memo_write_cost, b.memo_write_cost);
  const auto& cells_a = a.attributed.cells();
  const auto& cells_b = b.attributed.cells();
  ASSERT_EQ(cells_a.size(), cells_b.size());
  for (std::size_t i = 0; i < cells_a.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    EXPECT_EQ(cells_a[i].cause, cells_b[i].cause);
    EXPECT_EQ(cells_a[i].level, cells_b[i].level);
    const obs::CauseWork& x = cells_a[i].work;
    const obs::CauseWork& y = cells_b[i].work;
    EXPECT_EQ(x.combiner_invocations, y.combiner_invocations);
    EXPECT_EQ(x.combiner_reused, y.combiner_reused);
    EXPECT_EQ(x.nodes_visited, y.nodes_visited);
    EXPECT_EQ(x.rows_scanned, y.rows_scanned);
    EXPECT_EQ(x.memo_bytes_read, y.memo_bytes_read);
    EXPECT_EQ(x.memo_bytes_written, y.memo_bytes_written);
  }
}

// Partitions are the only unit of host parallelism: a tree called directly
// with a pool of 4 still runs every combiner on the calling thread. So a
// store under an entry budget sees its puts in one order, and which nodes
// it evicts (hence every later miss and charge) repeats run to run.
TEST(ParallelDeterminism, TreesRunOnTheCallersThread) {
  GlobalThreadsGuard guard(4);
  const std::set<std::thread::id> caller = {std::this_thread::get_id()};
  const std::pair<TreeKind, const char*> kinds[] = {
      {TreeKind::kFolding, "folding"},
      {TreeKind::kRandomizedFolding, "randomized-folding"},
      {TreeKind::kRotating, "rotating"}};
  for (const auto& [kind, name] : kinds) {
    SCOPED_TRACE(name);
    EXPECT_EQ(drive_tree_directly(kind, nullptr).combiner_threads, caller);

    std::optional<DirectTreeRun> first;
    for (int rep = 0; rep < 3; ++rep) {
      Harness h;
      h.memo.set_entry_budget(6);
      DirectTreeRun run = drive_tree_directly(kind, &h.memo);
      EXPECT_EQ(run.combiner_threads, caller);
      if (!first.has_value()) {
        first = std::move(run);
        continue;
      }
      SCOPED_TRACE("rep " + std::to_string(rep));
      EXPECT_EQ(*run.root, *first->root);
      ASSERT_EQ(run.ops.size(), first->ops.size());
      for (std::size_t op = 0; op < run.ops.size(); ++op) {
        SCOPED_TRACE("op " + std::to_string(op));
        expect_charges_identical(run.ops[op], first->ops[op]);
      }
    }
  }
}

// --- MemoStore under concurrency -------------------------------------------

struct StorageHarness {
  StorageHarness()
      : cluster(ClusterConfig{.num_machines = 4, .slots_per_machine = 2}),
        memo(cluster, cost) {}

  CostModel cost{};
  Cluster cluster;
  MemoStore memo;
};

std::shared_ptr<const KVTable> table_of(std::initializer_list<Record> rows) {
  return std::make_shared<const KVTable>(
      KVTable::from_records(rows, sum_combiner()));
}

TEST(MemoStoreConcurrency, ParallelPutGetEraseKeepsCountsConsistent) {
  GlobalThreadsGuard guard(8);
  StorageHarness h;
  constexpr std::size_t kOps = 512;
  std::atomic<int> found{0};
  parallel_for(kOps, [&](std::size_t i) {
    const NodeId id = 1000 + static_cast<NodeId>(i);
    auto t = table_of({{"k" + std::to_string(i), "1"}});
    h.memo.put(id, t);
    const MemoReadResult read = h.memo.get(id, h.memo.home_of(id));
    if (read.found) found.fetch_add(1, std::memory_order_relaxed);
    if (i % 4 == 0) h.memo.erase(id);
  });
  EXPECT_EQ(found.load(), static_cast<int>(kOps));
  EXPECT_EQ(h.memo.size(), kOps - kOps / 4);
  // The authoritative atomics and the observability gauges must agree.
  auto& stats = obs::StatsRegistry::global();
  EXPECT_EQ(stats.gauge("memo.entries").value(),
            static_cast<double>(h.memo.size()));
  EXPECT_EQ(stats.gauge("memo.bytes").value(),
            static_cast<double>(h.memo.total_bytes()));
  EXPECT_EQ(stats.gauge("memo.memory_bytes").value(),
            static_cast<double>(h.memo.memory_bytes()));
}

TEST(MemoStoreConcurrency, ConcurrentRePutOfSameIdIsIdempotent) {
  GlobalThreadsGuard guard(8);
  StorageHarness h;
  auto t = table_of({{"a", "1"}});
  const NodeId id = 42;
  parallel_for(256, [&](std::size_t) { h.memo.put(id, t); });
  EXPECT_EQ(h.memo.size(), 1u);
  const MemoReadResult read = h.memo.get(id, h.memo.home_of(id));
  ASSERT_TRUE(read.found);
  EXPECT_EQ(*read.table, *t);
}

// --- integrity scrubber racing writers ---------------------------------------

// The scrubber shares segment files with parallel durable appends; both
// serialize on MemoStore's durable mutex, and the pass snapshot bounds the
// scan to flushed bytes. Under tsan this is the proof there is no file- or
// state-level race between scrub slices and the put/get hot path.
TEST(ScrubberConcurrency, ScrubSlicesRaceWithParallelWriters) {
  GlobalThreadsGuard guard(8);
  const testing::TempDir dir("slider_scrubber_concurrency");
  {
    durability::DurableTier tier(dir.path.string());
    StorageHarness h;
    h.memo.attach_durable_tier(&tier);

    std::atomic<bool> stop{false};
    std::thread scrubber([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        h.memo.scrub_durable(64);
      }
    });
    parallel_for(512, [&](std::size_t i) {
      const NodeId id = 1 + static_cast<NodeId>(i);
      h.memo.put(id, table_of({{"k" + std::to_string(i), "1"}}));
      const MemoReadResult read = h.memo.get(id, h.memo.home_of(id));
      EXPECT_TRUE(read.found);
    });
    stop.store(true);
    scrubber.join();

    // One full unbudgeted pass over the quiesced tier: a clean store must
    // verify clean, and the conservation invariant must hold over the
    // whole racy history.
    const auto final_slice = h.memo.scrub_durable(1u << 20);
    EXPECT_GE(final_slice.full_passes, 1u);
    const auto totals = h.memo.scrub_stats();
    EXPECT_EQ(totals.corruptions_detected, 0u);
    EXPECT_TRUE(totals.conserved());
  }
}

// --- satellite regressions --------------------------------------------------

// Gauges must track every mutation path, not just put()/retain_only().
TEST(MemoStoreGauges, StayFreshAcrossAllMutations) {
  StorageHarness h;
  auto& stats = obs::StatsRegistry::global();
  const auto expect_gauges_match = [&](const char* where) {
    SCOPED_TRACE(where);
    EXPECT_EQ(stats.gauge("memo.entries").value(),
              static_cast<double>(h.memo.size()));
    EXPECT_EQ(stats.gauge("memo.bytes").value(),
              static_cast<double>(h.memo.total_bytes()));
    EXPECT_EQ(stats.gauge("memo.memory_bytes").value(),
              static_cast<double>(h.memo.memory_bytes()));
  };

  std::uint64_t bytes_each = 0;
  for (NodeId id = 1; id <= 6; ++id) {
    bytes_each = h.memo.put(id, table_of({{"a", "1"}})).bytes_written;
  }
  expect_gauges_match("after puts");
  EXPECT_EQ(h.memo.size(), 6u);

  h.memo.erase(3);
  expect_gauges_match("after erase");
  EXPECT_EQ(h.memo.size(), 5u);

  h.memo.set_memory_capacity_bytes(3 * bytes_each);
  expect_gauges_match("after memory eviction");
  EXPECT_GT(h.memo.stats().memory_evictions, 0u);

  h.memo.set_entry_budget(2);
  expect_gauges_match("after budget eviction");
  EXPECT_EQ(h.memo.size(), 2u);

  h.memo.put(7, table_of({{"b", "2"}}));  // the newest: the budget keeps it
  const std::size_t before = h.memo.size();
  const std::vector<NodeId> released = {7, 70};
  h.memo.erase_released(released);
  expect_gauges_match("after erase_released");
  EXPECT_EQ(h.memo.size(), before - 1);

  h.memo.retain_only({});
  expect_gauges_match("after retain_only");
  EXPECT_EQ(h.memo.size(), 0u);
  EXPECT_EQ(stats.gauge("memo.entries").value(), 0.0);
  EXPECT_EQ(stats.gauge("memo.bytes").value(), 0.0);
  EXPECT_EQ(stats.gauge("memo.memory_bytes").value(), 0.0);
}

// A re-put of a memory-resident entry means the node was just recomputed —
// it is hot and must have its LRU recency refreshed, or hot nodes get
// evicted first.
TEST(MemoStoreRePut, RefreshesLruRecency) {
  StorageHarness h;
  const std::uint64_t bytes =
      h.memo.put(1, table_of({{"a", "1"}})).bytes_written;
  h.memo.put(2, table_of({{"b", "1"}}));
  h.memo.put(3, table_of({{"c", "1"}}));

  // Re-put entry 1: recency order is now 2 < 3 < 1.
  h.memo.put(1, table_of({{"a", "1"}}));

  // Capacity for two memory copies: the LRU victim must be 2, not 1.
  h.memo.set_memory_capacity_bytes(2 * bytes);
  EXPECT_EQ(h.memo.stats().memory_evictions, 1u);
  const MachineId home1 = h.memo.home_of(1);
  EXPECT_EQ(h.memo.get(1, home1).tier, ReadTier::kLocalMemory);
  const MemoReadResult read2 = h.memo.get(2, h.memo.home_of(2));
  ASSERT_TRUE(read2.found);
  EXPECT_TRUE(read2.tier == ReadTier::kLocalDisk ||
              read2.tier == ReadTier::kRemoteDisk);
}

// A re-put whose home machine failed must drop the stale memory copy
// instead of leaving it counted against memory_bytes_ forever.
TEST(MemoStoreRePut, DropsStaleMemoryCopyOnFailedHome) {
  StorageHarness h;
  auto t = table_of({{"a", "1"}});
  const NodeId id = 7;
  h.memo.put(id, t);
  EXPECT_GT(h.memo.memory_bytes(), 0u);

  h.cluster.fail_machine(h.memo.home_of(id));
  h.memo.put(id, t);  // re-put: home is down, stale copy must go
  EXPECT_EQ(h.memo.memory_bytes(), 0u);
  EXPECT_EQ(obs::StatsRegistry::global().gauge("memo.memory_bytes").value(),
            0.0);

  // The persistent replicas keep serving readers elsewhere.
  const MachineId reader =
      (h.memo.home_of(id) + 1) % h.cluster.num_machines();
  const MemoReadResult read = h.memo.get(id, reader);
  ASSERT_TRUE(read.found);
  EXPECT_TRUE(read.tier == ReadTier::kLocalDisk ||
              read.tier == ReadTier::kRemoteDisk);
  EXPECT_EQ(*read.table, *t);
}

// contraction_breadth must use the queried partition's own tree height.
// Randomized folding trees have data-dependent (per-partition) heights,
// which is exactly where the old partitions_[0] shortcut went wrong.
TEST(ContractionBreadthRegression, UsesOwnPartitionHeight) {
  CostModel cost{};
  Cluster cluster(ClusterConfig{.num_machines = 32, .slots_per_machine = 2});
  VanillaEngine engine(cluster, cost);
  MemoStore memo(cluster, cost);

  const auto bench = apps::make_microbenchmark(MicroApp::kKMeans);
  SliderConfig config;
  config.mode = WindowMode::kVariableWidth;
  config.tree_kind = TreeKind::kRandomizedFolding;
  SliderSession session(engine, memo, bench.job, config);

  Rng rng(5);
  auto splits = make_app_splits(MicroApp::kKMeans, rng, 48, 20, 0);
  session.initial_run(std::move(splits));

  const int partitions = bench.job.num_partitions;
  int min_p = 0;
  int max_p = 0;
  for (int p = 1; p < partitions; ++p) {
    if (session.tree_height(p) < session.tree_height(min_p)) min_p = p;
    if (session.tree_height(p) > session.tree_height(max_p)) max_p = p;
  }
  // Heights must actually differ for this regression to bite; the seed is
  // fixed, so this is deterministic.
  ASSERT_NE(session.tree_height(min_p), session.tree_height(max_p));

  TreeUpdateStats ts;
  ts.combiner_invocations =
      2 * static_cast<std::uint64_t>(session.tree_height(max_p));

  const double slots_per_partition =
      static_cast<double>(cluster.num_machines() *
                          cluster.slots_per_machine()) /
      static_cast<double>(partitions);
  for (int p = 0; p < partitions; ++p) {
    const double expected =
        std::clamp(static_cast<double>(ts.combiner_invocations) /
                       static_cast<double>(std::max(1, session.tree_height(p))),
                   1.0, slots_per_partition);
    EXPECT_DOUBLE_EQ(session.contraction_breadth(ts, static_cast<std::size_t>(p)),
                     expected)
        << "partition " << p;
    EXPECT_DOUBLE_EQ(
        session.contraction_critical_path(ts, 10.0,
                                          static_cast<std::size_t>(p)),
        10.0 / expected)
        << "partition " << p;
  }
  EXPECT_NE(session.contraction_breadth(ts, static_cast<std::size_t>(min_p)),
            session.contraction_breadth(ts, static_cast<std::size_t>(max_p)));
}

}  // namespace
}  // namespace slider
