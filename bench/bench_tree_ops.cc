// Micro-benchmarks of contraction-tree operations (google-benchmark).
//
// Not a paper figure: these measure the raw in-process cost of tree
// builds, slides, and merges across variants and window sizes — the
// numbers behind the asymptotic claims (update work ∝ delta · log window
// for self-adjusting trees, ∝ window for the strawman).

#include <benchmark/benchmark.h>

#include "apps/codecs.h"
#include "apps/microbench.h"
#include "contraction/coalescing_tree.h"
#include "contraction/flat_aggregator.h"
#include "contraction/folding_tree.h"
#include "contraction/randomized_tree.h"
#include "contraction/rotating_tree.h"
#include "contraction/strawman_tree.h"
#include "contraction/tree.h"
#include "mapreduce/map_runner.h"
#include "tests/test_util.h"

namespace slider {
namespace {

using testing::random_leaf;
using testing::sum_combiner;

MemoContext bench_ctx() {
  MemoContext ctx;
  ctx.job_hash = 0xBE7C4;
  return ctx;
}

std::vector<Leaf> bench_leaves(std::size_t count, SplitId first = 0) {
  Rng rng(first * 1000 + 5);
  std::vector<Leaf> leaves;
  leaves.reserve(count);
  const CombineFn combiner = sum_combiner();
  for (std::size_t i = 0; i < count; ++i) {
    leaves.push_back(
        random_leaf(first + i, rng, combiner, /*keys_per_leaf=*/20,
                    /*key_space=*/200));
  }
  return leaves;
}

void BM_KVTableMerge(benchmark::State& state) {
  const CombineFn combiner = sum_combiner();
  Rng rng(1);
  const Leaf a = random_leaf(0, rng, combiner, static_cast<int>(state.range(0)),
                             static_cast<int>(state.range(0)) * 2);
  const Leaf b = random_leaf(1, rng, combiner, static_cast<int>(state.range(0)),
                             static_cast<int>(state.range(0)) * 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(KVTable::merge(*a.table, *b.table, combiner));
  }
}
BENCHMARK(BM_KVTableMerge)->Arg(16)->Arg(256)->Arg(4096);

// An hct-shaped merge: the folding tree's upper nodes hold about 1,250
// keys with 8-bucket histogram values, and siblings share about 60% of
// their keys. BM_KVTableMerge's short counts fit the small-string buffer;
// these values are heap-sized, as hct's are.
void BM_KVTableMergeHct(benchmark::State& state) {
  const CombineFn combiner =
      apps::make_microbenchmark(apps::MicroApp::kHct).job.combiner;
  constexpr int kKeys = 1250;
  constexpr int kShared = 750;
  Rng rng(7);
  const auto histogram = [&rng] {
    apps::Histogram h;
    for (std::uint32_t bucket = 0; bucket < 8; ++bucket) {
      h.emplace_back(bucket, 1 + rng.next_below(5000));
    }
    return apps::encode_histogram(h);
  };
  std::vector<Record> a_rows;
  std::vector<Record> b_rows;
  for (int i = 0; i < kKeys; ++i) {
    const int b_key = i < kShared ? i : kKeys + i;
    a_rows.push_back({"key-" + std::to_string(100000 + i), histogram()});
    b_rows.push_back({"key-" + std::to_string(100000 + b_key), histogram()});
  }
  const KVTable a = KVTable::from_records(std::move(a_rows), combiner);
  const KVTable b = KVTable::from_records(std::move(b_rows), combiner);
  for (auto _ : state) {
    benchmark::DoNotOptimize(KVTable::merge(a, b, combiner));
  }
}
BENCHMARK(BM_KVTableMergeHct);

// One HCT combiner call on 8-bucket values like its root rows: Arg(0) is
// the decode/add/encode reference, Arg(1) the kernel the app calls.
void BM_HistogramCombine(benchmark::State& state) {
  apps::Histogram ha;
  apps::Histogram hb;
  for (std::uint32_t bucket = 0; bucket < 8; ++bucket) {
    ha.emplace_back(bucket, 1000 + 37 * bucket);
    hb.emplace_back(bucket, 20 + 3 * bucket);
  }
  const std::string a = apps::encode_histogram(ha);
  const std::string b = apps::encode_histogram(hb);
  const bool kernel = state.range(0) == 1;
  state.SetLabel(kernel ? "kernel" : "reference");
  for (auto _ : state) {
    if (kernel) {
      benchmark::DoNotOptimize(apps::add_encoded_histograms(a, b));
    } else {
      benchmark::DoNotOptimize(apps::encode_histogram(apps::add_histograms(
          apps::decode_histogram(a), apps::decode_histogram(b))));
    }
  }
}
BENCHMARK(BM_HistogramCombine)->Arg(0)->Arg(1);

template <typename TreeT, typename... Args>
void build_bench(benchmark::State& state, Args... args) {
  const CombineFn combiner = sum_combiner();
  auto leaves = bench_leaves(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    TreeT tree(bench_ctx(), combiner, args...);
    TreeUpdateStats stats;
    auto copy = leaves;
    tree.initial_build(std::move(copy), &stats);
    benchmark::DoNotOptimize(tree.root());
  }
}

void BM_FoldingBuild(benchmark::State& state) {
  build_bench<FoldingTree>(state);
}
BENCHMARK(BM_FoldingBuild)->Arg(64)->Arg(256)->Arg(1024);

void BM_RandomizedBuild(benchmark::State& state) {
  build_bench<RandomizedFoldingTree>(state);
}
BENCHMARK(BM_RandomizedBuild)->Arg(64)->Arg(256)->Arg(1024);

void BM_StrawmanBuild(benchmark::State& state) {
  build_bench<StrawmanTree>(state);
}
BENCHMARK(BM_StrawmanBuild)->Arg(64)->Arg(256)->Arg(1024);

// Slide cost as a function of window size: the self-adjusting trees should
// grow polylogarithmically, the strawman linearly.
template <typename TreeT>
void slide_bench(benchmark::State& state) {
  const CombineFn combiner = sum_combiner();
  const auto window = static_cast<std::size_t>(state.range(0));
  TreeT tree(bench_ctx(), combiner);
  TreeUpdateStats stats;
  tree.initial_build(bench_leaves(window), &stats);
  SplitId next = window;
  std::uint64_t merges = 0;
  std::uint64_t slides = 0;
  for (auto _ : state) {
    TreeUpdateStats slide_stats;
    tree.apply_delta(1, bench_leaves(1, next), &slide_stats);
    ++next;
    merges += slide_stats.combiner_invocations;
    ++slides;
  }
  state.counters["merges/slide"] =
      static_cast<double>(merges) / static_cast<double>(slides);
}

void BM_FoldingSlide(benchmark::State& state) {
  slide_bench<FoldingTree>(state);
}
BENCHMARK(BM_FoldingSlide)->Arg(64)->Arg(256)->Arg(1024);

void BM_StrawmanSlide(benchmark::State& state) {
  slide_bench<StrawmanTree>(state);
}
BENCHMARK(BM_StrawmanSlide)->Arg(64)->Arg(256)->Arg(1024);

void BM_RotatingSlide(benchmark::State& state) {
  const CombineFn combiner = sum_combiner();
  const auto window = static_cast<std::size_t>(state.range(0));
  RotatingTree tree(bench_ctx(), combiner, /*bucket_width=*/4,
                    /*split_processing=*/false);
  TreeUpdateStats stats;
  tree.initial_build(bench_leaves(window), &stats);
  SplitId next = window;
  for (auto _ : state) {
    tree.apply_delta(4, bench_leaves(4, next), &stats);
    next += 4;
  }
}
BENCHMARK(BM_RotatingSlide)->Arg(64)->Arg(256)->Arg(1024);

// --- flat tier vs folding tree head-to-head -----------------------------
//
// The flat-aggregation acceptance pair: same leaves, same sum combiner,
// same slide schedule (w=192, delta=8), once through the flat circular
// buffer and once through the folding contraction tree. The flat tier
// must win by >= 5x ops/sec. Batches are pre-generated so leaf
// construction stays off the clock; bytes/op reports the leaf payload
// bytes ingested per slide.

constexpr std::size_t kHeadToHeadWindow = 192;
constexpr std::size_t kHeadToHeadDelta = 8;

struct SlideBatches {
  std::vector<Leaf> initial;
  std::vector<std::vector<Leaf>> batches;
  std::int64_t bytes_per_batch = 0;
};

// Aggregation-heavy leaves: 100 rows over a 200-key space, so most keys
// recur across leaves and the trees' per-key combiner calls dominate —
// the cost the flat tier's integer lanes eliminate.
std::vector<Leaf> dense_leaves(std::size_t count, SplitId first) {
  Rng rng(first * 1000 + 5);
  std::vector<Leaf> leaves;
  leaves.reserve(count);
  const CombineFn combiner = sum_combiner();
  for (std::size_t i = 0; i < count; ++i) {
    leaves.push_back(
        random_leaf(first + i, rng, combiner, /*keys_per_leaf=*/100,
                    /*key_space=*/200));
  }
  return leaves;
}

SlideBatches make_batches(bool dense) {
  SlideBatches out;
  const auto gen = [dense](std::size_t count, SplitId first) {
    return dense ? dense_leaves(count, first) : bench_leaves(count, first);
  };
  out.initial = gen(kHeadToHeadWindow, 0);
  SplitId next = kHeadToHeadWindow;
  for (int b = 0; b < 256; ++b) {
    out.batches.push_back(gen(kHeadToHeadDelta, next));
    next += kHeadToHeadDelta;
  }
  for (const Leaf& leaf : out.batches.front()) {
    out.bytes_per_batch += static_cast<std::int64_t>(leaf.table->byte_size());
  }
  return out;
}

const SlideBatches& head_to_head_batches(bool dense) {
  static const SlideBatches sparse_data = make_batches(false);
  static const SlideBatches dense_data = make_batches(true);
  return dense ? dense_data : sparse_data;
}

template <typename MakeTree>
void head_to_head_slide(benchmark::State& state, MakeTree make) {
  const SlideBatches& data = head_to_head_batches(state.range(0) != 0);
  auto tree = make();
  TreeUpdateStats stats;
  auto initial = data.initial;
  tree->initial_build(std::move(initial), &stats);
  std::size_t i = 0;
  for (auto _ : state) {
    TreeUpdateStats slide_stats;
    auto batch = data.batches[i % data.batches.size()];
    tree->apply_delta(kHeadToHeadDelta, std::move(batch), &slide_stats);
    ++i;
    benchmark::DoNotOptimize(tree->root());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kHeadToHeadDelta));
  state.SetBytesProcessed(state.iterations() * data.bytes_per_batch);
}

// Arg 0 = the standard 20-row leaves, arg 1 = the dense 100-row leaves.
void BM_FlatSlideHeadToHead(benchmark::State& state) {
  CombinerTraits traits;
  traits.commutative = true;
  traits.invertible = true;
  traits.exactly_associative = true;
  traits.flat_kernel = FlatKernel::kSumU64;
  head_to_head_slide(state, [&] {
    return std::make_unique<FlatAggregator>(
        bench_ctx(), sum_combiner(), traits,
        TreeOptions{.kind = TreeKind::kFolding});
  });
}
BENCHMARK(BM_FlatSlideHeadToHead)->Arg(0)->Arg(1);

void BM_FoldingSlideHeadToHead(benchmark::State& state) {
  head_to_head_slide(state, [&] {
    return std::make_unique<FoldingTree>(bench_ctx(), sum_combiner());
  });
}
BENCHMARK(BM_FoldingSlideHeadToHead)->Arg(0)->Arg(1);

void BM_CoalescingAppend(benchmark::State& state) {
  const CombineFn combiner = sum_combiner();
  CoalescingTree tree(bench_ctx(), combiner, /*split_processing=*/false);
  TreeUpdateStats stats;
  tree.initial_build(bench_leaves(static_cast<std::size_t>(state.range(0))),
                     &stats);
  SplitId next = static_cast<SplitId>(state.range(0));
  for (auto _ : state) {
    tree.apply_delta(0, bench_leaves(1, next), &stats);
    ++next;
  }
}
BENCHMARK(BM_CoalescingAppend)->Arg(64)->Arg(1024);

// --- map tasks ----------------------------------------------------------
//
// One map task (map, in-mapper fold, per-partition sort) over a generated
// 60-record split, as a session runs one for each new split. subStr and
// Matrix declare a flat kernel, so their values fold as 64-bit lanes; HCT
// declares none and folds through its combiner. The counters give each
// app's emits and distinct keys per split and the share of emits that
// fold into a key already seen, which is what the lane fold pays off on.
void BM_MapTask(benchmark::State& state) {
  const apps::MicroBenchmark mb =
      apps::make_microbenchmark(static_cast<apps::MicroApp>(state.range(0)));
  constexpr SplitId kSplits = 16;
  constexpr std::size_t kRecordsPerSplit = 60;
  Rng rng(11);
  std::vector<SplitPtr> splits;
  double emitted = 0;
  double distinct = 0;
  for (SplitId id = 0; id < kSplits; ++id) {
    splits.push_back(make_split(
        id, apps::generate_input(mb.app, kRecordsPerSplit, rng,
                                 id * kRecordsPerSplit)));
    Emitter raw;
    for (const Record& r : splits.back()->records) mb.job.mapper->map(r, raw);
    emitted += static_cast<double>(raw.size());
    distinct += static_cast<double>(
        run_map_task(mb.job, *splits.back()).records_out);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_map_task(mb.job, *splits[i++ % kSplits]));
  }
  state.SetLabel(mb.name);
  state.counters["emitted"] = emitted / kSplits;
  state.counters["distinct"] = distinct / kSplits;
  state.counters["fold_share"] = 1.0 - distinct / emitted;
}
BENCHMARK(BM_MapTask)
    ->Arg(static_cast<int>(apps::MicroApp::kSubStr))
    ->Arg(static_cast<int>(apps::MicroApp::kHct))
    ->Arg(static_cast<int>(apps::MicroApp::kMatrix))
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace slider

BENCHMARK_MAIN();
