// Cross-variant property suite: system-level invariants that must hold for
// every contraction-tree variant under randomized histories, with the real
// memoization layer attached and failures injected mid-history.
//
//   I1 (correctness)   root == from-scratch fold of the window
//   I2 (balance)       height stays logarithmic in the window (+slack)
//   I3 (GC exactness)  erasing the released ids leaves the store equal to
//                      collect_live_ids: nothing leaks, nothing live goes
//   I4 (fault model)   failures change costs, never results
//   I5 (determinism)   same seed -> same outputs and same charged work

#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <tuple>
#include <utility>
#include <vector>

#include "contraction/tree.h"
#include "tests/test_util.h"

namespace slider {
namespace {

using testing::fold_leaves;
using testing::random_leaf;
using testing::sum_combiner;

struct TreeCase {
  TreeKind kind;
  // Fixed-width variants cannot shrink/grow arbitrarily.
  bool fixed_slide = false;
  bool append_only = false;
  bool split_processing = false;
};

std::string case_name(const ::testing::TestParamInfo<
                      std::tuple<TreeCase, std::uint64_t>>& info) {
  const TreeCase c = std::get<0>(info.param);
  std::string name;
  switch (c.kind) {
    case TreeKind::kStrawman: name = "strawman"; break;
    case TreeKind::kFolding: name = "folding"; break;
    case TreeKind::kRandomizedFolding: name = "randomized"; break;
    case TreeKind::kRotating: name = "rotating"; break;
    case TreeKind::kCoalescing: name = "coalescing"; break;
  }
  if (c.split_processing) name += "_split";
  return name + "_seed" + std::to_string(std::get<1>(info.param));
}

class TreeInvariants
    : public ::testing::TestWithParam<std::tuple<TreeCase, std::uint64_t>> {};

TEST_P(TreeInvariants, HoldAcrossRandomHistoryWithFailures) {
  const auto [c, seed] = GetParam();
  const CombineFn combiner = sum_combiner();
  Rng rng(seed * 7919 + 13);

  CostModel cost;
  Cluster cluster(ClusterConfig{.num_machines = 5, .slots_per_machine = 1});
  MemoStore memo(cluster, cost);

  MemoContext ctx;
  ctx.store = &memo;
  ctx.job_hash = 0xFEED + seed;
  ctx.reduce_home = 0;

  TreeOptions options;
  options.kind = c.kind;
  options.bucket_width = 4;
  options.split_processing = c.split_processing;
  auto tree = make_tree(options, ctx, combiner);

  std::deque<Leaf> window;
  SplitId next_id = 0;
  constexpr std::size_t kInitial = 16;  // multiple of the bucket width

  std::vector<Leaf> initial;
  for (std::size_t i = 0; i < kInitial; ++i) {
    initial.push_back(random_leaf(next_id++, rng, combiner));
  }
  for (const Leaf& l : initial) window.push_back(l);
  TreeUpdateStats stats;
  tree->initial_build(initial, &stats);

  for (int step = 0; step < 25; ++step) {
    std::size_t remove;
    std::size_t add;
    if (c.append_only) {
      remove = 0;
      add = 1 + rng.next_below(4);
    } else if (c.fixed_slide) {
      remove = 4;
      add = 4;
    } else {
      remove = rng.next_below(window.size() + 1);
      add = rng.next_below(5);
    }
    std::vector<Leaf> added;
    for (std::size_t i = 0; i < add; ++i) {
      added.push_back(random_leaf(next_id++, rng, combiner));
    }
    for (std::size_t i = 0; i < remove; ++i) window.pop_front();
    for (const Leaf& l : added) window.push_back(l);

    // I4: occasionally kill/revive a machine mid-history.
    if (step % 7 == 3) {
      cluster.fail_machine(static_cast<MachineId>(step % 5));
      memo.drop_memory_on_failed();
    }
    if (step % 7 == 5) {
      cluster.recover_machine(static_cast<MachineId>((step - 2) % 5));
    }

    TreeUpdateStats step_stats;
    tree->apply_delta(remove, added, &step_stats);
    if (step % 3 == 0) tree->background_preprocess(&step_stats);

    // I1: correctness against the fold.
    const std::vector<Leaf> current(window.begin(), window.end());
    ASSERT_EQ(*tree->root(), fold_leaves(current, combiner))
        << "step " << step;
    ASSERT_EQ(tree->leaf_count(), window.size());

    // reduce_inputs must merge to the same content as root().
    const auto inputs = tree->reduce_inputs();
    KVTable merged;
    for (const auto& t : inputs) {
      merged = KVTable::merge(merged, *t, combiner);
    }
    ASSERT_EQ(merged, *tree->root()) << "step " << step;

    // I2: logarithmic height (generous slack for the randomized variant
    // and for folding capacity hysteresis).
    if (!window.empty()) {
      const double log2n =
          std::log2(static_cast<double>(window.size()) + 1.0);
      ASSERT_LE(tree->height(), static_cast<int>(3.0 * log2n + 8.0))
          << "step " << step << " window " << window.size();
    }

    // I3: erase exactly the released ids; the store must then hold the
    // live set, no more (a leak) and no less (an over-release). Later
    // steps must keep working (checked by the next iteration's I1).
    std::vector<NodeId> released;
    tree->take_released_ids(released);
    memo.erase_released(released);
    std::unordered_set<NodeId> live;
    tree->collect_live_ids(live);
    ASSERT_EQ(memo.size(), live.size()) << "step " << step;
    for (const NodeId id : live) {
      ASSERT_TRUE(memo.contains(id)) << "step " << step << " lost " << id;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, TreeInvariants,
    ::testing::Combine(
        ::testing::Values(TreeCase{TreeKind::kStrawman},
                          TreeCase{TreeKind::kFolding},
                          TreeCase{TreeKind::kRandomizedFolding},
                          TreeCase{TreeKind::kRotating, /*fixed_slide=*/true},
                          TreeCase{TreeKind::kCoalescing, false,
                                   /*append_only=*/true},
                          // Background runs only every third step, so the
                          // others catch up in the foreground.
                          TreeCase{TreeKind::kRotating, true, false,
                                   /*split_processing=*/true},
                          TreeCase{TreeKind::kCoalescing, false, true,
                                   /*split_processing=*/true}),
        ::testing::Values(1u, 2u, 3u, 4u)),
    case_name);

// Everything a run charged, as comparable values: the aggregates, the
// non-empty per-(cause, level) cells in charge order, and the lineage.
auto charged_work(const TreeUpdateStats& s) {
  std::vector<std::tuple<obs::WorkCause, std::uint16_t, std::uint64_t,
                         std::uint64_t, std::uint64_t, std::uint64_t,
                         std::uint64_t, std::uint64_t>>
      cells;
  for (const obs::AttributedCell& c : s.attributed.cells()) {
    if (c.work.empty()) continue;
    cells.emplace_back(c.cause, c.level, c.work.combiner_invocations,
                       c.work.combiner_reused, c.work.nodes_visited,
                       c.work.rows_scanned, c.work.memo_bytes_read,
                       c.work.memo_bytes_written);
  }
  std::vector<std::tuple<NodeId, obs::LineageOp, obs::WorkCause,
                         std::uint16_t, std::uint32_t, std::uint64_t,
                         std::uint64_t, double, std::vector<NodeId>>>
      lineage;
  for (const obs::NodeLineage& n : s.lineage) {
    lineage.emplace_back(n.id, n.op, n.cause, n.level, n.invocations, n.rows,
                         n.rows_scanned, n.memo_cost, n.children);
  }
  return std::tuple{s.combiner_invocations, s.combiner_reused,
                    s.nodes_visited,        s.rows_scanned,
                    s.memo_read_cost,       s.memo_bytes_read,
                    s.memo_bytes_written,   s.memo_write_cost,
                    cells,                  lineage};
}

// I5: determinism — identical seeds must give identical outputs AND
// identical charged work across separate universes, for every variant.
TEST(TreeInvariants, DeterministicCostsAndOutputs) {
  auto run_universe = [](const TreeCase& c, std::uint64_t seed) {
    const CombineFn combiner = sum_combiner();
    CostModel cost;
    Cluster cluster(ClusterConfig{.num_machines = 4, .slots_per_machine = 2});
    MemoStore memo(cluster, cost);
    MemoContext ctx;
    ctx.store = &memo;
    ctx.job_hash = 0xD00D;
    Rng rng(seed);

    TreeOptions options;
    options.kind = c.kind;
    options.split_processing = c.split_processing;
    auto tree = make_tree(options, ctx, combiner);
    std::vector<Leaf> initial;
    SplitId next_id = 0;
    for (int i = 0; i < 12; ++i) {
      initial.push_back(random_leaf(next_id++, rng, combiner));
    }
    TreeUpdateStats total;
    total.record_lineage = true;
    tree->initial_build(std::move(initial), &total);
    for (int step = 0; step < 10; ++step) {
      total.cause = obs::WorkCause::kWindowAdd;
      total.passthrough_cause = obs::WorkCause::kWindowRemove;
      std::vector<Leaf> added = {random_leaf(next_id++, rng, combiner)};
      tree->apply_delta(c.append_only ? 0 : 1, std::move(added), &total);
      if (step % 3 == 0) {
        total.cause = obs::WorkCause::kBackgroundPreprocess;
        tree->background_preprocess(&total);
      }
    }
    return std::pair{tree->root()->content_hash(), charged_work(total)};
  };

  for (const TreeCase& c :
       {TreeCase{TreeKind::kStrawman}, TreeCase{TreeKind::kFolding},
        TreeCase{TreeKind::kRandomizedFolding},
        TreeCase{TreeKind::kRotating, true, false, /*split_processing=*/true},
        TreeCase{TreeKind::kCoalescing, false, true,
                 /*split_processing=*/true}}) {
    SCOPED_TRACE(static_cast<int>(c.kind));
    const auto first = run_universe(c, 42);
    EXPECT_EQ(first, run_universe(c, 42));
    EXPECT_FALSE(std::get<9>(first.second).empty());
    EXPECT_NE(first.first, run_universe(c, 43).first);
  }
}

// The headline asymptotic claim as a measurable property: for fixed-width
// slides, tree work per slide grows logarithmically with the window, while
// the strawman's grows linearly.
TEST(TreeInvariants, UpdateWorkScalesSubLinearly) {
  const CombineFn combiner = sum_combiner();
  auto merges_per_slide = [&](TreeKind kind, std::size_t window) {
    MemoContext ctx;
    ctx.job_hash = window * 31 + static_cast<int>(kind);
    TreeOptions options;
    options.kind = kind;
    options.bucket_width = 1;
    auto tree = make_tree(options, ctx, combiner);
    Rng rng(7);
    std::vector<Leaf> initial;
    SplitId next_id = 0;
    for (std::size_t i = 0; i < window; ++i) {
      initial.push_back(random_leaf(next_id++, rng, combiner));
    }
    TreeUpdateStats stats;
    tree->initial_build(std::move(initial), &stats);
    TreeUpdateStats slide;
    for (int i = 0; i < 4; ++i) {
      tree->apply_delta(1, {random_leaf(next_id++, rng, combiner)}, &slide);
    }
    return slide.combiner_invocations / 4;
  };

  const auto rotating_small = merges_per_slide(TreeKind::kRotating, 64);
  const auto rotating_large = merges_per_slide(TreeKind::kRotating, 512);
  // 8x window growth: rotating grows by ~log factor (≤ 2x), strawman ~8x.
  EXPECT_LE(rotating_large, rotating_small * 2 + 4);

  const auto strawman_small = merges_per_slide(TreeKind::kStrawman, 64);
  const auto strawman_large = merges_per_slide(TreeKind::kStrawman, 512);
  EXPECT_GE(strawman_large, strawman_small * 4);
}

}  // namespace
}  // namespace slider
