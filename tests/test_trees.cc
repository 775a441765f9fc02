// Contraction-tree unit and property tests.
//
// The load-bearing invariant for the whole system: after any window
// history, every tree's root must equal the from-scratch fold of the
// current window's leaves. Beyond that, each variant's structural
// guarantees (logarithmic height, fold/unfold, rotation, pending
// coalesce) are exercised directly.

#include <gtest/gtest.h>

#include <deque>

#include "contraction/coalescing_tree.h"
#include "contraction/folding_tree.h"
#include "contraction/randomized_tree.h"
#include "contraction/rotating_tree.h"
#include "contraction/strawman_tree.h"
#include "tests/test_util.h"

namespace slider {
namespace {

using testing::concat_combiner;
using testing::fold_leaves;
using testing::make_leaf;
using testing::random_leaf;
using testing::sum_combiner;

MemoContext no_store_ctx() {
  MemoContext ctx;
  ctx.job_hash = 0xABCDEF;
  ctx.partition = 0;
  return ctx;
}

std::vector<Leaf> sequential_leaves(SplitId first, std::size_t count,
                                    const CombineFn& combiner) {
  std::vector<Leaf> leaves;
  for (std::size_t i = 0; i < count; ++i) {
    const SplitId id = first + i;
    leaves.push_back(make_leaf(
        id,
        {{"total", "1"}, {"s" + std::to_string(id % 4), std::to_string(id)}},
        combiner));
  }
  return leaves;
}

// ---------------------------------------------------------------------------
// FoldingTree

TEST(FoldingTree, InitialBuildMatchesFold) {
  const CombineFn combiner = sum_combiner();
  FoldingTree tree(no_store_ctx(), combiner);
  auto leaves = sequential_leaves(0, 5, combiner);
  const KVTable expected = fold_leaves(leaves, combiner);
  TreeUpdateStats stats;
  tree.initial_build(leaves, &stats);
  EXPECT_EQ(*tree.root(), expected);
  EXPECT_EQ(tree.leaf_count(), 5u);
  EXPECT_EQ(tree.capacity(), 8u);  // next power of two
  EXPECT_EQ(tree.height(), 3);
  EXPECT_GT(stats.combiner_invocations, 0u);
}

TEST(FoldingTree, SingleLeafAndEmptyWindow) {
  const CombineFn combiner = sum_combiner();
  FoldingTree tree(no_store_ctx(), combiner);
  TreeUpdateStats stats;
  tree.initial_build({}, &stats);
  EXPECT_TRUE(tree.root()->empty());
  EXPECT_EQ(tree.leaf_count(), 0u);

  FoldingTree one(no_store_ctx(), combiner);
  auto leaves = sequential_leaves(7, 1, combiner);
  one.initial_build(leaves, &stats);
  EXPECT_EQ(*one.root(), *leaves[0].table);
}

TEST(FoldingTree, GrowsByDoublingWhenRightSideFull) {
  const CombineFn combiner = sum_combiner();
  FoldingTree tree(no_store_ctx(), combiner);
  TreeUpdateStats stats;
  tree.initial_build(sequential_leaves(0, 4, combiner), &stats);
  EXPECT_EQ(tree.capacity(), 4u);
  EXPECT_EQ(tree.height(), 2);

  tree.apply_delta(0, sequential_leaves(4, 1, combiner), &stats);
  EXPECT_EQ(tree.capacity(), 8u);  // doubled
  EXPECT_EQ(tree.height(), 3);
  EXPECT_EQ(tree.leaf_count(), 5u);
}

TEST(FoldingTree, ShrinksWhenLeftHalfVoid) {
  const CombineFn combiner = sum_combiner();
  FoldingTree tree(no_store_ctx(), combiner);
  TreeUpdateStats stats;
  auto leaves = sequential_leaves(0, 8, combiner);
  tree.initial_build(leaves, &stats);
  EXPECT_EQ(tree.height(), 3);

  // Dropping the first half voids the entire left subtree.
  tree.apply_delta(4, {}, &stats);
  EXPECT_EQ(tree.height(), 2);
  EXPECT_EQ(tree.capacity(), 4u);
  const std::vector<Leaf> rest(leaves.begin() + 4, leaves.end());
  EXPECT_EQ(*tree.root(), fold_leaves(rest, combiner));
}

TEST(FoldingTree, PreservesLeafOrderWithNonCommutativeCombiner) {
  const CombineFn combiner = concat_combiner();
  FoldingTree tree(no_store_ctx(), combiner);
  TreeUpdateStats stats;
  std::vector<Leaf> leaves;
  for (SplitId i = 0; i < 6; ++i) {
    leaves.push_back(make_leaf(i, {{"k", std::string(1, 'a' + char(i))}},
                               combiner));
  }
  tree.initial_build(leaves, &stats);
  tree.apply_delta(2, {make_leaf(6, {{"k", "g"}}, combiner)}, &stats);
  // Window is now c..g in order.
  const std::vector<Leaf> window(leaves.begin() + 2, leaves.end());
  std::vector<Leaf> with_new = window;
  with_new.push_back(make_leaf(6, {{"k", "g"}}, combiner));
  EXPECT_EQ(*tree.root(), fold_leaves(with_new, combiner));
}

TEST(FoldingTree, IncrementalWorkIsSublinear) {
  const CombineFn combiner = sum_combiner();
  FoldingTree tree(no_store_ctx(), combiner);
  TreeUpdateStats build_stats;
  tree.initial_build(sequential_leaves(0, 256, combiner), &build_stats);

  TreeUpdateStats slide_stats;
  tree.apply_delta(1, sequential_leaves(256, 1, combiner), &slide_stats);
  // One leaf in, one out: at most ~2 root paths of merges.
  EXPECT_LE(slide_stats.combiner_invocations,
            2u * static_cast<unsigned>(tree.height()) + 2u);
  EXPECT_LT(slide_stats.combiner_invocations,
            build_stats.combiner_invocations / 10);
}

TEST(FoldingTree, FoldsCapacityDownAfterDrasticShrink) {
  const CombineFn combiner = sum_combiner();
  FoldingTree tree(no_store_ctx(), combiner);
  TreeUpdateStats stats;
  auto leaves = sequential_leaves(0, 64, combiner);
  tree.initial_build(leaves, &stats);
  // Drop 60 of 64: each emptied left half folds away, 64 -> 32 -> 16 -> 8
  // -> 4, leaving the 4 survivors in a full leaf level.
  tree.apply_delta(60, {}, &stats);
  const std::vector<Leaf> rest(leaves.begin() + 60, leaves.end());
  EXPECT_EQ(*tree.root(), fold_leaves(rest, combiner));
  EXPECT_EQ(tree.capacity(), 4u);
  EXPECT_EQ(tree.first_occupied(), 0u);
}

// Property sweep: random slide histories must match from-scratch folds.
class FoldingTreeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FoldingTreeProperty, MatchesFoldAfterRandomHistory) {
  const CombineFn combiner = sum_combiner();
  Rng rng(GetParam());
  FoldingTree tree(no_store_ctx(), combiner);
  std::deque<Leaf> window;
  SplitId next_id = 0;

  std::vector<Leaf> initial;
  for (int i = 0; i < 8; ++i) {
    initial.push_back(random_leaf(next_id++, rng, combiner));
  }
  for (const Leaf& l : initial) window.push_back(l);
  TreeUpdateStats stats;
  tree.initial_build(initial, &stats);

  for (int step = 0; step < 40; ++step) {
    const std::size_t remove = rng.next_below(window.size() + 1);
    const std::size_t add = rng.next_below(6);
    std::vector<Leaf> added;
    for (std::size_t i = 0; i < add; ++i) {
      added.push_back(random_leaf(next_id++, rng, combiner));
    }
    for (std::size_t i = 0; i < remove; ++i) window.pop_front();
    for (const Leaf& l : added) window.push_back(l);
    tree.apply_delta(remove, added, &stats);

    const std::vector<Leaf> current(window.begin(), window.end());
    ASSERT_EQ(*tree.root(), fold_leaves(current, combiner))
        << "diverged at step " << step << " (remove=" << remove
        << " add=" << add << " window=" << window.size() << ")";
    ASSERT_EQ(tree.leaf_count(), window.size());
  }
}

INSTANTIATE_TEST_SUITE_P(RandomHistories, FoldingTreeProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

// ---------------------------------------------------------------------------
// RandomizedFoldingTree

TEST(RandomizedFoldingTree, InitialBuildMatchesFold) {
  const CombineFn combiner = sum_combiner();
  RandomizedFoldingTree tree(no_store_ctx(), combiner);
  auto leaves = sequential_leaves(0, 17, combiner);
  TreeUpdateStats stats;
  tree.initial_build(leaves, &stats);
  EXPECT_EQ(*tree.root(), fold_leaves(leaves, combiner));
}

TEST(RandomizedFoldingTree, HeightTracksWindowAfterDrasticShrink) {
  const CombineFn combiner = sum_combiner();
  RandomizedFoldingTree tree(no_store_ctx(), combiner);
  TreeUpdateStats stats;
  tree.initial_build(sequential_leaves(0, 256, combiner), &stats);
  const int full_height = tree.height();

  tree.apply_delta(248, {}, &stats);  // window: 256 -> 8
  EXPECT_LT(tree.height(), full_height);
  EXPECT_EQ(tree.leaf_count(), 8u);
}

TEST(RandomizedFoldingTree, PreservesOrderWithNonCommutativeCombiner) {
  const CombineFn combiner = concat_combiner();
  RandomizedFoldingTree tree(no_store_ctx(), combiner);
  TreeUpdateStats stats;
  std::vector<Leaf> leaves;
  for (SplitId i = 0; i < 9; ++i) {
    leaves.push_back(make_leaf(i, {{"k", std::string(1, 'a' + char(i))}},
                               combiner));
  }
  tree.initial_build(leaves, &stats);
  EXPECT_EQ(*tree.root(), fold_leaves(leaves, combiner));
}

class RandomizedTreeProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RandomizedTreeProperty, MatchesFoldAfterRandomHistory) {
  const CombineFn combiner = sum_combiner();
  Rng rng(GetParam() * 977);
  RandomizedFoldingTree tree(no_store_ctx(), combiner);
  std::deque<Leaf> window;
  SplitId next_id = 0;

  std::vector<Leaf> initial;
  for (int i = 0; i < 12; ++i) {
    initial.push_back(random_leaf(next_id++, rng, combiner));
  }
  for (const Leaf& l : initial) window.push_back(l);
  TreeUpdateStats stats;
  tree.initial_build(initial, &stats);

  for (int step = 0; step < 30; ++step) {
    const std::size_t remove = rng.next_below(window.size() + 1);
    const std::size_t add = rng.next_below(8);
    std::vector<Leaf> added;
    for (std::size_t i = 0; i < add; ++i) {
      added.push_back(random_leaf(next_id++, rng, combiner));
    }
    for (std::size_t i = 0; i < remove; ++i) window.pop_front();
    for (const Leaf& l : added) window.push_back(l);
    tree.apply_delta(remove, added, &stats);

    const std::vector<Leaf> current(window.begin(), window.end());
    ASSERT_EQ(*tree.root(), fold_leaves(current, combiner))
        << "diverged at step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomHistories, RandomizedTreeProperty,
                         ::testing::Range<std::uint64_t>(1, 16));

TEST(RandomizedFoldingTree, ReusesInteriorAcrossSlides) {
  const CombineFn combiner = sum_combiner();
  RandomizedFoldingTree tree(no_store_ctx(), combiner);
  TreeUpdateStats build;
  tree.initial_build(sequential_leaves(0, 128, combiner), &build);
  TreeUpdateStats slide;
  tree.apply_delta(2, sequential_leaves(128, 2, combiner), &slide);
  // Interior groups away from both ends must be reused, so incremental
  // merges are a small fraction of the build.
  EXPECT_LT(slide.combiner_invocations, build.combiner_invocations / 4);
  EXPECT_GT(slide.combiner_reused, 0u);
}

// ---------------------------------------------------------------------------
// RotatingTree

TEST(RotatingTree, InitialBuildGroupsBuckets) {
  const CombineFn combiner = sum_combiner();
  RotatingTree tree(no_store_ctx(), combiner, /*bucket_width=*/2,
                    /*split_processing=*/false);
  auto leaves = sequential_leaves(0, 8, combiner);
  TreeUpdateStats stats;
  tree.initial_build(leaves, &stats);
  EXPECT_EQ(tree.bucket_count(), 4u);
  EXPECT_EQ(*tree.root(), fold_leaves(leaves, combiner));
}

TEST(RotatingTree, RotationReplacesOldestBucket) {
  const CombineFn combiner = sum_combiner();
  RotatingTree tree(no_store_ctx(), combiner, 2, false);
  auto leaves = sequential_leaves(0, 8, combiner);
  TreeUpdateStats stats;
  tree.initial_build(leaves, &stats);

  std::deque<Leaf> window(leaves.begin(), leaves.end());
  SplitId next_id = 8;
  for (int slide = 0; slide < 10; ++slide) {
    auto added = sequential_leaves(next_id, 2, combiner);
    next_id += 2;
    tree.apply_delta(2, added, &stats);
    window.pop_front();
    window.pop_front();
    for (const Leaf& l : added) window.push_back(l);
    const std::vector<Leaf> current(window.begin(), window.end());
    ASSERT_EQ(*tree.root(), fold_leaves(current, combiner))
        << "slide " << slide;
  }
}

TEST(RotatingTree, SlideRecomputesOnlyOnePath) {
  const CombineFn combiner = sum_combiner();
  RotatingTree tree(no_store_ctx(), combiner, 4, false);
  TreeUpdateStats build;
  tree.initial_build(sequential_leaves(0, 64, combiner), &build);  // 16 buckets
  TreeUpdateStats slide;
  tree.apply_delta(4, sequential_leaves(64, 4, combiner), &slide);
  // Bucket build: 3 merges; path: log2(16) = 4 merges.
  EXPECT_LE(slide.combiner_invocations, 3u + 4u);
}

TEST(RotatingTree, UnevenBucketSizes) {
  const CombineFn combiner = sum_combiner();
  RotatingTree tree(no_store_ctx(), combiner, 1, false);
  tree.set_initial_bucket_sizes({3, 1, 2});
  auto leaves = sequential_leaves(0, 6, combiner);
  TreeUpdateStats stats;
  tree.initial_build(leaves, &stats);
  EXPECT_EQ(tree.bucket_count(), 3u);

  // First slide must drop exactly the first bucket's 3 splits.
  auto added = sequential_leaves(6, 2, combiner);
  tree.apply_delta(3, added, &stats);
  std::vector<Leaf> window(leaves.begin() + 3, leaves.end());
  for (const Leaf& l : added) window.push_back(l);
  EXPECT_EQ(*tree.root(), fold_leaves(window, combiner));
  EXPECT_EQ(tree.leaf_count(), 5u);
}

TEST(RotatingTree, SplitProcessingUsesIntermediate) {
  const CombineFn combiner = sum_combiner();
  RotatingTree tree(no_store_ctx(), combiner, 2, /*split_processing=*/true);
  auto leaves = sequential_leaves(0, 16, combiner);  // 8 buckets
  TreeUpdateStats stats;
  tree.initial_build(leaves, &stats);
  EXPECT_FALSE(tree.has_precomputed_intermediate());

  TreeUpdateStats bg;
  tree.background_preprocess(&bg);
  EXPECT_TRUE(tree.has_precomputed_intermediate());
  EXPECT_GT(bg.combiner_invocations, 0u);

  std::deque<Leaf> window(leaves.begin(), leaves.end());
  SplitId next_id = 16;
  for (int slide = 0; slide < 6; ++slide) {
    auto added = sequential_leaves(next_id, 2, combiner);
    next_id += 2;
    TreeUpdateStats fg;
    tree.apply_delta(2, added, &fg);
    // Foreground with an intermediate: bucket build (1 merge) only; no
    // tree-path merges.
    EXPECT_LE(fg.combiner_invocations, 1u);
    EXPECT_EQ(tree.reduce_inputs().size(), 2u);

    window.pop_front();
    window.pop_front();
    for (const Leaf& l : added) window.push_back(l);
    const std::vector<Leaf> current(window.begin(), window.end());
    ASSERT_EQ(*tree.root(), fold_leaves(current, combiner))
        << "slide " << slide;

    TreeUpdateStats bg2;
    tree.background_preprocess(&bg2);
    ASSERT_TRUE(tree.has_precomputed_intermediate());
  }
}

TEST(RotatingTree, SkippedBackgroundFallsBackToForeground) {
  const CombineFn combiner = sum_combiner();
  RotatingTree tree(no_store_ctx(), combiner, 2, /*split_processing=*/true);
  auto leaves = sequential_leaves(0, 8, combiner);
  TreeUpdateStats stats;
  tree.initial_build(leaves, &stats);
  tree.background_preprocess(&stats);

  std::deque<Leaf> window(leaves.begin(), leaves.end());
  SplitId next_id = 8;
  // Two consecutive slides with no background in between: the second must
  // catch up in the foreground and still be correct.
  for (int slide = 0; slide < 2; ++slide) {
    auto added = sequential_leaves(next_id, 2, combiner);
    next_id += 2;
    tree.apply_delta(2, added, &stats);
    window.pop_front();
    window.pop_front();
    for (const Leaf& l : added) window.push_back(l);
  }
  const std::vector<Leaf> current(window.begin(), window.end());
  EXPECT_EQ(*tree.root(), fold_leaves(current, combiner));
}

// ---------------------------------------------------------------------------
// CoalescingTree

TEST(CoalescingTree, AppendsMatchFold) {
  const CombineFn combiner = sum_combiner();
  CoalescingTree tree(no_store_ctx(), combiner, /*split_processing=*/false);
  auto leaves = sequential_leaves(0, 4, combiner);
  TreeUpdateStats stats;
  tree.initial_build(leaves, &stats);

  std::vector<Leaf> all = leaves;
  SplitId next_id = 4;
  for (int step = 0; step < 5; ++step) {
    auto added = sequential_leaves(next_id, 3, combiner);
    next_id += 3;
    tree.apply_delta(0, added, &stats);
    for (const Leaf& l : added) all.push_back(l);
    ASSERT_EQ(*tree.root(), fold_leaves(all, combiner)) << "step " << step;
  }
  EXPECT_EQ(tree.leaf_count(), all.size());
}

TEST(CoalescingTree, RejectsRemovals) {
  const CombineFn combiner = sum_combiner();
  CoalescingTree tree(no_store_ctx(), combiner, false);
  TreeUpdateStats stats;
  tree.initial_build(sequential_leaves(0, 2, combiner), &stats);
  EXPECT_DEATH(tree.apply_delta(1, {}, &stats), "append-only");
}

TEST(CoalescingTree, AppendWorkIndependentOfHistorySize) {
  const CombineFn combiner = sum_combiner();
  CoalescingTree tree(no_store_ctx(), combiner, false);
  TreeUpdateStats stats;
  tree.initial_build(sequential_leaves(0, 100, combiner), &stats);
  TreeUpdateStats small;
  tree.apply_delta(0, sequential_leaves(100, 2, combiner), &small);
  // 2 new leaves: 1 merge to fold the batch + 1 coalesce with the root.
  EXPECT_EQ(small.combiner_invocations, 2u);
}

TEST(CoalescingTree, SplitProcessingDefersCoalesce) {
  const CombineFn combiner = sum_combiner();
  CoalescingTree tree(no_store_ctx(), combiner, /*split_processing=*/true);
  auto leaves = sequential_leaves(0, 4, combiner);
  TreeUpdateStats stats;
  tree.initial_build(leaves, &stats);

  auto added = sequential_leaves(4, 2, combiner);
  TreeUpdateStats fg;
  tree.apply_delta(0, added, &fg);
  EXPECT_TRUE(tree.has_pending_coalesce());
  EXPECT_EQ(fg.combiner_invocations, 1u);  // only the batch fold
  EXPECT_EQ(tree.reduce_inputs().size(), 2u);

  std::vector<Leaf> all = leaves;
  for (const Leaf& l : added) all.push_back(l);
  EXPECT_EQ(*tree.root(), fold_leaves(all, combiner));

  TreeUpdateStats bg;
  tree.background_preprocess(&bg);
  EXPECT_FALSE(tree.has_pending_coalesce());
  EXPECT_EQ(bg.combiner_invocations, 1u);  // the deferred coalesce
  EXPECT_EQ(*tree.root(), fold_leaves(all, combiner));
}

TEST(CoalescingTree, SkippedBackgroundCatchesUp) {
  const CombineFn combiner = sum_combiner();
  CoalescingTree tree(no_store_ctx(), combiner, /*split_processing=*/true);
  TreeUpdateStats stats;
  tree.initial_build(sequential_leaves(0, 2, combiner), &stats);

  std::vector<Leaf> all = sequential_leaves(0, 2, combiner);
  SplitId next_id = 2;
  for (int step = 0; step < 3; ++step) {  // no background between appends
    auto added = sequential_leaves(next_id, 2, combiner);
    next_id += 2;
    tree.apply_delta(0, added, &stats);
    for (const Leaf& l : added) all.push_back(l);
    ASSERT_EQ(*tree.root(), fold_leaves(all, combiner)) << "step " << step;
  }
}

// ---------------------------------------------------------------------------
// StrawmanTree

TEST(StrawmanTree, MatchesFoldAndReusesOnAppend) {
  const CombineFn combiner = sum_combiner();
  StrawmanTree tree(no_store_ctx(), combiner);
  auto leaves = sequential_leaves(0, 8, combiner);
  TreeUpdateStats build;
  tree.initial_build(leaves, &build);
  EXPECT_EQ(*tree.root(), fold_leaves(leaves, combiner));
  EXPECT_EQ(build.combiner_reused, 0u);

  TreeUpdateStats slide;
  tree.apply_delta(0, sequential_leaves(8, 1, combiner), &slide);
  std::vector<Leaf> all = leaves;
  all.push_back(sequential_leaves(8, 1, combiner)[0]);
  EXPECT_EQ(*tree.root(), fold_leaves(all, combiner));
  // Old leaves must be reused (their map outputs are memoized)...
  EXPECT_GE(slide.combiner_reused, 8u);
  // ...but the rebuild visits every node: linear, small constant.
  EXPECT_GE(slide.nodes_visited, 2u * all.size() - 1);
}

TEST(StrawmanTree, FrontDropDefeatsInternalReuse) {
  const CombineFn combiner = sum_combiner();
  StrawmanTree tree(no_store_ctx(), combiner);
  auto leaves = sequential_leaves(0, 64, combiner);
  TreeUpdateStats build;
  tree.initial_build(leaves, &build);

  TreeUpdateStats slide;
  tree.apply_delta(1, sequential_leaves(64, 1, combiner), &slide);
  // Leaf outputs are reused, but shifted subtree boundaries force most
  // internal merges to re-execute: work stays linear in the window.
  EXPECT_GT(slide.combiner_invocations, 32u);
  std::vector<Leaf> window(leaves.begin() + 1, leaves.end());
  window.push_back(sequential_leaves(64, 1, combiner)[0]);
  EXPECT_EQ(*tree.root(), fold_leaves(window, combiner));
}

class StrawmanProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StrawmanProperty, MatchesFoldAfterRandomHistory) {
  const CombineFn combiner = sum_combiner();
  Rng rng(GetParam() * 31);
  StrawmanTree tree(no_store_ctx(), combiner);
  std::deque<Leaf> window;
  SplitId next_id = 0;
  std::vector<Leaf> initial;
  for (int i = 0; i < 10; ++i) {
    initial.push_back(random_leaf(next_id++, rng, combiner));
  }
  for (const Leaf& l : initial) window.push_back(l);
  TreeUpdateStats stats;
  tree.initial_build(initial, &stats);
  for (int step = 0; step < 25; ++step) {
    const std::size_t remove = rng.next_below(window.size() + 1);
    const std::size_t add = rng.next_below(5);
    std::vector<Leaf> added;
    for (std::size_t i = 0; i < add; ++i) {
      added.push_back(random_leaf(next_id++, rng, combiner));
    }
    for (std::size_t i = 0; i < remove; ++i) window.pop_front();
    for (const Leaf& l : added) window.push_back(l);
    tree.apply_delta(remove, added, &stats);
    const std::vector<Leaf> current(window.begin(), window.end());
    ASSERT_EQ(*tree.root(), fold_leaves(current, combiner))
        << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomHistories, StrawmanProperty,
                         ::testing::Range<std::uint64_t>(1, 11));

// ---------------------------------------------------------------------------
// Cross-variant comparison: the efficiency claims of the paper, as tests.

TEST(TreeComparison, SliderBeatsStrawmanOnFixedWidthSlides) {
  const CombineFn combiner = sum_combiner();
  StrawmanTree strawman(no_store_ctx(), combiner);
  RotatingTree rotating(no_store_ctx(), combiner, 4, false);
  auto leaves = sequential_leaves(0, 128, combiner);
  TreeUpdateStats s1, s2;
  strawman.initial_build(leaves, &s1);
  rotating.initial_build(leaves, &s2);

  TreeUpdateStats straw_total, rot_total;
  SplitId next_id = 128;
  for (int slide = 0; slide < 8; ++slide) {
    auto added = sequential_leaves(next_id, 4, combiner);
    next_id += 4;
    strawman.apply_delta(4, added, &straw_total);
    rotating.apply_delta(4, added, &rot_total);
    ASSERT_EQ(*strawman.root(), *rotating.root());
  }
  EXPECT_LT(rot_total.combiner_invocations,
            straw_total.combiner_invocations / 3);
  EXPECT_LT(rot_total.rows_scanned, straw_total.rows_scanned);
}

}  // namespace
}  // namespace slider
