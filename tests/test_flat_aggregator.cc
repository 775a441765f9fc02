// Flat aggregation tier tests: the tier must be a drop-in replacement for
// a contraction tree — byte-identical root tables over any slide schedule
// — across kernels (unsigned sum, signed fixed-point sum), plus
// checkpoint/restore parity and malformed-checkpoint rejection,
// poison-fallback on non-canonical values, directory compaction, strict
// codec rules, and session routing.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/microbench.h"
#include "contraction/flat_aggregator.h"
#include "contraction/tree.h"
#include "data/combiner_traits.h"
#include "data/serde.h"
#include "durability/checkpoint.h"
#include "slider/session.h"
#include "tests/test_util.h"

namespace slider {
namespace {

using testing::fold_leaves;
using testing::make_leaf;
using testing::random_leaf;
using testing::sum_combiner;

CombineFn i64_sum_combiner() {
  return [](const std::string&, const std::string& a, const std::string& b) {
    flat::Lane x = 0;
    flat::Lane y = 0;
    SLIDER_CHECK(flat::decode_value(FlatKernel::kSumI64, a, &x));
    SLIDER_CHECK(flat::decode_value(FlatKernel::kSumI64, b, &y));
    return flat::encode_value(FlatKernel::kSumI64, x + y);
  };
}

CombinerTraits traits_for(FlatKernel kernel) {
  CombinerTraits t;
  t.commutative = true;
  t.exactly_associative = true;
  t.flat_kernel = kernel;
  return t;
}

MemoContext test_ctx() {
  MemoContext ctx;
  ctx.job_hash = 0xF1A7;
  ctx.partition = 0;
  return ctx;
}

TreeUpdateStats build_stats() {
  TreeUpdateStats s;
  s.cause = obs::WorkCause::kInitialBuild;
  s.passthrough_cause = obs::WorkCause::kInitialBuild;
  return s;
}

TreeUpdateStats slide_stats() {
  TreeUpdateStats s;
  s.cause = obs::WorkCause::kWindowAdd;
  s.passthrough_cause = obs::WorkCause::kWindowRemove;
  return s;
}

// Drives a FlatAggregator and a FoldingTree through the same slide
// schedule and asserts byte-identical roots after every operation.
void expect_matches_folding_tree(const CombineFn& combiner,
                                 FlatKernel kernel,
                                 const std::vector<std::vector<Leaf>>& batches,
                                 std::size_t window, std::size_t slide) {
  FlatAggregator flat_tier(test_ctx(), combiner, traits_for(kernel),
                           TreeOptions{.kind = TreeKind::kFolding});
  auto tree = make_tree(TreeOptions{.kind = TreeKind::kFolding}, test_ctx(),
                        combiner);

  SLIDER_CHECK(!batches.empty() && batches.front().size() == window);
  TreeUpdateStats s0 = build_stats();
  TreeUpdateStats s1 = build_stats();
  flat_tier.initial_build(batches.front(), &s0);
  tree->initial_build(batches.front(), &s1);
  ASSERT_NE(flat_tier.root(), nullptr);
  EXPECT_EQ(*flat_tier.root(), *tree->root()) << "initial build";

  for (std::size_t b = 1; b < batches.size(); ++b) {
    SLIDER_CHECK(batches[b].size() == slide);
    TreeUpdateStats d0 = slide_stats();
    TreeUpdateStats d1 = slide_stats();
    flat_tier.apply_delta(slide, batches[b], &d0);
    tree->apply_delta(slide, batches[b], &d1);
    EXPECT_EQ(*flat_tier.root(), *tree->root()) << "slide " << b;
    EXPECT_FALSE(flat_tier.poisoned());
  }
}

std::vector<std::vector<Leaf>> random_batches(const CombineFn& combiner,
                                              std::size_t window,
                                              std::size_t slide,
                                              std::size_t slides,
                                              std::uint64_t seed) {
  Rng rng(seed);
  SplitId next_id = 0;
  std::vector<std::vector<Leaf>> batches;
  std::vector<Leaf> initial;
  for (std::size_t i = 0; i < window; ++i) {
    initial.push_back(random_leaf(next_id++, rng, combiner));
  }
  batches.push_back(std::move(initial));
  for (std::size_t s = 0; s < slides; ++s) {
    std::vector<Leaf> added;
    for (std::size_t i = 0; i < slide; ++i) {
      added.push_back(random_leaf(next_id++, rng, combiner));
    }
    batches.push_back(std::move(added));
  }
  return batches;
}

TEST(FlatAggregator, SumKernelMatchesFoldingTree) {
  const CombineFn combiner = sum_combiner();
  expect_matches_folding_tree(
      combiner, FlatKernel::kSumU64,
      random_batches(combiner, /*window=*/12, /*slide=*/3, /*slides=*/6, 11),
      12, 3);
}

TEST(FlatAggregator, SignedFixedPointSumMatchesFoldingTree) {
  const CombineFn combiner = i64_sum_combiner();
  Rng rng(77);
  SplitId next_id = 0;
  auto make_signed_leaf = [&]() {
    std::vector<Record> rows;
    for (int i = 0; i < 5; ++i) {
      const auto magnitude = static_cast<std::int64_t>(rng.next_below(500000));
      const std::int64_t value =
          rng.next_below(2) == 0 ? magnitude : -magnitude;
      rows.push_back({"k" + std::to_string(rng.next_below(10)),
                      std::to_string(value)});
    }
    return make_leaf(next_id++, std::move(rows), combiner);
  };
  std::vector<std::vector<Leaf>> batches;
  std::vector<Leaf> initial;
  for (int i = 0; i < 10; ++i) initial.push_back(make_signed_leaf());
  batches.push_back(std::move(initial));
  for (int s = 0; s < 5; ++s) {
    std::vector<Leaf> added;
    for (int i = 0; i < 2; ++i) added.push_back(make_signed_leaf());
    batches.push_back(std::move(added));
  }
  expect_matches_folding_tree(combiner, FlatKernel::kSumI64, batches, 10, 2);
}

// Heavy key churn: every leaf brings fresh keys, so evicted leaves leave
// dead directory slots behind and the tier must compact (and keep
// matching the tree bit-for-bit while doing so).
TEST(FlatAggregator, DirectoryCompactionUnderKeyChurn) {
  const CombineFn combiner = sum_combiner();
  Rng rng(5);
  SplitId next_id = 0;
  auto churn_leaf = [&]() {
    std::vector<Record> rows;
    for (int j = 0; j < 10; ++j) {
      rows.push_back({"u" + std::to_string(next_id) + "_" + std::to_string(j),
                      std::to_string(rng.next_below(100))});
    }
    return make_leaf(next_id++, std::move(rows), combiner);
  };
  FlatAggregator flat_tier(test_ctx(), combiner,
                           traits_for(FlatKernel::kSumU64),
                           TreeOptions{.kind = TreeKind::kFolding});
  auto tree = make_tree(TreeOptions{.kind = TreeKind::kFolding}, test_ctx(),
                        combiner);
  std::vector<Leaf> initial;
  for (int i = 0; i < 8; ++i) initial.push_back(churn_leaf());
  TreeUpdateStats s0 = build_stats();
  TreeUpdateStats s1 = build_stats();
  flat_tier.initial_build(initial, &s0);
  tree->initial_build(initial, &s1);
  // 30 slides × 2 leaves × 10 fresh keys: far past the compaction
  // threshold, so the directory must have been rebuilt at least once.
  for (int s = 0; s < 30; ++s) {
    std::vector<Leaf> added = {churn_leaf(), churn_leaf()};
    TreeUpdateStats d0 = slide_stats();
    TreeUpdateStats d1 = slide_stats();
    flat_tier.apply_delta(2, added, &d0);
    tree->apply_delta(2, added, &d1);
    ASSERT_EQ(*flat_tier.root(), *tree->root()) << "slide " << s;
  }
}

// A value the strict codec rejects must demote the partition to the
// fallback tree — same answers, tree-tier costs — rather than crash or
// mis-aggregate.
TEST(FlatAggregator, NonCanonicalValuePoisonsToFallbackTree) {
  const CombineFn combiner = sum_combiner();
  FlatAggregator flat_tier(test_ctx(), combiner,
                           traits_for(FlatKernel::kSumU64),
                           TreeOptions{.kind = TreeKind::kFolding});
  auto tree = make_tree(TreeOptions{.kind = TreeKind::kFolding}, test_ctx(),
                        combiner);

  Rng rng(9);
  std::vector<Leaf> initial;
  for (SplitId id = 0; id < 6; ++id) {
    initial.push_back(random_leaf(id, rng, combiner));
  }
  TreeUpdateStats s0 = build_stats();
  TreeUpdateStats s1 = build_stats();
  flat_tier.initial_build(initial, &s0);
  tree->initial_build(initial, &s1);
  EXPECT_FALSE(flat_tier.poisoned());
  EXPECT_EQ(flat_tier.kind(), "flat");

  // "007" parses as 7 but does not round-trip; the tier must not re-encode
  // someone else's bytes.
  std::vector<Leaf> added = {
      make_leaf(6, {{"zz", "007"}}, combiner),
      random_leaf(7, rng, combiner),
  };
  TreeUpdateStats d0 = slide_stats();
  TreeUpdateStats d1 = slide_stats();
  flat_tier.apply_delta(2, added, &d0);
  tree->apply_delta(2, added, &d1);
  EXPECT_TRUE(flat_tier.poisoned());
  EXPECT_EQ(flat_tier.kind(), "folding");
  EXPECT_EQ(*flat_tier.root(), *tree->root());

  // Later slides keep delegating to the inner tree.
  std::vector<Leaf> more = {random_leaf(8, rng, combiner),
                            random_leaf(9, rng, combiner)};
  TreeUpdateStats e0 = slide_stats();
  TreeUpdateStats e1 = slide_stats();
  flat_tier.apply_delta(2, more, &e0);
  tree->apply_delta(2, more, &e1);
  EXPECT_EQ(*flat_tier.root(), *tree->root());
}

// serialize() -> restore() on a fresh instance must reproduce the root
// byte-for-byte and keep matching the original over subsequent slides.
class FlatAggregatorCheckpoint : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: ctest runs these in parallel processes.
    temp_.emplace(
        std::string("slider_flat_ckpt_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
  }
  void TearDown() override { temp_.reset(); }

  // Writes `writer` as a manifest and restores a fresh sum-kernel tier
  // from it; null when restore() rejects the blob.
  std::unique_ptr<FlatAggregator> restore_from(
      const durability::CheckpointWriter& writer) {
    const std::string path = (temp_->path / "flat.slckpt").string();
    EXPECT_TRUE(writer.write_manifest(path));
    auto reader = durability::CheckpointReader::open(path, {});
    EXPECT_NE(reader, nullptr);
    if (reader == nullptr) return nullptr;
    auto restored = std::make_unique<FlatAggregator>(
        test_ctx(), sum_combiner(), traits_for(FlatKernel::kSumU64),
        TreeOptions{.kind = TreeKind::kFolding});
    if (!restored->restore(*reader)) return nullptr;
    EXPECT_TRUE(reader->done());
    return restored;
  }

  std::optional<testing::TempDir> temp_;
};

TEST_F(FlatAggregatorCheckpoint, SumKernelRoundTrips) {
  const CombineFn combiner = sum_combiner();
  FlatAggregator original(test_ctx(), combiner,
                          traits_for(FlatKernel::kSumU64),
                          TreeOptions{.kind = TreeKind::kFolding});

  Rng rng(31);
  SplitId next_id = 0;
  std::vector<Leaf> initial;
  for (int i = 0; i < 10; ++i) {
    initial.push_back(random_leaf(next_id++, rng, combiner));
  }
  TreeUpdateStats s = build_stats();
  original.initial_build(initial, &s);
  for (int slide = 0; slide < 2; ++slide) {
    std::vector<Leaf> added = {random_leaf(next_id++, rng, combiner),
                               random_leaf(next_id++, rng, combiner),
                               random_leaf(next_id++, rng, combiner)};
    TreeUpdateStats d = slide_stats();
    original.apply_delta(3, added, &d);
  }

  durability::CheckpointWriter writer;  // no durable tier: inline payloads
  original.serialize(writer);
  const std::unique_ptr<FlatAggregator> restored = restore_from(writer);
  ASSERT_NE(restored, nullptr);
  ASSERT_NE(restored->root(), nullptr);
  EXPECT_EQ(*restored->root(), *original.root());
  EXPECT_EQ(restored->leaf_count(), original.leaf_count());

  // Both instances keep producing identical roots after the restart.
  for (int slide = 0; slide < 3; ++slide) {
    std::vector<Leaf> added = {random_leaf(next_id, rng, combiner)};
    ++next_id;
    TreeUpdateStats d0 = slide_stats();
    TreeUpdateStats d1 = slide_stats();
    original.apply_delta(1, added, &d0);
    restored->apply_delta(1, added, &d1);
    EXPECT_EQ(*original.root(), *restored->root())
        << "post-restore slide " << slide;
    // Identical charges too: a restored tier must do the same
    // delta-proportional work, not a hidden rebuild.
    EXPECT_EQ(d0.combiner_invocations, d1.combiner_invocations);
    EXPECT_EQ(d0.combiner_reused, d1.combiner_reused);
    EXPECT_EQ(d0.nodes_visited, d1.nodes_visited);
  }
}

// Hand-built blobs in serialize()'s layout: [u8 poisoned = 0]
// [u32 key count][keys][u32 element count][per element: u64 split id,
// node]. restore() must refuse a directory that names a key twice and an
// element row whose key the directory lacks.
void put_unpoisoned_blob(durability::CheckpointWriter& writer,
                         const std::vector<std::string>& directory,
                         const KVTable& element) {
  std::string& blob = writer.blob();
  wire::put_u8(blob, 0);
  wire::put_u32(blob, static_cast<std::uint32_t>(directory.size()));
  for (const std::string& key : directory) wire::put_bytes(blob, key);
  wire::put_u32(blob, 1);
  wire::put_u64(blob, 0);
  writer.put_node(0, &element);
}

TEST_F(FlatAggregatorCheckpoint, AcceptsWellFormedHandBuiltBlob) {
  durability::CheckpointWriter writer;
  const KVTable root =
      KVTable::from_records({{"a", "1"}, {"b", "2"}}, sum_combiner());
  put_unpoisoned_blob(writer, {"a", "b"}, root);
  const std::unique_ptr<FlatAggregator> restored = restore_from(writer);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(*restored->root(), root);
}

TEST_F(FlatAggregatorCheckpoint, RejectsDuplicatedDirectoryKey) {
  durability::CheckpointWriter writer;
  put_unpoisoned_blob(
      writer, {"a", "b", "a"},
      KVTable::from_records({{"a", "1"}, {"b", "2"}}, sum_combiner()));
  EXPECT_EQ(restore_from(writer), nullptr);
}

TEST_F(FlatAggregatorCheckpoint, RejectsRowKeyMissingFromDirectory) {
  durability::CheckpointWriter writer;
  put_unpoisoned_blob(
      writer, {"a", "b"},
      KVTable::from_records({{"a", "1"}, {"c", "2"}}, sum_combiner()));
  EXPECT_EQ(restore_from(writer), nullptr);
}

// --- strict canonical codec --------------------------------------------------

TEST(FlatKernelCodec, RejectsNonCanonicalEncodings) {
  flat::Lane lane = 0;
  for (const char* bad : {"", "007", "-0", "1x", " 1", "+1", "0 ",
                          "18446744073709551616", "99999999999999999999"}) {
    EXPECT_FALSE(flat::decode_value(FlatKernel::kSumU64, bad, &lane)) << bad;
  }
  for (const char* bad : {"", "-", "--1", "-007", "-0", "007",
                          "9223372036854775808", "-9223372036854775809"}) {
    EXPECT_FALSE(flat::decode_value(FlatKernel::kSumI64, bad, &lane)) << bad;
  }
}

TEST(FlatKernelCodec, RoundTripsCanonicalValues) {
  for (const char* text : {"0", "1", "42", "18446744073709551615"}) {
    flat::Lane lane = 0;
    ASSERT_TRUE(flat::decode_value(FlatKernel::kSumU64, text, &lane)) << text;
    EXPECT_EQ(flat::encode_value(FlatKernel::kSumU64, lane), text);
  }
  for (const char* text : {"0", "-1", "42", "9223372036854775807",
                           "-9223372036854775808"}) {
    flat::Lane lane = 0;
    ASSERT_TRUE(flat::decode_value(FlatKernel::kSumI64, text, &lane)) << text;
    EXPECT_EQ(flat::encode_value(FlatKernel::kSumI64, lane), text);
  }
}

TEST(FlatKernelCodec, EligibilityRequiresFullAlgebra) {
  CombinerTraits t;
  EXPECT_FALSE(t.flat_eligible());  // default: no kernel
  t = traits_for(FlatKernel::kSumU64);
  EXPECT_TRUE(t.flat_eligible());
  t.commutative = false;
  EXPECT_FALSE(t.flat_eligible());
  t = traits_for(FlatKernel::kSumU64);
  t.exactly_associative = false;  // e.g. raw IEEE doubles
  EXPECT_FALSE(t.flat_eligible());
}

// --- session routing --------------------------------------------------------

struct RoutingHarness {
  RoutingHarness()
      : cluster(ClusterConfig{.num_machines = 4, .slots_per_machine = 2}),
        engine(cluster, cost),
        memo(cluster, cost) {}

  CostModel cost{};
  Cluster cluster;
  VanillaEngine engine;
  MemoStore memo;
};

TEST(FlatTierRouting, EligibleCombinerRoutesToFlatTier) {
  RoutingHarness h;
  const auto bench = apps::make_microbenchmark(apps::MicroApp::kSubStr);
  ASSERT_TRUE(bench.job.traits.flat_eligible());
  SliderConfig config;
  config.mode = WindowMode::kVariableWidth;
  SliderSession session(h.engine, h.memo, bench.job, config);
  for (int p = 0; p < bench.job.num_partitions; ++p) {
    EXPECT_EQ(session.describe_tree(p).kind, "flat") << "partition " << p;
  }
}

TEST(FlatTierRouting, ExplicitTreeKindAlwaysWins) {
  RoutingHarness h;
  const auto bench = apps::make_microbenchmark(apps::MicroApp::kSubStr);
  SliderConfig config;
  config.mode = WindowMode::kVariableWidth;
  config.tree_kind = TreeKind::kRandomizedFolding;
  SliderSession session(h.engine, h.memo, bench.job, config);
  EXPECT_EQ(session.describe_tree(0).kind, "randomized-folding");
}

TEST(FlatTierRouting, DisabledTierAndIneligibleCombinersStayOnTrees) {
  RoutingHarness h;
  const auto substr = apps::make_microbenchmark(apps::MicroApp::kSubStr);
  SliderConfig config;
  config.mode = WindowMode::kVariableWidth;
  config.enable_flat_tier = false;
  SliderSession off(h.engine, h.memo, substr.job, config);
  EXPECT_EQ(off.describe_tree(0).kind, "folding");

  // hct's histogram combiner declares no flat kernel.
  const auto hct = apps::make_microbenchmark(apps::MicroApp::kHct);
  ASSERT_FALSE(hct.job.traits.flat_eligible());
  SliderConfig on;
  on.mode = WindowMode::kVariableWidth;
  SliderSession ineligible(h.engine, h.memo, hct.job, on);
  EXPECT_EQ(ineligible.describe_tree(0).kind, "folding");
}

}  // namespace
}  // namespace slider
