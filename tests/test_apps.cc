// Application tests: codec round-trips, combiner algebra (associativity
// for every app, commutativity for the fixed-width-eligible ones), and
// end-to-end sanity of each micro-benchmark and case study.

#include <gtest/gtest.h>

#include <map>

#include "apps/codecs.h"
#include "apps/glasnost.h"
#include "apps/microbench.h"
#include "apps/netsession.h"
#include "apps/twitter.h"
#include "common/string_util.h"
#include "mapreduce/engine.h"

namespace slider::apps {
namespace {

// --- codecs -----------------------------------------------------------------

TEST(Codecs, VectorSumRoundTripAndAdd) {
  VectorSum v;
  v.sum_micro = {1'000'000, -2'500'000, 0};
  v.count = 3;
  const auto back = decode_vector_sum(encode_vector_sum(v));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->sum_micro, v.sum_micro);
  EXPECT_EQ(back->count, 3u);

  const VectorSum sum = add_vector_sums(v, *back);
  EXPECT_EQ(sum.count, 6u);
  EXPECT_EQ(sum.sum_micro[1], -5'000'000);
}

TEST(Codecs, HistogramRoundTripAddQuantile) {
  const Histogram h = {{1, 5}, {4, 10}, {9, 5}};
  EXPECT_EQ(decode_histogram(encode_histogram(h)), h);
  const Histogram sum = add_histograms(h, {{0, 1}, {4, 2}});
  EXPECT_EQ(sum.size(), 4u);
  EXPECT_EQ(histogram_quantile(h, 0.5), 4u);
  EXPECT_EQ(histogram_quantile({}, 0.5), 0u);
  // quantile * total rounds up to 2^64 here; the target clamps, so the
  // last bucket is the answer.
  EXPECT_EQ(histogram_quantile({{0, 1}, {1, UINT64_MAX - 1}}, 1.0), 1u);
}

TEST(Codecs, TopKRoundTripAndBound) {
  const std::vector<ScoredTag> a = {{1.5, "p1"}, {3.0, "p2"}};
  const std::vector<ScoredTag> b = {{0.5, "p3"}, {2.0, "p4"}};
  const auto merged = merge_topk(a, b, 3);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].tag, "p3");
  EXPECT_EQ(merged[2].tag, "p4");
  const auto round = decode_topk(encode_topk(merged));
  ASSERT_EQ(round.size(), 3u);
  EXPECT_EQ(round[1].tag, "p1");
}

TEST(Codecs, EventsMergeSortedByTime) {
  const std::vector<Event> a = {{1, "x>-"}, {5, "y>x"}};
  const std::vector<Event> b = {{3, "z>x"}};
  const auto merged = merge_events(a, b);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[1].tag, "z>x");
  EXPECT_EQ(decode_events(encode_events(merged)).size(), 3u);
}

TEST(Codecs, AuditRoundTripAndAdd) {
  const AuditCounters c{10, 2048, 4096, 1};
  const auto back = decode_audit(encode_audit(c));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->violations, 1u);
  const AuditCounters sum = add_audit(c, *back);
  EXPECT_EQ(sum.bytes_up, 4096u);
  EXPECT_FALSE(decode_audit("1,2,3").has_value());
}

// --- histogram kernels ------------------------------------------------------

// What add_encoded_histograms replaces.
std::string reference_add(const std::string& a, const std::string& b) {
  return encode_histogram(
      add_histograms(decode_histogram(a), decode_histogram(b)));
}

void expect_summary_matches_reference(const std::string& value,
                                      double quantile) {
  const Histogram h = decode_histogram(value);
  std::uint64_t total = 0;
  for (const auto& [bucket, count] : h) total += count;
  const HistogramSummary summary = summarize_encoded_histogram(value, quantile);
  EXPECT_EQ(summary.total, total) << value;
  EXPECT_EQ(summary.quantile_bucket, histogram_quantile(h, quantile))
      << value << " at " << quantile;
}

constexpr double kQuantiles[] = {0.0, 0.25, 0.5, 0.9, 1.0};

// Folds each key's mapper outputs with the kernel and the reference, then
// merges the folded values of neighbouring keys: every step must agree
// byte for byte, in both argument orders.
void expect_kernels_match_on(const std::vector<Record>& emitted) {
  std::map<std::string, std::vector<std::string>> by_key;
  for (const Record& r : emitted) by_key[r.key].push_back(r.value);
  ASSERT_GE(by_key.size(), 2u);
  std::vector<std::string> folded;
  for (const auto& [key, values] : by_key) {
    std::string acc;
    for (const std::string& v : values) {
      const std::string next = reference_add(acc, v);
      EXPECT_EQ(add_encoded_histograms(acc, v), next);
      EXPECT_EQ(add_encoded_histograms(v, acc), reference_add(v, acc));
      acc = next;
    }
    for (const double q : kQuantiles) expect_summary_matches_reference(acc, q);
    folded.push_back(std::move(acc));
  }
  for (std::size_t i = 1; i < folded.size(); ++i) {
    const std::string merged = add_encoded_histograms(folded[i - 1], folded[i]);
    EXPECT_EQ(merged, reference_add(folded[i - 1], folded[i]));
    for (const double q : kQuantiles) {
      expect_summary_matches_reference(merged, q);
    }
  }
}

TEST(HistogramKernels, MatchReferenceOnHctMapperOutput) {
  const MicroBenchmark bench = make_microbenchmark(MicroApp::kHct);
  Rng rng(11);
  Emitter emitter;
  for (const Record& r : generate_input(MicroApp::kHct, 200, rng)) {
    bench.job.mapper->map(r, emitter);
  }
  expect_kernels_match_on(emitter.take());
}

TEST(HistogramKernels, MatchReferenceOnGlasnostMapperOutput) {
  const JobSpec job = make_glasnost_job();
  GlasnostGenerator gen;
  Emitter emitter;
  for (const Record& r : gen.next_month(400)) job.mapper->map(r, emitter);
  expect_kernels_match_on(emitter.take());
}

// A text decode_histogram accepts, drawn to reach every case the kernels
// must reproduce: the empty value, leading zeros, unsorted and repeated
// buckets, buckets past 2^32 (truncated to uint32_t) and counts near 2^64
// (whose sums wrap). Half the values have strictly increasing buckets, the
// shape the apps produce.
std::string random_encoded_histogram(Rng& rng) {
  const bool sorted = rng.next_bool(0.5);
  const std::uint64_t entries = rng.next_below(9);
  std::uint64_t bucket = 0;
  std::string out;
  for (std::uint64_t i = 0; i < entries; ++i) {
    bucket = sorted ? bucket + 1 + rng.next_below(3) : rng.next_below(12);
    std::uint64_t written = bucket;
    if (rng.next_bool(0.1)) written += (1 + rng.next_below(4)) << 32;
    if (rng.next_bool(0.02)) written = rng.next_u64();
    std::uint64_t count = 1 + rng.next_below(100);
    if (rng.next_bool(0.1)) count = UINT64_MAX - rng.next_below(100);
    if (rng.next_bool(0.05)) count = 0;
    if (!out.empty()) out += ',';
    out.append(rng.next_bool(0.1) ? 1 + rng.next_below(3) : 0, '0');
    out += std::to_string(written);
    out += ':';
    out.append(rng.next_bool(0.1) ? 1 + rng.next_below(3) : 0, '0');
    out += std::to_string(count);
  }
  return out;
}

TEST(HistogramKernels, MatchReferenceOnRandomPairs) {
  Rng rng(13);
  for (int i = 0; i < 100'000; ++i) {
    const std::string a = random_encoded_histogram(rng);
    const std::string b = random_encoded_histogram(rng);
    ASSERT_EQ(add_encoded_histograms(a, b), reference_add(a, b))
        << "pair " << i << ": \"" << a << "\" + \"" << b << "\"";
    expect_summary_matches_reference(a, kQuantiles[i % std::size(kQuantiles)]);
  }
}

TEST(HistogramKernels, ResultCarriesNoSpareCapacity) {
  const std::string sum = add_encoded_histograms(
      "0:1,1:2,2:3,3:4,4:5,5:6,6:7,7:8", "0:10,2:20,4:30,6:40,8:50");
  EXPECT_EQ(sum, "0:11,1:2,2:23,3:4,4:35,5:6,6:47,7:8,8:50");
  // No more capacity than an exact-size copy of the same text.
  EXPECT_EQ(sum.capacity(), std::string(sum).capacity());
}

TEST(HistogramKernelDeathTest, RejectWhatDecodeRejects) {
  for (const char* bad :
       {"1", "1:", ":1", "1:2,", ",", "a:1", "1:2,,3:4", "+1:2", "1: 2",
        "1;2", "1:2;3:4", "1:18446744073709551616"}) {
    SCOPED_TRACE(bad);
    const std::string text = bad;
    EXPECT_DEATH(decode_histogram(text), "bad histogram");
    EXPECT_DEATH(add_encoded_histograms(text, ""), "bad histogram");
    EXPECT_DEATH(add_encoded_histograms("0:1", text), "bad histogram");
    EXPECT_DEATH(summarize_encoded_histogram(text, 0.5), "bad histogram");
  }
}

// --- combiner algebra --------------------------------------------------------

// Every shipped combiner must be associative; the fixed-width (rotating)
// path additionally needs commutativity, which all of them provide.
class CombinerAlgebra
    : public ::testing::TestWithParam<std::tuple<MicroApp, std::uint64_t>> {};

TEST_P(CombinerAlgebra, AssociativeAndCommutative) {
  const auto [app, seed] = GetParam();
  const MicroBenchmark bench = make_microbenchmark(app);
  Rng rng(seed);

  // Produce three real combinable values by running the mapper.
  auto records = generate_input(app, 30, rng);
  Emitter emitter;
  for (const Record& r : records) bench.job.mapper->map(r, emitter);
  auto emitted = emitter.take();
  ASSERT_GE(emitted.size(), 3u);

  // Find three values under the same key (combiners only ever see values
  // of one key).
  std::map<std::string, std::vector<std::string>> by_key;
  for (Record& r : emitted) by_key[r.key].push_back(std::move(r.value));
  const std::vector<std::string>* values = nullptr;
  std::string key;
  for (auto& [k, vs] : by_key) {
    if (vs.size() >= 3) {
      values = &vs;
      key = k;
      break;
    }
  }
  if (values == nullptr) GTEST_SKIP() << "no key with 3 values";

  const auto& c = bench.job.combiner;
  const std::string& x = (*values)[0];
  const std::string& y = (*values)[1];
  const std::string& z = (*values)[2];
  EXPECT_EQ(c(key, c(key, x, y), z), c(key, x, c(key, y, z)))
      << bench.name << " combiner is not associative";
  EXPECT_EQ(c(key, x, y), c(key, y, x))
      << bench.name << " combiner is not commutative";
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, CombinerAlgebra,
    ::testing::Combine(::testing::Values(MicroApp::kKMeans, MicroApp::kHct,
                                         MicroApp::kKnn, MicroApp::kMatrix,
                                         MicroApp::kSubStr),
                       ::testing::Values(1u, 2u, 3u)));

// --- micro-benchmark end-to-end ----------------------------------------------

struct EngineHarness {
  EngineHarness()
      : cluster(ClusterConfig{.num_machines = 4, .slots_per_machine = 2}),
        engine(cluster, cost) {}
  CostModel cost{};
  Cluster cluster;
  VanillaEngine engine;
};

TEST(MicroApps, RegistryListsAllFive) {
  const auto all = all_microbenchmarks();
  ASSERT_EQ(all.size(), 5u);
  EXPECT_EQ(all[0].name, "K-Means");
  EXPECT_TRUE(all[0].compute_intensive);
  EXPECT_EQ(all[4].name, "subStr");
  EXPECT_FALSE(all[4].compute_intensive);
}

TEST(MicroApps, KMeansProducesCentroids) {
  EngineHarness h;
  const auto bench = make_microbenchmark(MicroApp::kKMeans);
  Rng rng(5);
  auto splits = make_splits(generate_input(MicroApp::kKMeans, 200, rng), 50, 0);
  const JobResult result = h.engine.run(bench.job, splits);
  std::size_t centroids = 0;
  for (const KVTable& t : result.partition_outputs) centroids += t.size();
  EXPECT_GT(centroids, 0u);
  EXPECT_LE(centroids, 16u);  // at most K clusters
  for (const KVTable& t : result.partition_outputs) {
    for (const RowView r : t.rows()) {
      EXPECT_NE(r.value.find("#n="), std::string::npos);
    }
  }
}

TEST(MicroApps, KnnKeepsAtMostKNeighbors) {
  EngineHarness h;
  const auto bench = make_microbenchmark(MicroApp::kKnn);
  Rng rng(6);
  auto splits = make_splits(generate_input(MicroApp::kKnn, 120, rng), 40, 0);
  const JobResult result = h.engine.run(bench.job, splits);
  std::size_t queries = 0;
  for (const KVTable& t : result.partition_outputs) {
    for (const RowView r : t.rows()) {
      ++queries;
      EXPECT_LE(decode_topk(std::string(r.value)).size(), 8u);
    }
  }
  EXPECT_EQ(queries, 24u);  // one row per query point
}

TEST(MicroApps, SubstrDropsInfrequentNgrams) {
  EngineHarness h;
  const auto bench = make_microbenchmark(MicroApp::kSubStr);
  Rng rng(8);
  auto splits = make_splits(generate_input(MicroApp::kSubStr, 80, rng), 20, 0);
  const JobResult result = h.engine.run(bench.job, splits);
  for (const KVTable& t : result.partition_outputs) {
    for (const RowView r : t.rows()) {
      EXPECT_GE(decode_count(std::string(r.value)), 5u) << r.key;
    }
  }
}

TEST(MicroApps, MatrixCellsAreCanonical) {
  EngineHarness h;
  const auto bench = make_microbenchmark(MicroApp::kMatrix);
  Rng rng(9);
  auto splits = make_splits(generate_input(MicroApp::kMatrix, 40, rng), 20, 0);
  const JobResult result = h.engine.run(bench.job, splits);
  std::size_t cells = 0;
  for (const KVTable& t : result.partition_outputs) {
    for (const RowView r : t.rows()) {
      ++cells;
      const auto colon = r.key.find(':');
      ASSERT_NE(colon, std::string::npos);
      EXPECT_LE(r.key.substr(0, colon), r.key.substr(colon + 1));
    }
  }
  EXPECT_GT(cells, 0u);
}

// --- case studies -------------------------------------------------------------

TEST(TwitterCaseStudy, BuildsPropagationTrees) {
  EngineHarness h;
  const JobSpec job = make_twitter_job();
  TwitterGenerator gen;
  auto splits = make_splits(gen.next_batch(600), 100, 0);
  const JobResult result = h.engine.run(job, splits);

  std::size_t urls = 0;
  bool some_depth = false;
  for (const KVTable& t : result.partition_outputs) {
    for (const RowView r : t.rows()) {
      ++urls;
      EXPECT_EQ(r.key.rfind("url", 0), 0u);
      EXPECT_NE(r.value.find("nodes="), std::string::npos);
      if (r.value.find("depth=0") == std::string::npos) some_depth = true;
    }
  }
  EXPECT_GT(urls, 10u);
  EXPECT_TRUE(some_depth) << "no cascade ever propagated";
}

TEST(TwitterCaseStudy, CombinerIsAssociativeOnPostingLists) {
  const JobSpec job = make_twitter_job();
  const std::string a = encode_events({{1, "u1>-"}});
  const std::string b = encode_events({{2, "u2>u1"}});
  const std::string c = encode_events({{3, "u3>u1"}});
  EXPECT_EQ(job.combiner("url0", job.combiner("url0", a, b), c),
            job.combiner("url0", a, job.combiner("url0", b, c)));
  EXPECT_EQ(job.combiner("url0", a, b), job.combiner("url0", b, a));
}

TEST(GlasnostCaseStudy, MedianTracksServerDistance) {
  EngineHarness h;
  const JobSpec job = make_glasnost_job();
  GlasnostGenerator gen;
  auto splits = make_splits(gen.next_month(400), 50, 0);
  const JobResult result = h.engine.run(job, splits);

  std::size_t servers = 0;
  for (const KVTable& t : result.partition_outputs) {
    for (const RowView r : t.rows()) {
      ++servers;
      EXPECT_EQ(r.key.rfind("srv", 0), 0u);
      EXPECT_NE(r.value.find("median_min_rtt_ms="), std::string::npos);
    }
  }
  EXPECT_EQ(servers, 8u);
}

// CombinerAlgebra covers the micro-apps only; Glasnost shares HCT's
// histogram kernel, checked here on multi-bucket partials of real output.
TEST(GlasnostCaseStudy, CombinerIsAssociativeAndCommutative) {
  const JobSpec job = make_glasnost_job();
  GlasnostGenerator gen;
  Emitter emitter;
  for (const Record& r : gen.next_month(300)) job.mapper->map(r, emitter);
  std::map<std::string, std::vector<std::string>> by_key;
  for (Record& r : emitter.take()) by_key[r.key].push_back(std::move(r.value));
  ASSERT_EQ(by_key.size(), 8u);

  const auto& c = job.combiner;
  for (const auto& [key, values] : by_key) {
    std::string parts[3];
    for (std::size_t i = 0; i < values.size(); ++i) {
      parts[i % 3] = c(key, parts[i % 3], values[i]);
    }
    const auto& [x, y, z] = parts;
    EXPECT_EQ(c(key, c(key, x, y), z), c(key, x, c(key, y, z))) << key;
    EXPECT_EQ(c(key, x, y), c(key, y, x)) << key;
  }
}

TEST(NetSessionCaseStudy, FlagsViolatorsOnly) {
  EngineHarness h;
  const JobSpec job = make_netsession_job();
  NetSessionGenOptions options;
  options.clients = 200;
  options.violation_rate = 0.05;
  NetSessionGenerator gen(options);
  auto splits = make_splits(gen.next_week(1.0), 100, 0);
  const JobResult result = h.engine.run(job, splits);

  std::size_t flagged = 0;
  std::size_t ok = 0;
  for (const KVTable& t : result.partition_outputs) {
    for (const RowView r : t.rows()) {
      if (r.value.rfind("flagged", 0) == 0) {
        ++flagged;
        EXPECT_EQ(r.value.find("violations=0,"), std::string::npos);
      } else {
        ++ok;
      }
    }
  }
  EXPECT_GT(flagged, 0u);
  EXPECT_GT(ok, flagged);  // violators are the minority
}

TEST(NetSessionGenerator, UploadFractionShrinksWeek) {
  NetSessionGenerator gen_full{NetSessionGenOptions{.clients = 500}};
  NetSessionGenerator gen_partial{NetSessionGenOptions{.clients = 500}};
  const auto full = gen_full.next_week(1.0);
  const auto partial = gen_partial.next_week(0.5);
  EXPECT_GT(full.size(), partial.size());
  EXPECT_GT(partial.size(), full.size() / 4);
}

}  // namespace
}  // namespace slider::apps
