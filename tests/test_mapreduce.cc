// Unit tests for the MapReduce engine: map runner (including its in-mapper
// combining against the sort-and-fold reference), reduce helpers, and the
// vanilla end-to-end path, using an inline word-count job.

#include <gtest/gtest.h>

#include <cmath>
#include <unordered_map>

#include "apps/cooccurrence.h"
#include "apps/glasnost.h"
#include "apps/microbench.h"
#include "apps/netsession.h"
#include "apps/twitter.h"
#include "common/string_util.h"
#include "mapreduce/engine.h"
#include "query/operators.h"
#include "query/pigmix.h"
#include "tests/test_util.h"

namespace slider {
namespace {

class WordCountMapper final : public Mapper {
 public:
  void map(const Record& input, Emitter& out) const override {
    for (const auto word : split_view(input.value, ' ')) {
      if (!word.empty()) out.emit(std::string(word), "1");
    }
  }
};

JobSpec word_count_job(int partitions = 2) {
  JobSpec job;
  job.name = "wordcount-test";
  job.mapper = std::make_shared<WordCountMapper>();
  job.combiner = testing::sum_combiner();
  job.reducer = [](const std::string&,
                   const std::string& v) -> std::optional<std::string> {
    return v;
  };
  job.num_partitions = partitions;
  return job;
}

TEST(MapRunner, PartitionsAndLocallyCombines) {
  const JobSpec job = word_count_job(4);
  const auto split = make_split(0, {{"d0", "a b a"}, {"d1", "b c"}});
  const MapOutput out = run_map_task(job, *split);
  ASSERT_EQ(out.partitions.size(), 4u);
  EXPECT_EQ(out.records_in, 2u);
  EXPECT_EQ(out.records_out, 3u);  // a, b, c after local combine
  EXPECT_GT(out.cpu_cost, 0.0);

  // Each word landed in exactly its hash partition with combined counts.
  std::map<std::string, std::string> flat;
  for (const auto& table : out.partitions) {
    for (const RowView r : table->rows()) flat[std::string(r.key)] = r.value;
  }
  EXPECT_EQ(flat["a"], "2");
  EXPECT_EQ(flat["b"], "2");
  EXPECT_EQ(flat["c"], "1");
}

TEST(MapRunner, EmptySplit) {
  const JobSpec job = word_count_job();
  const auto split = make_split(0, {});
  const MapOutput out = run_map_task(job, *split);
  EXPECT_EQ(out.records_out, 0u);
  for (const auto& table : out.partitions) EXPECT_TRUE(table->empty());
}

// Sort-and-fold reference for one map task: the raw records a collecting
// Emitter receives, bucketed by partition_of and folded by
// KVTable::from_records (stable sort by key, then a left fold per key).
std::vector<KVTable> sort_and_fold(const JobSpec& job, const InputSplit& split,
                                   std::size_t* emitted) {
  Emitter raw;
  for (const Record& r : split.records) job.mapper->map(r, raw);
  *emitted = raw.size();
  std::vector<std::vector<Record>> buckets(
      static_cast<std::size_t>(job.num_partitions));
  for (Record& r : raw.take()) {
    buckets[static_cast<std::size_t>(partition_of(r.key, job.num_partitions))]
        .push_back(std::move(r));
  }
  std::vector<KVTable> tables;
  for (std::vector<Record>& bucket : buckets) {
    tables.push_back(KVTable::from_records(std::move(bucket), job.combiner));
  }
  return tables;
}

// run_map_task must produce the reference's tables partition for partition,
// its row and byte counts, and a simulated charge priced on the emitted
// record count.
void expect_matches_sort_and_fold(const JobSpec& job,
                                  const InputSplit& split) {
  SCOPED_TRACE(job.name);
  std::size_t emitted = 0;
  const std::vector<KVTable> expected = sort_and_fold(job, split, &emitted);
  const MapOutput out = run_map_task(job, split);
  ASSERT_EQ(out.partitions.size(), expected.size());
  std::uint64_t records_out = 0;
  std::size_t bytes_out = 0;
  for (std::size_t p = 0; p < expected.size(); ++p) {
    EXPECT_EQ(*out.partitions[p], expected[p]) << "partition " << p;
    records_out += expected[p].size();
    bytes_out += expected[p].byte_size();
  }
  EXPECT_EQ(out.records_in, split.records.size());
  EXPECT_EQ(out.records_out, records_out);
  EXPECT_EQ(out.bytes_out, bytes_out);
  const double n = static_cast<double>(emitted);
  const double sort_factor = emitted > 1 ? std::log2(n) : 1.0;
  EXPECT_DOUBLE_EQ(
      out.cpu_cost,
      job.costs.map_cpu_per_record * static_cast<double>(split.records.size()) +
          job.costs.map_cpu_per_byte * static_cast<double>(split.byte_size) +
          job.costs.combine_cpu_per_row * n * sort_factor);
}

std::optional<std::string> page_view_field(const Record& r, std::size_t i) {
  const auto fields = split_view(r.value, ',');
  if (i >= fields.size()) return std::nullopt;
  return std::string(fields[i]);
}

TEST(MapRunnerFold, EveryShippedJobMatchesSortAndFold) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    for (const apps::MicroBenchmark& mb : apps::all_microbenchmarks()) {
      const auto split =
          make_split(0, apps::generate_input(mb.app, 60, rng, seed * 1000));
      expect_matches_sort_and_fold(mb.job, *split);
    }

    apps::GlasnostGenOptions glasnost;
    glasnost.seed = seed;
    expect_matches_sort_and_fold(
        apps::make_glasnost_job(),
        *make_split(0, apps::GlasnostGenerator(glasnost).next_month(80)));

    apps::NetSessionGenOptions netsession;
    netsession.clients = 300;
    netsession.seed = seed;
    expect_matches_sort_and_fold(
        apps::make_netsession_job(),
        *make_split(0, apps::NetSessionGenerator(netsession).next_week(0.6)));

    apps::TwitterGenOptions twitter;
    twitter.seed = seed;
    expect_matches_sort_and_fold(
        apps::make_twitter_job(),
        *make_split(0, apps::TwitterGenerator(twitter).next_batch(600)));

    // Matrix above runs co-occurrence at its defaults; widen the window.
    expect_matches_sort_and_fold(
        apps::make_cooccurrence_job(
            {.num_partitions = 5, .neighbor_distance = 4}),
        *make_split(0, apps::generate_input(apps::MicroApp::kMatrix, 60, rng)));

    // The query operators keep one value per key (first_value_combiner), so
    // a fold that reorders a key's values changes their output: key each
    // page view by page and keep the first viewer.
    query::PageViewGenOptions views;
    views.seed = seed;
    const auto page_views =
        make_split(0, query::PageViewGenerator(views).next_batch(500));
    expect_matches_sort_and_fold(
        query::filter_project_job(
            "first-viewer-per-page",
            [](const Record& r) -> std::optional<Record> {
              auto user = page_view_field(r, 0);
              auto page = page_view_field(r, 1);
              if (!user || !page) return std::nullopt;
              return Record{*std::move(page), *std::move(user) + "@" + r.key};
            }),
        *page_views);
    expect_matches_sort_and_fold(
        query::distinct_job("distinct-users",
                            [](const Record& r) { return page_view_field(r, 0); },
                            /*num_partitions=*/6),
        *page_views);
    for (const query::PigMixQuery& q : query::pigmix_queries()) {
      expect_matches_sort_and_fold(q.stages.front(), *page_views);
    }
  }
}

TEST(MapRunnerFold, FoldsEachKeyInEmissionOrder) {
  JobSpec job;
  job.name = "interleaved-concat";
  // Seven keys interleaved across three partitions: emission i of record r
  // goes to key i % 7 with value "r.i".
  job.mapper = std::make_shared<query::LambdaMapper>(
      [](const Record& r, Emitter& out) {
        for (int i = 0; i < 40; ++i) {
          out.emit("k" + std::to_string(i % 7),
                   r.key + "." + std::to_string(i));
        }
      });
  job.combiner = testing::concat_combiner();
  job.num_partitions = 3;
  const auto split = make_split(0, {{"a", ""}, {"b", ""}});

  std::map<std::string, std::string> expected;
  for (const char* r : {"a", "b"}) {
    for (int i = 0; i < 40; ++i) {
      std::string& v = expected["k" + std::to_string(i % 7)];
      if (!v.empty()) v += "|";
      v += std::string(r) + "." + std::to_string(i);
    }
  }

  const MapOutput out = run_map_task(job, *split);
  ASSERT_EQ(out.partitions.size(), 3u);
  std::size_t nonempty = 0;
  std::map<std::string, std::string> got;
  for (std::size_t p = 0; p < out.partitions.size(); ++p) {
    nonempty += out.partitions[p]->empty() ? 0 : 1;
    for (const RowView row : out.partitions[p]->rows()) {
      EXPECT_EQ(partition_of(row.key, job.num_partitions),
                static_cast<int>(p));
      got[std::string(row.key)] = row.value;
    }
  }
  EXPECT_GE(nonempty, 2u);
  EXPECT_EQ(got, expected);
  expect_matches_sort_and_fold(job, *split);
}

TEST(MapRunnerFold, FoldsFlatKernelLanesAndPoisonedKeys) {
  // A kSumU64 job whose combiner, unlike the strict lane decode, accepts
  // leading zeros. Each record's value lists the values its key (the
  // record's key) emits, in order. "007" fails the strict decode, so its
  // key must fold through the combiner from there on, whether it comes
  // first, in the middle, last or alone; the last two keys wrap.
  JobSpec job;
  job.name = "lanes-and-poison";
  job.mapper = std::make_shared<query::LambdaMapper>(
      [](const Record& r, Emitter& out) {
        for (const auto value : split_view(r.value, ' ')) {
          out.emit(r.key, std::string(value));
        }
      });
  job.combiner = testing::sum_combiner();
  job.traits.commutative = true;
  job.traits.exactly_associative = true;
  job.traits.flat_kernel = FlatKernel::kSumU64;
  ASSERT_TRUE(job.traits.flat_eligible());
  job.num_partitions = 3;
  const auto split = make_split(
      0, {{"ones", "1 1 1 1"},
          {"once", "1"},
          {"poison-first", "007 1 1"},
          {"poison-middle", "1 1 007 1 1"},
          {"poison-last", "1 1 007"},
          {"poison-alone", "007"},
          {"wraps", "18446744073709551615 1"},
          {"wraps-then-poison", "18446744073709551615 1 1 007"}});
  expect_matches_sort_and_fold(job, *split);

  std::map<std::string, std::string> got;
  for (const auto& table : run_map_task(job, *split).partitions) {
    for (const RowView row : table->rows()) got[std::string(row.key)] = row.value;
  }
  const std::map<std::string, std::string> expected = {
      {"ones", "4"},          {"once", "1"},
      {"poison-first", "9"},  {"poison-middle", "11"},
      {"poison-last", "9"},   {"poison-alone", "007"},
      {"wraps", "0"},         {"wraps-then-poison", "8"}};
  EXPECT_EQ(got, expected);
}

TEST(MapRunnerFold, GrowsAndProbesOverManyDistinctKeys) {
  // Each split record emits one key: the empty key for an empty record
  // value, otherwise the key of the decimal id it holds. Ids cycle through
  // short keys, keys with an embedded NUL, keys with high bytes, keys past
  // the small-string buffer, and keys whose 8-byte sort prefixes tie: keys
  // sharing their first 8 bytes, "ab1" and "ab1\0" (which zero-pad to the
  // same prefix) and "ab1", a prefix of "ab12". Ids below 7 give the bare
  // "a-key-lo", "ab" and "ab\0".
  const auto key_of = [](std::uint64_t id) {
    const std::string n = id < 7 ? "" : std::to_string(id / 7);
    switch (id % 7) {
      case 0:
        return std::to_string(id);
      case 1:
        return std::string("\0k", 2) + std::to_string(id);
      case 2:
        return std::string("\xff\x80") + std::to_string(id);
      case 3:
        return "a-key-longer-than-fifteen-bytes/" + std::to_string(id);
      case 4:
        return "a-key-lo" + n;
      case 5:
        return "ab" + n;
      default:
        return "ab" + n + std::string(1, '\0');
    }
  };
  JobSpec job;
  job.name = "many-distinct-keys";
  job.mapper = std::make_shared<query::LambdaMapper>(
      [key_of](const Record& r, Emitter& out) {
        std::uint64_t id = 0;
        out.emit(parse_u64(r.value, &id) ? key_of(id) : std::string(), r.key);
      });
  job.combiner = testing::concat_combiner();
  job.num_partitions = 5;

  // Every id once, then as many again drawn at random (120k emits), with
  // the empty key scattered through both.
  constexpr std::uint64_t kDistinct = 60'000;
  Rng rng(7);
  std::vector<Record> records;
  for (std::uint64_t i = 0; i < 2 * kDistinct; ++i) {
    const std::uint64_t id = i < kDistinct ? i : rng.next_below(kDistinct);
    records.push_back({std::to_string(i), std::to_string(id)});
    if (i % 9'973 == 0) records.push_back({std::to_string(i) + "e", ""});
  }
  const auto split = make_split(0, std::move(records));

  expect_matches_sort_and_fold(job, *split);
  const MapOutput out = run_map_task(job, *split);
  EXPECT_GE(out.records_out, 50'000u);
  const std::size_t empty_key = static_cast<std::size_t>(
      partition_of("", job.num_partitions));
  ASSERT_TRUE(out.partitions[empty_key]->find("").has_value());
}

TEST(MapRunnerFold, KeysSharingAHashTagStayInTheirPartitions) {
  // The Emitter's KeyIndex compares the top 32 bits of a key's hash before
  // the key itself, so two keys that share them probe the same chain even
  // when they hash to different partitions. Find such a pair: a birthday
  // search over about 2^16 keys.
  constexpr int kPartitions = 5;
  std::unordered_map<std::uint32_t, std::string> by_tag;
  std::string first;
  std::string second;
  for (std::uint64_t i = 0; second.empty(); ++i) {
    std::string key = "k" + std::to_string(i);
    const auto tag = static_cast<std::uint32_t>(hash_string(key) >> 32);
    const auto [it, fresh] = by_tag.emplace(tag, key);
    if (!fresh && partition_of(it->second, kPartitions) !=
                      partition_of(key, kPartitions)) {
      first = it->second;
      second = std::move(key);
    }
  }

  JobSpec job;
  job.name = "hash-tag-pair";
  job.mapper = std::make_shared<query::LambdaMapper>(
      [](const Record& r, Emitter& out) { out.emit(r.value, "1"); });
  job.combiner = testing::sum_combiner();
  job.num_partitions = kPartitions;
  // `second`'s partition is still empty when it first probes `first`'s
  // slot, whose row number is then out of range there.
  const auto split = make_split(
      0, {{"0", first}, {"1", second}, {"2", first}, {"3", second}});
  expect_matches_sort_and_fold(job, *split);
  const MapOutput out = run_map_task(job, *split);
  EXPECT_EQ(
      out.partitions[static_cast<std::size_t>(partition_of(first, kPartitions))]
          ->find(first)
          ->value,
      "2");
  EXPECT_EQ(
      out.partitions[static_cast<std::size_t>(partition_of(second, kPartitions))]
          ->find(second)
          ->value,
      "2");
}

TEST(ReduceRunner, MergeTablesBalances) {
  const CombineFn combiner = testing::sum_combiner();
  std::vector<std::shared_ptr<const KVTable>> tables;
  for (int i = 0; i < 8; ++i) {
    tables.push_back(std::make_shared<const KVTable>(
        KVTable::from_records({{"k", "1"}}, combiner)));
  }
  MergeCost cost;
  const auto merged = merge_tables(tables, combiner, &cost);
  EXPECT_EQ(merged->find("k")->value, "8");
  EXPECT_EQ(cost.merges, 7u);
}

TEST(ReduceRunner, ReduceAppliesAndFilters) {
  JobSpec job = word_count_job();
  job.reducer = [](const std::string& key,
                   const std::string& v) -> std::optional<std::string> {
    if (key == "drop-me") return std::nullopt;
    return "[" + v + "]";
  };
  const KVTable combined = KVTable::from_records(
      {{"drop-me", "1"}, {"keep", "5"}}, job.combiner);
  const ReduceOutput out = run_reduce(job, combined);
  EXPECT_EQ(out.keys_in, 2u);
  EXPECT_EQ(out.keys_out, 1u);
  EXPECT_EQ(out.table.find("keep")->value, "[5]");
}

TEST(VanillaEngine, EndToEndWordCount) {
  CostModel cost;
  Cluster cluster(ClusterConfig{.num_machines = 4, .slots_per_machine = 2});
  VanillaEngine engine(cluster, cost);
  const JobSpec job = word_count_job(2);

  std::vector<SplitPtr> splits = {
      make_split(0, {{"d0", "x y"}, {"d1", "x"}}),
      make_split(1, {{"d2", "y z y"}}),
  };
  const JobResult result = engine.run(job, splits);

  std::map<std::string, std::string> flat;
  for (const KVTable& table : result.partition_outputs) {
    for (const RowView r : table.rows()) flat[std::string(r.key)] = r.value;
  }
  EXPECT_EQ(flat["x"], "2");
  EXPECT_EQ(flat["y"], "3");
  EXPECT_EQ(flat["z"], "1");

  EXPECT_EQ(result.metrics.map_tasks, 2u);
  EXPECT_EQ(result.metrics.reduce_tasks, 2u);
  EXPECT_GT(result.metrics.map_work, 0.0);
  EXPECT_GT(result.metrics.time, 0.0);
  // Work is at least map + reduce with per-task overheads.
  EXPECT_GE(result.metrics.work(), 0.0);
}

TEST(VanillaEngine, WorkScalesWithInput) {
  CostModel cost;
  Cluster cluster(ClusterConfig{.num_machines = 4, .slots_per_machine = 2});
  VanillaEngine engine(cluster, cost);
  const JobSpec job = word_count_job(2);

  auto make_docs = [](std::size_t n, SplitId first) {
    std::vector<SplitPtr> splits;
    for (std::size_t i = 0; i < n; ++i) {
      splits.push_back(make_split(first + i, {{"d", "w x y z"}}));
    }
    return splits;
  };
  const auto small = engine.run(job, make_docs(4, 0));
  const auto large = engine.run(job, make_docs(32, 100));
  EXPECT_GT(large.metrics.work(), small.metrics.work() * 3);
}

TEST(VanillaEngine, DeterministicAcrossRuns) {
  CostModel cost;
  Cluster cluster(ClusterConfig{.num_machines = 4, .slots_per_machine = 2});
  VanillaEngine engine(cluster, cost);
  const JobSpec job = word_count_job(3);
  std::vector<SplitPtr> splits = {make_split(0, {{"d", "p q p"}})};
  const JobResult a = engine.run(job, splits);
  const JobResult b = engine.run(job, splits);
  for (std::size_t p = 0; p < a.partition_outputs.size(); ++p) {
    EXPECT_EQ(a.partition_outputs[p], b.partition_outputs[p]);
  }
  EXPECT_DOUBLE_EQ(a.metrics.work(), b.metrics.work());
  EXPECT_DOUBLE_EQ(a.metrics.time, b.metrics.time);
}

}  // namespace
}  // namespace slider
