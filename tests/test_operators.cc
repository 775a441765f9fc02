// Unit tests for the relational query operators (src/query/operators.h),
// independent of pipelines: each operator's JobSpec must behave correctly
// under the vanilla engine, and its combiner must satisfy the tree
// algebra (associativity; commutativity where the rotating tree needs it).

#include <gtest/gtest.h>

#include "mapreduce/engine.h"
#include "query/operators.h"

namespace slider::query {
namespace {

struct Harness {
  Harness() : cluster(ClusterConfig{.num_machines = 4, .slots_per_machine = 2}),
              engine(cluster, cost) {}
  CostModel cost{};
  Cluster cluster;
  VanillaEngine engine;
};

std::map<std::string, std::string> run_flat(const VanillaEngine& engine,
                                            const JobSpec& job,
                                            std::vector<Record> records) {
  auto splits = make_splits(std::move(records), 2, 0);
  const JobResult result = engine.run(job, splits);
  std::map<std::string, std::string> flat;
  for (const KVTable& t : result.partition_outputs) {
    for (const RowView r : t.rows()) flat[std::string(r.key)] = r.value;
  }
  return flat;
}

TEST(Operators, FilterProjectKeepsAndReshapes) {
  Harness h;
  const JobSpec job = filter_project_job(
      "fp", [](const Record& r) -> std::optional<Record> {
        if (r.value.find("keep") == std::string::npos) return std::nullopt;
        return Record{"k/" + r.key, r.value};
      });
  const auto out = run_flat(h.engine, job,
                            {{"a", "keep-1"}, {"b", "drop"}, {"c", "keep-2"}});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.at("k/a"), "keep-1");
  EXPECT_EQ(out.count("k/b"), 0u);
}

TEST(Operators, GroupSumAggregates) {
  Harness h;
  const JobSpec job = group_sum_job(
      "gs", [](const Record& r) -> std::optional<Record> {
        return Record{r.value.substr(0, 1), r.value.substr(2)};
      });
  const auto out = run_flat(
      h.engine, job, {{"0", "x,5"}, {"1", "y,2"}, {"2", "x,10"}, {"3", "y,1"}});
  EXPECT_EQ(out.at("x"), "15");
  EXPECT_EQ(out.at("y"), "3");
}

TEST(Operators, DistinctDeduplicates) {
  Harness h;
  const JobSpec job = distinct_job(
      "d", [](const Record& r) -> std::optional<std::string> {
        return r.value;
      });
  const auto out =
      run_flat(h.engine, job, {{"0", "p"}, {"1", "q"}, {"2", "p"}, {"3", "p"}});
  EXPECT_EQ(out.size(), 2u);
  EXPECT_TRUE(out.count("p") == 1 && out.count("q") == 1);
}

TEST(Operators, TopKOrdersDescendingAndBounds) {
  Harness h;
  const JobSpec job = top_k_job("t", /*k=*/2);
  const auto out = run_flat(
      h.engine, job, {{"p1", "5"}, {"p2", "50"}, {"p3", "7"}, {"p4", "1"}});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.at("top"), "p2=50;p3=7");
}

TEST(Operators, TopKCombinerIsAssociativeAndCommutative) {
  const JobSpec job = top_k_job("t", 3);
  Emitter e;
  job.mapper->map({"a", "5"}, e);
  job.mapper->map({"b", "9"}, e);
  job.mapper->map({"c", "2"}, e);
  job.mapper->map({"d", "7"}, e);
  auto vs = e.take();
  ASSERT_EQ(vs.size(), 4u);
  const auto& c = job.combiner;
  const std::string k = "top";
  EXPECT_EQ(c(k, c(k, vs[0].value, vs[1].value), vs[2].value),
            c(k, vs[0].value, c(k, vs[1].value, vs[2].value)));
  EXPECT_EQ(c(k, vs[0].value, vs[3].value), c(k, vs[3].value, vs[0].value));
}

TEST(Operators, FrJoinEnrichesAndDrops) {
  auto table = std::make_shared<std::map<std::string, std::string>>();
  (*table)["u1"] = "gold";
  std::vector<Record> captured;
  const MapFn joined = fr_join(
      table, /*field=*/0, [&](const Record& r, Emitter&) {
        captured.push_back(r);
      });
  Emitter unused;
  joined({"k1", "u1,pageA"}, unused);
  joined({"k2", "u2,pageB"}, unused);  // no match: dropped
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0].value, "u1,pageA,gold");
}

TEST(Operators, FilterCombinerKeepsFirstDuplicate) {
  // filter/distinct may see the same key from different splits only with
  // identical values by construction; the keep-first combiner must be
  // idempotent and associative for such inputs.
  const JobSpec job = filter_project_job(
      "fp", [](const Record& r) -> std::optional<Record> { return r; });
  const auto& c = job.combiner;
  EXPECT_EQ(c("k", "v", "v"), "v");
  EXPECT_EQ(c("k", c("k", "v", "v"), "v"), c("k", "v", c("k", "v", "v")));
}

}  // namespace
}  // namespace slider::query
