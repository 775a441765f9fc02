// Pig-Latin front-end tests: tokenizing/parsing, stage-fusion shapes,
// error reporting, and end-to-end equivalence of compiled queries with
// hand-built pipelines, including incremental execution.

#include <gtest/gtest.h>

#include "query/pig_parser.h"
#include "query/pigmix.h"
#include "query/pipeline.h"

namespace slider::query {
namespace {

struct Harness {
  Harness() : cluster(ClusterConfig{.num_machines = 8, .slots_per_machine = 2}),
              engine(cluster, cost),
              memo(cluster, cost) {}

  CostModel cost{};
  Cluster cluster;
  VanillaEngine engine;
  MemoStore memo;
};

// Page-view value layout: user,page,action,timespent,revenue
constexpr char kTopPagesScript[] = R"(
  views  = LOAD 'pageviews';
  pure   = FILTER views BY $2 == 'v';           -- keep page views
  pairs  = FOREACH pure GENERATE $1, 1;
  counts = GROUP pairs SUM;
  top    = ORDER counts DESC LIMIT 25;
  STORE top;
)";

TEST(PigCompiler, CompilesStageShapes) {
  PigCompiler compiler;
  const CompiledQuery q = compiler.compile(kTopPagesScript);
  EXPECT_EQ(q.output_relation, "top");
  // FILTER+FOREACH fuse into GROUP's map; ORDER is its own stage.
  ASSERT_EQ(q.stages.size(), 2u);
  EXPECT_NE(q.stages[0].name.find("counts"), std::string::npos);
  EXPECT_NE(q.stages[1].name.find("top"), std::string::npos);
}

TEST(PigCompiler, CompiledQueryMatchesHandWrittenPipeline) {
  Harness h;
  PigCompiler compiler;
  const CompiledQuery compiled = compiler.compile(kTopPagesScript);
  const PigMixQuery hand = pigmix_queries()[0];  // same query, hand-built

  PageViewGenerator gen;
  auto splits = make_splits(gen.next_batch(600), 60, 0);

  const PipelineResult from_pig =
      vanilla_pipeline_run(h.engine, compiled.stages, splits);
  const PipelineResult from_hand =
      vanilla_pipeline_run(h.engine, hand.stages, splits);

  ASSERT_EQ(from_pig.output.size(), from_hand.output.size());
  for (std::size_t p = 0; p < from_pig.output.size(); ++p) {
    EXPECT_EQ(from_pig.output[p], from_hand.output[p]);
  }
}

TEST(PigCompiler, CompiledQueryRunsIncrementally) {
  Harness h;
  PigCompiler compiler;
  const CompiledQuery compiled = compiler.compile(kTopPagesScript);

  PipelineConfig config;
  config.first_stage.mode = WindowMode::kFixedWidth;
  config.first_stage.bucket_width = 2;
  QueryPipeline pipeline(h.engine, h.memo, compiled.stages, config);

  PageViewGenerator gen;
  auto splits = make_splits(gen.next_batch(12 * 50), 50, 0);
  std::vector<SplitPtr> window = splits;
  pipeline.initial_run(splits);

  for (int slide = 0; slide < 2; ++slide) {
    auto added = make_splits(gen.next_batch(2 * 50), 50, 12 + 2 * slide);
    pipeline.slide(2, added);
    window.erase(window.begin(), window.begin() + 2);
    for (const auto& s : added) window.push_back(s);
    const PipelineResult scratch =
        vanilla_pipeline_run(h.engine, compiled.stages, window);
    for (std::size_t p = 0; p < scratch.output.size(); ++p) {
      ASSERT_EQ(pipeline.output()[p], scratch.output[p]) << "slide " << slide;
    }
  }
}

TEST(PigCompiler, JoinAgainstRegisteredTable) {
  Harness h;
  PigCompiler compiler;
  auto segments = std::make_shared<SideTable>();
  (*segments)["u1"] = "segA";
  (*segments)["u2"] = "segB";
  compiler.register_table("segments", segments);

  const CompiledQuery q = compiler.compile(R"(
    views  = LOAD 'pageviews';
    joined = JOIN views BY $0 WITH 'segments';
    pairs  = FOREACH joined GENERATE $5, $3;    -- (segment, timespent)
    usage  = GROUP pairs SUM;
    STORE usage;
  )");
  ASSERT_EQ(q.stages.size(), 1u);

  // u1: 10+5, u2: 7, u3 dropped by the inner join.
  std::vector<Record> records = {
      {"000", "u1,pg1,v,10,0"},
      {"001", "u1,pg2,v,5,0"},
      {"002", "u2,pg1,v,7,0"},
      {"003", "u3,pg1,v,100,0"},
  };
  auto splits = make_splits(std::move(records), 2, 0);
  const PipelineResult result =
      vanilla_pipeline_run(h.engine, q.stages, splits);
  std::map<std::string, std::string> flat;
  for (const KVTable& t : result.output) {
    for (const RowView r : t.rows()) flat[std::string(r.key)] = r.value;
  }
  EXPECT_EQ(flat["segA"], "15");
  EXPECT_EQ(flat["segB"], "7");
  EXPECT_EQ(flat.count("u3"), 0u);
}

TEST(PigCompiler, DistinctAndCountPipeline) {
  Harness h;
  const CompiledQuery q = PigCompiler().compile(R"(
    views = LOAD 'pageviews';
    pairs = FOREACH views GENERATE $1 & '/' & $0, 1;
    uniq  = DISTINCT pairs;
    per_page = FOREACH uniq GENERATE $key, 1;
    -- $key of a distinct row is "page/user"; count rows per page needs a
    -- second projection stage keyed by the page prefix. Keep it simple:
    -- count distinct pairs overall.
    n = GROUP per_page COUNT;
    STORE n;
  )");
  ASSERT_EQ(q.stages.size(), 2u);

  std::vector<Record> records = {
      {"000", "u1,pg1,v,1,0"},
      {"001", "u1,pg1,v,2,0"},  // duplicate (pg1,u1)
      {"002", "u2,pg1,v,3,0"},
      {"003", "u1,pg2,v,4,0"},
  };
  auto splits = make_splits(std::move(records), 2, 0);
  const PipelineResult result =
      vanilla_pipeline_run(h.engine, q.stages, splits);
  std::size_t keys = 0;
  for (const KVTable& t : result.output) keys += t.size();
  EXPECT_EQ(keys, 3u);  // pg1/u1, pg1/u2, pg2/u1
}

TEST(PigCompiler, MapOnlyQuery) {
  Harness h;
  const CompiledQuery q = PigCompiler().compile(
      "v = LOAD 'x'; f = FILTER v BY $2 == 'p'; STORE f;");
  ASSERT_EQ(q.stages.size(), 1u);
  std::vector<Record> records = {{"000", "u1,pg1,p,1,9"},
                                 {"001", "u1,pg2,v,1,0"}};
  auto splits = make_splits(std::move(records), 2, 0);
  const PipelineResult result =
      vanilla_pipeline_run(h.engine, q.stages, splits);
  std::size_t rows = 0;
  for (const KVTable& t : result.output) rows += t.size();
  EXPECT_EQ(rows, 1u);
}

TEST(PigCompiler, NumericComparisonInFilter) {
  Harness h;
  const CompiledQuery q = PigCompiler().compile(R"(
    v = LOAD 'x';
    big = FILTER v BY $3 > 50;
    pairs = FOREACH big GENERATE $1, $3;
    s = GROUP pairs SUM;
    STORE s;
  )");
  std::vector<Record> records = {{"000", "u1,pg1,v,100,0"},
                                 {"001", "u2,pg1,v,9,0"},  // 9 < 50 numerically
                                 {"002", "u3,pg1,v,60,0"}};
  auto splits = make_splits(std::move(records), 3, 0);
  const PipelineResult result =
      vanilla_pipeline_run(h.engine, q.stages, splits);
  std::map<std::string, std::string> flat;
  for (const KVTable& t : result.output) {
    for (const RowView r : t.rows()) flat[std::string(r.key)] = r.value;
  }
  EXPECT_EQ(flat["pg1"], "160");
}

// --- error reporting ----------------------------------------------------------

TEST(PigCompiler, ReportsParseErrors) {
  PigCompiler compiler;
  EXPECT_THROW(compiler.compile("v = LOAD 'x'"), PigParseError);  // no STORE
  EXPECT_THROW(compiler.compile("v = BOGUS x; STORE v;"), PigParseError);
  EXPECT_THROW(compiler.compile("v = LOAD 'x'; STORE w;"), PigParseError);
  EXPECT_THROW(compiler.compile("v = LOAD 'x'; v = LOAD 'y'; STORE v;"),
               PigParseError);
  EXPECT_THROW(compiler.compile("v = LOAD 'x'; STORE v; STORE v;"),
               PigParseError);
  EXPECT_THROW(
      compiler.compile("v = LOAD 'x'; f = FILTER v BY $9 ~ 'a'; STORE f;"),
      PigParseError);
  EXPECT_THROW(
      compiler.compile("v = LOAD 'x'; g = GROUP v MEDIAN; STORE g;"),
      PigParseError);
  EXPECT_THROW(compiler.compile(
                   "v = LOAD 'x'; j = JOIN v BY $0 WITH 'nope'; STORE j;"),
               PigParseError);
}

TEST(PigCompiler, ErrorCarriesLineNumber) {
  PigCompiler compiler;
  try {
    compiler.compile("v = LOAD 'x';\n\nf = FILTER v BY;\nSTORE f;");
    FAIL() << "expected PigParseError";
  } catch (const PigParseError& e) {
    EXPECT_GE(e.line(), 3);
    EXPECT_NE(std::string(e.what()).find("line"), std::string::npos);
  }
}

TEST(PigCompiler, CommentsAndWhitespaceAreIgnored) {
  const CompiledQuery q = PigCompiler().compile(R"(
    -- a full-line comment
    v = LOAD 'x';   -- trailing comment
    c = GROUP v COUNT;
    STORE c;
  )");
  EXPECT_EQ(q.stages.size(), 1u);
}

}  // namespace
}  // namespace slider::query
