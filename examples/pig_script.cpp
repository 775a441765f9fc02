// Example: compile a Pig-Latin script and run it incrementally (§5).
//
// Unlike examples/pig_query.cpp (which uses the pre-built query objects),
// this example goes through the full front end: a textual Pig script is
// parsed, fused into MapReduce stages, and executed incrementally over a
// sliding window of page-view logs.
//
// Build & run:  ./build/examples/pig_script

#include <cstdio>

#include "query/pig_parser.h"
#include "query/pigmix.h"
#include "query/pipeline.h"

using namespace slider;
using namespace slider::query;

int main() {
  const char* script = R"(
    -- revenue per user segment, top 5 segments
    views    = LOAD 'pageviews';
    buys     = FILTER views BY $2 == 'p';
    joined   = JOIN buys BY $0 WITH 'segments';
    pairs    = FOREACH joined GENERATE $5, $4;   -- (segment, revenue)
    revenue  = GROUP pairs SUM;
    top      = ORDER revenue DESC LIMIT 5;
    STORE top;
  )";

  // The broadcast side table for the fragment-replicate join.
  auto segments = std::make_shared<SideTable>();
  for (int u = 0; u < 2000; ++u) {
    (*segments)["u" + std::to_string(u)] = "seg" + std::to_string(u % 8);
  }

  PigCompiler compiler;
  compiler.register_table("segments", segments);
  const CompiledQuery query = compiler.compile(script);
  std::printf("compiled '%s' into %zu MapReduce stage(s):\n",
              query.output_relation.c_str(), query.stages.size());
  for (const JobSpec& stage : query.stages) {
    std::printf("  - %s\n", stage.name.c_str());
  }

  CostModel cost;
  Cluster cluster(ClusterConfig{.num_machines = 24, .slots_per_machine = 2});
  VanillaEngine engine(cluster, cost);
  MemoStore memo(cluster, cost);

  PipelineConfig config;
  config.first_stage.mode = WindowMode::kFixedWidth;
  config.first_stage.bucket_width = 2;
  QueryPipeline pipeline(engine, memo, query.stages, config);

  PageViewGenerator gen;
  auto splits = make_splits(gen.next_batch(40 * 200), 200, 0);
  std::vector<SplitPtr> window = splits;
  pipeline.initial_run(splits);

  SplitId next_id = 40;
  for (int slide = 1; slide <= 3; ++slide) {
    auto added = make_splits(gen.next_batch(2 * 200), 200, next_id);
    next_id += 2;
    const RunMetrics inc = pipeline.slide(2, added);
    window.erase(window.begin(), window.begin() + 2);
    for (const auto& s : added) window.push_back(s);
    const PipelineResult scratch =
        vanilla_pipeline_run(engine, query.stages, window);
    std::printf("slide %d: work speedup %.1fx, time speedup %.1fx\n", slide,
                scratch.metrics.work() / inc.work(),
                scratch.metrics.time / inc.time);
  }

  std::printf("\ntop segments by revenue:\n");
  for (const KVTable& table : pipeline.output()) {
    for (const RowView r : table.rows()) {
      std::printf("  %.*s\n", static_cast<int>(r.value.size()),
                  r.value.data());
    }
  }
  return 0;
}
