// Example: incremental data-flow query processing (paper §5).
//
// Runs a PigMix-style query — top pages by views — as a two-stage
// MapReduce pipeline over a sliding window of page-view logs. Stage 1 uses
// the rotating contraction tree; stage 2 propagates changes with strawman
// trees over key-hashed chunks.
//
// Build & run:  ./build/examples/pig_query

#include <cstdio>

#include "query/pigmix.h"
#include "query/pipeline.h"

using namespace slider;
using namespace slider::query;

int main() {
  CostModel cost;
  Cluster cluster(ClusterConfig{.num_machines = 24, .slots_per_machine = 2});
  VanillaEngine engine(cluster, cost);
  MemoStore memo(cluster, cost);

  const PigMixQuery q = pigmix_queries()[0];  // top 25 pages by views
  std::printf("query: %s (%zu stages)\n", q.name.c_str(), q.stages.size());

  constexpr std::size_t kWindowSplits = 40;
  constexpr std::size_t kSlide = 2;  // 5% change per run
  constexpr std::size_t kViewsPerSplit = 250;

  PipelineConfig config;
  config.first_stage.mode = WindowMode::kFixedWidth;
  config.first_stage.bucket_width = kSlide;
  QueryPipeline pipeline(engine, memo, q.stages, config);

  PageViewGenerator gen;
  auto splits = make_splits(gen.next_batch(kWindowSplits * kViewsPerSplit),
                            kViewsPerSplit, 0);
  std::vector<SplitPtr> window = splits;
  pipeline.initial_run(splits);

  SplitId next_id = kWindowSplits;
  for (int slide = 1; slide <= 4; ++slide) {
    auto added = make_splits(gen.next_batch(kSlide * kViewsPerSplit),
                             kViewsPerSplit, next_id);
    next_id += kSlide;
    const RunMetrics inc = pipeline.slide(kSlide, added);
    window.erase(window.begin(), window.begin() + kSlide);
    for (const auto& s : added) window.push_back(s);

    const PipelineResult scratch =
        vanilla_pipeline_run(engine, q.stages, window);
    std::printf("slide %d: work speedup=%5.1fx  time speedup=%4.1fx\n", slide,
                scratch.metrics.work() / inc.work(),
                scratch.metrics.time / inc.time);
  }

  std::printf("\ntop pages by views:\n");
  for (const KVTable& table : pipeline.output()) {
    for (const RowView r : table.rows()) {
      std::printf("  %.*s\n", static_cast<int>(r.value.size()),
                  r.value.data());
    }
  }
  return 0;
}
