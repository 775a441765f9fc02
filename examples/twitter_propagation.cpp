// Example: information-propagation trees in Twitter (paper §8.1).
//
// Append-only windowing with the coalescing contraction tree and split
// processing: every "week", new tweets are appended and the per-URL
// propagation trees are updated incrementally, with the coalesce pushed to
// a background phase so the foreground answer returns faster.
//
// Build & run:  ./build/examples/twitter_propagation

#include <algorithm>
#include <cstdio>

#include "apps/twitter.h"
#include "slider/session.h"

using namespace slider;

int main() {
  CostModel cost;
  Cluster cluster(ClusterConfig{.num_machines = 24, .slots_per_machine = 2});
  VanillaEngine engine(cluster, cost);
  MemoStore memo(cluster, cost);

  const JobSpec job = apps::make_twitter_job();

  SliderConfig config;
  config.mode = WindowMode::kAppendOnly;
  config.split_processing = true;  // background coalescing (§4.2)
  SliderSession session(engine, memo, job, config);

  apps::TwitterGenerator gen;
  constexpr std::size_t kTweetsPerSplit = 200;
  constexpr std::size_t kInitialSplits = 30;
  constexpr std::size_t kWeeklySplits = 2;  // ~5% weekly growth, like Table 4

  auto splits = make_splits(gen.next_batch(kInitialSplits * kTweetsPerSplit),
                            kTweetsPerSplit, 0);
  std::vector<SplitPtr> history = splits;
  const RunMetrics initial = session.initial_run(splits);
  std::printf("bootstrap (Mar'06-Jun'09 equivalent): %zu tweets, work=%.2fs\n",
              kInitialSplits * kTweetsPerSplit, initial.work());
  session.run_background();

  SplitId next_id = kInitialSplits;
  for (int week = 1; week <= 4; ++week) {
    auto added = make_splits(gen.next_batch(kWeeklySplits * kTweetsPerSplit),
                             kTweetsPerSplit, next_id);
    next_id += kWeeklySplits;

    const RunMetrics inc = session.slide(0, added);
    for (const auto& s : added) history.push_back(s);
    const JobResult scratch = engine.run(job, history);
    const RunMetrics bg = session.run_background();

    std::printf(
        "week %d: +%zu tweets  work speedup=%5.1fx  time speedup=%4.1fx  "
        "(bg work %.2fs)\n",
        week, kWeeklySplits * kTweetsPerSplit,
        scratch.metrics.work() / inc.work(), scratch.metrics.time / inc.time,
        bg.background_work);
  }

  // Show the most viral URLs in the final output.
  struct UrlStat {
    std::string url;
    std::string stats;
    std::uint64_t nodes;
  };
  std::vector<UrlStat> top;
  for (const KVTable& table : session.output()) {
    for (const RowView r : table.rows()) {
      std::uint64_t nodes = 0;
      const std::string value(r.value);
      const auto pos = value.find("nodes=");
      if (pos != std::string::npos) {
        nodes = std::strtoull(value.c_str() + pos + 6, nullptr, 10);
      }
      top.push_back({std::string(r.key), value, nodes});
    }
  }
  std::sort(top.begin(), top.end(),
            [](const UrlStat& a, const UrlStat& b) { return a.nodes > b.nodes; });
  std::printf("\nmost-propagated URLs:\n");
  for (std::size_t i = 0; i < std::min<std::size_t>(5, top.size()); ++i) {
    std::printf("  %-8s %s\n", top[i].url.c_str(), top[i].stats.c_str());
  }
  return 0;
}
