// Example: monitoring Glasnost measurement servers (paper §8.2).
//
// Fixed-width windowing with the rotating contraction tree: a 3-month
// window of packet-trace test runs slides by one month, and the per-server
// median minimum RTT is updated incrementally. Months have different test
// volumes, so buckets are sized per month (set_initial_bucket_sizes path).
//
// Build & run:  ./build/examples/glasnost_monitor

#include <cstdio>
#include <vector>

#include "apps/glasnost.h"
#include "slider/session.h"

using namespace slider;

int main() {
  CostModel cost;
  Cluster cluster(ClusterConfig{.num_machines = 24, .slots_per_machine = 2});
  VanillaEngine engine(cluster, cost);
  MemoStore memo(cluster, cost);

  const JobSpec job = apps::make_glasnost_job();

  // Month sizes mirror Table 3's uneven test counts (in splits).
  const std::vector<std::size_t> month_splits = {8, 10, 11, 10, 9, 8, 9, 10, 13};
  constexpr std::size_t kTestsPerSplit = 100;

  SliderConfig config;
  config.mode = WindowMode::kFixedWidth;
  config.initial_bucket_sizes = {month_splits[0], month_splits[1],
                                 month_splits[2]};
  SliderSession session(engine, memo, job, config);

  apps::GlasnostGenerator gen;
  std::vector<SplitPtr> window;
  SplitId next_id = 0;
  auto add_month = [&](std::size_t splits) {
    auto month = make_splits(gen.next_month(splits * kTestsPerSplit),
                             kTestsPerSplit, next_id);
    next_id += splits;
    for (const auto& s : month) window.push_back(s);
    return month;
  };

  // Bootstrap: Jan-Mar.
  std::vector<SplitPtr> initial;
  for (int m = 0; m < 3; ++m) {
    for (auto& s : add_month(month_splits[static_cast<std::size_t>(m)])) {
      initial.push_back(std::move(s));
    }
  }
  session.initial_run(initial);
  std::printf("window Jan-Mar built (%zu splits)\n", window.size());

  // Slide month by month: Feb-Apr, Mar-May, ...
  for (std::size_t m = 3; m < month_splits.size(); ++m) {
    const std::size_t drop = month_splits[m - 3];
    auto added = add_month(month_splits[m]);
    const RunMetrics inc = session.slide(drop, added);
    window.erase(window.begin(),
                 window.begin() + static_cast<std::ptrdiff_t>(drop));

    const JobResult scratch = engine.run(job, window);
    std::printf(
        "window m%02zu-m%02zu: %5.1f%% changed  work speedup=%4.1fx  time "
        "speedup=%4.1fx\n",
        m - 2, m, 100.0 * static_cast<double>(month_splits[m]) /
                      static_cast<double>(window.size()),
        scratch.metrics.work() / inc.work(),
        scratch.metrics.time / inc.time);
  }

  std::printf("\nper-server median minimum RTT (current window):\n");
  for (const KVTable& table : session.output()) {
    for (const RowView r : table.rows()) {
      std::printf("  %-6.*s %.*s\n", static_cast<int>(r.key.size()),
                  r.key.data(), static_cast<int>(r.value.size()),
                  r.value.data());
    }
  }
  return 0;
}
