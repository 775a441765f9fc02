// Example: client accountability in a hybrid CDN (paper §8.3).
//
// Variable-width windowing with the folding contraction tree: the audit
// window covers one month of tamper-evident client logs and slides by one
// week, but the number of uploaded logs varies with client availability —
// so both ends of the window move by different amounts every run.
//
// Build & run:  ./build/examples/netsession_audit

#include <cstdio>
#include <deque>

#include "apps/netsession.h"
#include "slider/session.h"

using namespace slider;

int main() {
  CostModel cost;
  Cluster cluster(ClusterConfig{.num_machines = 24, .slots_per_machine = 2});
  VanillaEngine engine(cluster, cost);
  MemoStore memo(cluster, cost);

  const JobSpec job = apps::make_netsession_job();

  SliderConfig config;
  config.mode = WindowMode::kVariableWidth;  // folding tree
  SliderSession session(engine, memo, job, config);

  apps::NetSessionGenerator gen;
  constexpr std::size_t kEntriesPerSplit = 400;
  const double upload_fraction[] = {1.0, 0.95, 0.9, 0.85, 0.8, 0.75};

  // A "month" = 4 weeks of logs; slide by one week with varying upload %.
  std::deque<std::vector<SplitPtr>> weeks;  // window composition by week
  std::vector<SplitPtr> window;
  SplitId next_id = 0;

  auto gen_week = [&](double fraction) {
    auto records = gen.next_week(fraction);
    auto splits = make_splits(std::move(records), kEntriesPerSplit, next_id);
    next_id += splits.size();
    return splits;
  };

  std::vector<SplitPtr> initial;
  for (int w = 0; w < 4; ++w) {
    auto week = gen_week(1.0);
    for (const auto& s : week) {
      initial.push_back(s);
      window.push_back(s);
    }
    weeks.push_back(std::move(week));
  }
  session.initial_run(initial);
  std::printf("audit window: 4 weeks, %zu splits\n", window.size());

  for (int step = 0; step < 6; ++step) {
    const double fraction = upload_fraction[step];
    auto added = gen_week(fraction);
    const std::size_t drop = weeks.front().size();
    weeks.pop_front();

    const RunMetrics inc = session.slide(drop, added);
    window.erase(window.begin(),
                 window.begin() + static_cast<std::ptrdiff_t>(drop));
    for (const auto& s : added) window.push_back(s);
    weeks.push_back(std::move(added));

    const JobResult scratch = engine.run(job, window);
    std::printf(
        "week %d (%3.0f%% clients online): window=%3zu splits  "
        "work speedup=%4.1fx  time speedup=%4.1fx\n",
        step + 1, fraction * 100, window.size(),
        scratch.metrics.work() / inc.work(), scratch.metrics.time / inc.time);
  }

  std::size_t flagged = 0;
  std::size_t total = 0;
  for (const KVTable& table : session.output()) {
    for (const RowView r : table.rows()) {
      ++total;
      if (r.value.rfind("flagged", 0) == 0) ++flagged;
    }
  }
  std::printf("\naudit result: %zu clients, %zu flagged for accountability "
              "violations\n", total, flagged);
  return 0;
}
