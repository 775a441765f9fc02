// Case-study end-to-end tests (§8): each study runs in its paper window
// mode as a full incremental session and must match from-scratch outputs
// while reusing work across slides.

#include <gtest/gtest.h>

#include "apps/glasnost.h"
#include "apps/netsession.h"
#include "apps/twitter.h"
#include "slider/session.h"

namespace slider::apps {
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

void expect_same(const std::vector<KVTable>& a, const std::vector<KVTable>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t p = 0; p < a.size(); ++p) ASSERT_EQ(a[p], b[p]);
}

TEST(CaseStudies, TwitterAppendOnlyIncrementalMatchesScratch) {
  Harness h;
  const JobSpec job = make_twitter_job();
  SliderConfig config;
  config.mode = WindowMode::kAppendOnly;
  config.split_processing = true;
  SliderSession session(h.engine, h.memo, job, config);

  TwitterGenerator gen;
  auto splits = make_splits(gen.next_batch(20 * 60), 60, 0);
  std::vector<SplitPtr> history = splits;
  session.initial_run(splits);
  session.run_background();

  SimDuration incremental_work = 0;
  SimDuration scratch_work = 0;
  SplitId next_id = 20;
  for (int week = 0; week < 3; ++week) {
    auto added = make_splits(gen.next_batch(2 * 60), 60, next_id);
    next_id += 2;
    const RunMetrics inc = session.slide(0, added);
    for (const auto& s : added) history.push_back(s);

    const JobResult scratch = h.engine.run(job, history);
    expect_same(session.output(), scratch.partition_outputs);
    incremental_work += inc.work();
    scratch_work += scratch.metrics.work();
    session.run_background();
  }
  EXPECT_LT(incremental_work, scratch_work / 3);
}

TEST(CaseStudies, TwitterPropagationStatsAreConsistent) {
  // Every output row must satisfy nodes >= 1 and depth < nodes.
  Harness h;
  const JobSpec job = make_twitter_job();
  TwitterGenerator gen;
  auto splits = make_splits(gen.next_batch(800), 100, 0);
  const JobResult result = h.engine.run(job, splits);
  for (const KVTable& t : result.partition_outputs) {
    for (const RowView r : t.rows()) {
      int nodes = 0;
      int depth = -1;
      std::sscanf(std::string(r.value).c_str(), "nodes=%d,depth=%d", &nodes,
                  &depth);
      ASSERT_GE(nodes, 1) << r.key << " " << r.value;
      ASSERT_GE(depth, 0) << r.value;
      ASSERT_LT(depth, nodes) << r.value;
    }
  }
}

TEST(CaseStudies, GlasnostFixedWidthWithUnevenMonths) {
  Harness h;
  const JobSpec job = make_glasnost_job();
  const std::vector<std::size_t> months = {5, 7, 6, 8, 5, 6};

  SliderConfig config;
  config.mode = WindowMode::kFixedWidth;
  config.initial_bucket_sizes = {months[0], months[1], months[2]};
  SliderSession session(h.engine, h.memo, job, config);

  GlasnostGenerator gen;
  std::vector<SplitPtr> window;
  SplitId next_id = 0;
  auto gen_month = [&](std::size_t splits) {
    auto month = make_splits(gen.next_month(splits * 40), 40, next_id);
    next_id += splits;
    return month;
  };

  std::vector<SplitPtr> initial;
  for (int m = 0; m < 3; ++m) {
    for (auto& s : gen_month(months[static_cast<std::size_t>(m)])) {
      window.push_back(s);
      initial.push_back(std::move(s));
    }
  }
  session.initial_run(initial);

  for (std::size_t m = 3; m < months.size(); ++m) {
    const std::size_t drop = months[m - 3];
    auto added = gen_month(months[m]);
    session.slide(drop, added);
    window.erase(window.begin(),
                 window.begin() + static_cast<std::ptrdiff_t>(drop));
    for (const auto& s : added) window.push_back(s);
    const JobResult scratch = h.engine.run(job, window);
    expect_same(session.output(), scratch.partition_outputs);
  }

  // The median of the synthetic traces reflects per-server base RTTs:
  // every server reports a sane value.
  for (const KVTable& t : session.output()) {
    for (const RowView r : t.rows()) {
      double median = 0;
      ASSERT_EQ(std::sscanf(std::string(r.value).c_str(),
                            "median_min_rtt_ms=%lf", &median),
                1);
      ASSERT_GT(median, 0.0);
      ASSERT_LT(median, 300.0);
    }
  }
}

TEST(CaseStudies, NetSessionVariableWidthMatchesScratch) {
  Harness h;
  const JobSpec job = make_netsession_job();
  SliderConfig config;
  config.mode = WindowMode::kVariableWidth;
  SliderSession session(h.engine, h.memo, job, config);

  NetSessionGenOptions gen_options;
  gen_options.clients = 400;
  NetSessionGenerator gen(gen_options);

  std::vector<std::vector<SplitPtr>> weeks;
  std::vector<SplitPtr> window;
  SplitId next_id = 0;
  auto gen_week = [&](double fraction) {
    auto splits = make_splits(gen.next_week(fraction), 120, next_id);
    next_id += splits.size();
    return splits;
  };

  std::vector<SplitPtr> initial;
  for (int w = 0; w < 4; ++w) {
    auto week = gen_week(1.0);
    for (const auto& s : week) {
      window.push_back(s);
      initial.push_back(s);
    }
    weeks.push_back(std::move(week));
  }
  session.initial_run(initial);

  const double fractions[] = {0.9, 0.75, 1.0};
  for (const double fraction : fractions) {
    auto added = gen_week(fraction);
    const std::size_t drop = weeks.front().size();
    weeks.erase(weeks.begin());
    session.slide(drop, added);
    window.erase(window.begin(),
                 window.begin() + static_cast<std::ptrdiff_t>(drop));
    for (const auto& s : added) window.push_back(s);
    weeks.push_back(std::move(added));

    const JobResult scratch = h.engine.run(job, window);
    expect_same(session.output(), scratch.partition_outputs);
  }
}

TEST(CaseStudies, NetSessionAuditDetectsInjectedViolations) {
  // With violations disabled, nobody may be flagged; with a high rate,
  // somebody must be.
  Harness h;
  const JobSpec job = make_netsession_job();

  NetSessionGenOptions clean;
  clean.clients = 200;
  clean.violation_rate = 0.0;
  NetSessionGenerator clean_gen(clean);
  auto clean_splits = make_splits(clean_gen.next_week(1.0), 100, 0);
  const JobResult clean_result = h.engine.run(job, clean_splits);
  for (const KVTable& t : clean_result.partition_outputs) {
    for (const RowView r : t.rows()) {
      EXPECT_EQ(r.value.rfind("ok", 0), 0u) << r.key << " " << r.value;
    }
  }

  NetSessionGenOptions dirty = clean;
  dirty.violation_rate = 0.2;
  NetSessionGenerator dirty_gen(dirty);
  auto dirty_splits = make_splits(dirty_gen.next_week(1.0), 100, 1000);
  const JobResult dirty_result = h.engine.run(job, dirty_splits);
  std::size_t flagged = 0;
  for (const KVTable& t : dirty_result.partition_outputs) {
    for (const RowView r : t.rows()) {
      if (r.value.rfind("flagged", 0) == 0) ++flagged;
    }
  }
  EXPECT_GT(flagged, 0u);
}

}  // namespace
}  // namespace slider::apps
