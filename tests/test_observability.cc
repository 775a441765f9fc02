// Observability subsystem: trace collection/export, typed stats,
// run reports, and the metrics plumbing the benches report through.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "apps/microbench.h"
#include "common/metrics.h"
#include "observability/run_report.h"
#include "observability/stats.h"
#include "observability/trace.h"
#include "observability/trace_export.h"
#include "slider/session.h"
#include "tests/test_util.h"

namespace slider {
namespace {

using obs::TraceClockDomain;
using obs::TraceCollector;
using obs::TraceEvent;

// --- JSON scanning helpers ---------------------------------------------------

// Structural well-formedness: balanced braces/brackets outside strings.
void expect_balanced_json(const std::string& doc) {
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < doc.size(); ++i) {
    const char c = doc[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // skip escaped char
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++braces; break;
      case '}': --braces; break;
      case '[': ++brackets; break;
      case ']': --brackets; break;
      default: break;
    }
    ASSERT_GE(braces, 0) << "unbalanced '}' at offset " << i;
    ASSERT_GE(brackets, 0) << "unbalanced ']' at offset " << i;
  }
  EXPECT_FALSE(in_string) << "unterminated string";
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

struct ScannedEvent {
  char phase = '?';
  int pid = -1;
  double ts = 0;
  bool has_ts = false;
};

// Scans the exporter's document in emission order. Relies on the field
// order write_event/write_metadata use: ph before pid before ts.
std::vector<ScannedEvent> scan_events(const std::string& doc) {
  std::vector<ScannedEvent> events;
  std::size_t pos = 0;
  while (true) {
    const std::size_t ph = doc.find("\"ph\":\"", pos);
    if (ph == std::string::npos) break;
    ScannedEvent event;
    event.phase = doc[ph + 6];
    const std::size_t pid = doc.find("\"pid\":", ph);
    if (pid == std::string::npos) break;
    event.pid = std::atoi(doc.c_str() + pid + 6);
    const std::size_t next_ph = doc.find("\"ph\":\"", ph + 1);
    const std::size_t ts = doc.find("\"ts\":", pid);
    if (ts != std::string::npos && (next_ph == std::string::npos ||
                                    ts < next_ph)) {
      event.ts = std::atof(doc.c_str() + ts + 5);
      event.has_ts = true;
    }
    events.push_back(event);
    pos = ph + 1;
  }
  return events;
}

// --- TraceCollector ----------------------------------------------------------

TEST(TraceCollector, DisabledCollectorRecordsNothing) {
  TraceCollector collector(64);
  EXPECT_FALSE(collector.enabled());
  collector.complete_span("cat", "span", 0, 10);
  collector.instant("cat", "event");
  collector.counter("cat", "counter", 1.0);
  EXPECT_TRUE(collector.snapshot().empty());
  EXPECT_EQ(collector.total_recorded(), 0u);
}

TEST(TraceCollector, SnapshotPreservesCommitOrder) {
  TraceCollector collector(64);
  collector.set_enabled(true);
  collector.complete_span("cat", "first", 5, 1);
  collector.instant("cat", "second");
  collector.counter("cat", "third", 42.0);
  const auto events = collector.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_STREQ(events[0].name, "first");
  EXPECT_EQ(events[0].phase, 'X');
  EXPECT_STREQ(events[1].name, "second");
  EXPECT_EQ(events[1].phase, 'i');
  EXPECT_STREQ(events[2].name, "third");
  EXPECT_EQ(events[2].phase, 'C');
  EXPECT_DOUBLE_EQ(events[2].counter_value, 42.0);
  EXPECT_LT(events[0].seq, events[1].seq);
  EXPECT_LT(events[1].seq, events[2].seq);
}

TEST(TraceCollector, RingWrapKeepsNewestAndCountsDropped) {
  TraceCollector collector(8);
  collector.set_enabled(true);
  for (int i = 0; i < 20; ++i) {
    collector.counter("cat", "n", static_cast<double>(i));
  }
  const auto events = collector.snapshot();
  ASSERT_EQ(events.size(), 8u);
  // The newest 8 samples survive, oldest first.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_DOUBLE_EQ(events[i].counter_value, static_cast<double>(12 + i));
  }
  EXPECT_EQ(collector.dropped(), 12u);
  collector.clear();
  EXPECT_TRUE(collector.snapshot().empty());
  EXPECT_EQ(collector.dropped(), 0u);
}

TEST(TraceCollector, ScopedSpansFlushInnerBeforeOuter) {
#if !SLIDER_TRACING_ENABLED
  GTEST_SKIP() << "built with SLIDER_ENABLE_TRACING=OFF";
#else
  TraceCollector& global = TraceCollector::global();
  global.clear();
  global.set_enabled(true);
  {
    SLIDER_TRACE_SPAN("test", "outer", {{"depth", 0.0}});
    {
      SLIDER_TRACE_SPAN("test", "inner", {{"depth", 1.0}});
      SLIDER_TRACE_EVENT("test", "leaf");
    }
  }
  global.set_enabled(false);
  const auto events = global.snapshot();
  global.clear();
  ASSERT_EQ(events.size(), 3u);
  // Scope exit order: the leaf instant fires first, then the inner span's
  // destructor, then the outer's — and each span covers its children.
  EXPECT_STREQ(events[0].name, "leaf");
  EXPECT_STREQ(events[1].name, "inner");
  EXPECT_STREQ(events[2].name, "outer");
  EXPECT_LE(events[2].ts_us, events[1].ts_us);
  EXPECT_GE(events[2].ts_us + events[2].dur_us,
            events[1].ts_us + events[1].dur_us);
  ASSERT_NE(events[1].args[0].name, nullptr);
  EXPECT_STREQ(events[1].args[0].name, "depth");
  EXPECT_DOUBLE_EQ(events[1].args[0].value, 1.0);
#endif
}

TEST(TraceCollector, ConcurrentRecordersLoseNothingBelowCapacity) {
  TraceCollector collector(1 << 12);
  collector.set_enabled(true);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 256;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&collector, t] {
      for (int i = 0; i < kPerThread; ++i) {
        collector.counter("test", "concurrent",
                          static_cast<double>(t * kPerThread + i));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(collector.total_recorded(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(collector.snapshot().size(),
            static_cast<std::size_t>(kThreads * kPerThread));
}

// --- Chrome trace export -----------------------------------------------------

TEST(TraceExport, ChromeJsonIsStructurallySound) {
  TraceCollector collector(64);
  collector.set_enabled(true);
  collector.complete_span("phase", "map \"quoted\"", 10, 5,
                          {{"splits", 3.0}});
  collector.sim_span("sched", "reduce.task", 0.5, 0.25, 7,
                     {{"partition", 2.0}, {"migrated", 1.0}});
  collector.instant("phase", "marker");
  collector.counter("memo", "memo.entries", 17.0);
  const auto events = collector.snapshot();
  const std::string doc = obs::to_chrome_trace_json(events);

  expect_balanced_json(doc);
  EXPECT_NE(doc.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(doc.find("slider wall-clock"), std::string::npos);
  EXPECT_NE(doc.find("slider simulated cluster"), std::string::npos);
  // Quotes in names are escaped.
  EXPECT_NE(doc.find("map \\\"quoted\\\""), std::string::npos);
  // Simulated seconds export as microseconds.
  EXPECT_NE(doc.find("\"ts\":500000"), std::string::npos);
  EXPECT_NE(doc.find("\"dur\":250000"), std::string::npos);

  const auto scanned = scan_events(doc);
  // 2 metadata + 4 payload events.
  ASSERT_EQ(scanned.size(), 6u);
  int last_pid = -1;
  double last_ts = 0;
  for (const ScannedEvent& event : scanned) {
    if (event.phase == 'M') continue;
    EXPECT_TRUE(event.has_ts);
    EXPECT_GE(event.pid, last_pid) << "events not grouped by pid";
    if (event.pid == last_pid) {
      EXPECT_GE(event.ts, last_ts) << "timestamps not monotone within pid";
    }
    last_pid = event.pid;
    last_ts = event.ts;
  }
}

// --- histograms & stats ------------------------------------------------------

TEST(Histogram, LinearPercentilesInterpolate) {
  obs::Histogram hist({.min = 0, .max = 100, .buckets = 100});
  for (int i = 0; i < 100; ++i) hist.observe(i + 0.5);
  EXPECT_EQ(hist.count(), 100u);
  EXPECT_NEAR(hist.percentile(50), 50.0, 1.5);
  EXPECT_NEAR(hist.percentile(95), 95.0, 1.5);
  EXPECT_NEAR(hist.percentile(99), 99.0, 1.5);
  const obs::HistogramSnapshot snap = hist.snapshot();
  EXPECT_NEAR(snap.sum, 5000.0, 1e-9);
  EXPECT_DOUBLE_EQ(snap.min, 0.5);
  EXPECT_DOUBLE_EQ(snap.max, 99.5);
  EXPECT_NEAR(snap.p50, 50.0, 1.5);
}

TEST(Histogram, ExponentialBucketsCoverDecades) {
  obs::Histogram hist(
      {.min = 1e-6, .max = 10.0, .buckets = 64, .exponential = true});
  for (int i = 0; i < 90; ++i) hist.observe(1e-4);
  for (int i = 0; i < 10; ++i) hist.observe(1.0);
  // p50 sits in the small-value mass, p99 in the large.
  EXPECT_LT(hist.percentile(50), 1e-3);
  EXPECT_GT(hist.percentile(99), 0.1);
}

TEST(Histogram, OutOfRangeClampsToObservedExtremes) {
  obs::Histogram hist({.min = 0, .max = 10, .buckets = 10});
  hist.observe(-5.0);
  hist.observe(100.0);
  EXPECT_EQ(hist.count(), 2u);
  EXPECT_DOUBLE_EQ(hist.percentile(0), -5.0);
  EXPECT_DOUBLE_EQ(hist.percentile(100), 100.0);
  hist.reset();
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_DOUBLE_EQ(hist.percentile(50), 0.0);
}

TEST(Stats, RegistryReturnsStableInstruments) {
  obs::StatsRegistry registry;
  obs::Counter& counter = registry.counter("requests");
  EXPECT_EQ(counter.add(), 1u);
  EXPECT_EQ(&registry.counter("requests"), &counter);
  registry.gauge("depth").set(3.5);
  registry.histogram("latency", {.min = 0, .max = 1, .buckets = 8})
      .observe(0.25);

  const obs::StatsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("requests"), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("depth"), 3.5);
  EXPECT_EQ(snap.histograms.at("latency").count, 1u);

  registry.reset();
  EXPECT_EQ(registry.counter("requests").value(), 0u);
  EXPECT_DOUBLE_EQ(registry.gauge("depth").value(), 0.0);
  EXPECT_EQ(registry.histogram("latency").count(), 0u);
}

TEST(Stats, CountersAreThreadSafe) {
  obs::StatsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < kPerThread; ++i) registry.counter("hits").add();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(registry.counter("hits").value(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

// --- RunMetrics --------------------------------------------------------------

TEST(Metrics, RunMetricsAggregatesEveryField) {
  RunMetrics a;
  a.map_work = 1;
  a.contraction_work = 2;
  a.reduce_work = 3;
  a.shuffle_work = 4;
  a.memo_read_work = 5;
  a.background_work = 6;
  a.time = 7;
  a.map_time = 8;
  a.background_time = 9;
  a.map_tasks = 10;
  a.combiner_invocations = 11;
  a.combiner_reused = 12;
  a.reduce_tasks = 13;
  a.migrations = 14;
  a.memo_bytes_written = 15;

  RunMetrics b = a;
  b += a;
  EXPECT_DOUBLE_EQ(b.map_work, 2);
  EXPECT_DOUBLE_EQ(b.contraction_work, 4);
  EXPECT_DOUBLE_EQ(b.reduce_work, 6);
  EXPECT_DOUBLE_EQ(b.shuffle_work, 8);
  EXPECT_DOUBLE_EQ(b.memo_read_work, 10);
  EXPECT_DOUBLE_EQ(b.background_work, 12);
  EXPECT_DOUBLE_EQ(b.time, 14);
  EXPECT_DOUBLE_EQ(b.map_time, 16);
  EXPECT_DOUBLE_EQ(b.background_time, 18);
  EXPECT_EQ(b.map_tasks, 20u);
  EXPECT_EQ(b.combiner_invocations, 22u);
  EXPECT_EQ(b.combiner_reused, 24u);
  EXPECT_EQ(b.reduce_tasks, 26u);
  EXPECT_EQ(b.migrations, 28u);
  EXPECT_EQ(b.memo_bytes_written, 30u);
  EXPECT_DOUBLE_EQ(b.work(), 2 + 4 + 6 + 8 + 10);
}

// --- RunReport ---------------------------------------------------------------

TEST(RunReport, JsonCarriesParamsRowsAndNotes) {
  obs::RunReport report("unit_test");
  report.set_param("machines", std::uint64_t{24});
  report.set_param("label", "fixed \"width\"");
  report.add_note("paper: baseline = 1.0");
  obs::StatsSnapshot stats;
  stats.counters["memo.hits"] = 3;
  report.merge_stats(stats);

  RunMetrics metrics;
  metrics.map_work = 1.5;
  metrics.migrations = 2;
  report.add_row()
      .col("app", "K-Means")
      .col("normalized", 0.91)
      .col("win", true)
      .metrics("inc_", metrics);

  const std::string doc = report.to_json();
  expect_balanced_json(doc);
  EXPECT_NE(doc.find("\"bench\":\"unit_test\""), std::string::npos);
  EXPECT_NE(doc.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(doc.find("\"machines\":24"), std::string::npos);
  EXPECT_NE(doc.find("fixed \\\"width\\\""), std::string::npos);
  EXPECT_NE(doc.find("\"app\":\"K-Means\""), std::string::npos);
  EXPECT_NE(doc.find("\"win\":true"), std::string::npos);
  EXPECT_NE(doc.find("\"inc_map_work\":1.5"), std::string::npos);
  EXPECT_NE(doc.find("\"inc_migrations\":2"), std::string::npos);
  EXPECT_NE(doc.find("\"memo.hits\":3"), std::string::npos);
  EXPECT_NE(doc.find("paper: baseline = 1.0"), std::string::npos);
  EXPECT_EQ(report.default_filename(), "BENCH_unit_test.json");
}

TEST(RunReport, WriteProducesReadableFile) {
  const testing::TempDir dir("slider_report_test");
  obs::RunReport report("write_test");
  report.add_row().col("k", 1.0);
  const std::string path = report.write(dir.path.string());
  ASSERT_FALSE(path.empty());
  std::FILE* file = std::fopen(path.c_str(), "r");
  ASSERT_NE(file, nullptr);
  std::fclose(file);
}

// --- end-to-end: a traced Slider session ------------------------------------

// Only referenced by the tracing-enabled branch of SessionTracing.
[[maybe_unused]] bool has_span(const std::vector<TraceEvent>& events,
                               const char* name, TraceClockDomain domain) {
  for (const TraceEvent& event : events) {
    if (event.phase == 'X' && event.domain == domain &&
        std::string_view(event.name) == name) {
      return true;
    }
  }
  return false;
}

[[maybe_unused]] bool has_counter_with_prefix(
    const std::vector<TraceEvent>& events, std::string_view prefix) {
  for (const TraceEvent& event : events) {
    if (event.phase == 'C' &&
        std::string_view(event.name).substr(0, prefix.size()) == prefix) {
      return true;
    }
  }
  return false;
}

TEST(SessionTracing, SlideEmitsPhaseSpansAndMemoCounters) {
#if !SLIDER_TRACING_ENABLED
  GTEST_SKIP() << "built with SLIDER_ENABLE_TRACING=OFF";
#else
  TraceCollector& trace = TraceCollector::global();
  trace.clear();
  trace.set_enabled(true);

  CostModel cost;
  Cluster cluster(ClusterConfig{.num_machines = 8, .slots_per_machine = 2});
  VanillaEngine engine(cluster, cost);
  MemoStore memo(cluster, cost);
  const auto bench = apps::make_microbenchmark(apps::MicroApp::kHct);

  SliderConfig config;
  config.mode = WindowMode::kFixedWidth;
  config.bucket_width = 2;
  SliderSession session(engine, memo, bench.job, config);

  Rng rng(11);
  auto records = apps::generate_input(bench.app, 16 * 40, rng, 0);
  session.initial_run(make_splits(std::move(records), 40, 0));
  auto added_records = apps::generate_input(bench.app, 2 * 40, rng, 16'000'000);
  session.slide(2, make_splits(std::move(added_records), 40, 16));
  // An unknown node id exercises the miss path (this run's reuse lookups
  // all hit, since the memo holds every live sub-computation).
  memo.get(~NodeId{0}, 0);

  trace.set_enabled(false);
  const auto events = trace.snapshot();
  trace.clear();

  // Wall-clock phase spans from the session and the engine/memo layers.
  EXPECT_TRUE(has_span(events, "session.initial_run", TraceClockDomain::kWall));
  EXPECT_TRUE(has_span(events, "session.slide", TraceClockDomain::kWall));
  EXPECT_TRUE(has_span(events, "map_stage", TraceClockDomain::kWall));
  EXPECT_TRUE(has_span(events, "session.gc", TraceClockDomain::kWall));
  EXPECT_TRUE(has_span(events, "memo.write", TraceClockDomain::kWall));
  EXPECT_TRUE(has_span(events, "memo.read", TraceClockDomain::kWall));

  // Simulated cluster timeline: map wave, per-level contraction, reduce
  // phase tail, and per-task scheduler placements.
  EXPECT_TRUE(has_span(events, "map", TraceClockDomain::kSimulated));
  EXPECT_TRUE(
      has_span(events, "contraction.level", TraceClockDomain::kSimulated));
  EXPECT_TRUE(has_span(events, "reduce", TraceClockDomain::kSimulated));
  EXPECT_TRUE(has_span(events, "reduce.task", TraceClockDomain::kSimulated));

  // Memo layer hit/miss accounting (misses during the initial run, hits
  // on the slide's reuse path).
  EXPECT_TRUE(has_counter_with_prefix(events, "memo.misses"));
  EXPECT_TRUE(has_counter_with_prefix(events, "memo.hits"));
  EXPECT_TRUE(has_counter_with_prefix(events, "tree."));

  // Simulated timestamps advance monotonically across the two runs.
  double last_sim_phase_start = -1;
  for (const TraceEvent& event : events) {
    if (event.domain != TraceClockDomain::kSimulated || event.phase != 'X') {
      continue;
    }
    if (std::string_view(event.name) == "map") {
      EXPECT_GT(event.ts_us, last_sim_phase_start);
      last_sim_phase_start = event.ts_us;
    }
  }

  // And the whole capture exports to a valid Chrome trace document.
  const std::string doc = obs::to_chrome_trace_json(events);
  expect_balanced_json(doc);
  EXPECT_NE(doc.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(doc.find("contraction.level"), std::string::npos);
  int last_pid = -1;
  double last_ts = 0;
  for (const ScannedEvent& scanned : scan_events(doc)) {
    if (scanned.phase == 'M') continue;
    ASSERT_TRUE(scanned.has_ts);
    ASSERT_GE(scanned.pid, last_pid);
    if (scanned.pid == last_pid) {
      ASSERT_GE(scanned.ts, last_ts);
    }
    last_pid = scanned.pid;
    last_ts = scanned.ts;
  }
#endif
}

}  // namespace
}  // namespace slider
