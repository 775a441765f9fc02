// Time-series flight recorder, SLO engine, and post-mortem pipeline tests.
//
// Covers the observability tentpole end to end: the per-slide TimeSeries
// ring and its tiered downsampling, SLO evaluation semantics, the
// CRC-framed post-mortem format (writer + strict JSON reader round-trip,
// corruption detection), the FlightRecorder's deferred-dump trigger
// discipline and rate limiting, dump integrity under concurrent threaded
// slides, the SLIDER_TRACE_DIR auto-export, and the /healthz
// degrade→drain regression (a healed durable tier must flip the scrape
// back to "ok" even when no further durable writes ever happen).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "apps/microbench.h"
#include "durability/durable_tier.h"
#include "observability/flight_recorder.h"
#include "observability/postmortem.h"
#include "observability/slo.h"
#include "observability/timeseries.h"
#include "observability/trace.h"
#include "robustness/chaos.h"
#include "slider/session.h"
#include "tests/test_util.h"

namespace slider {
namespace {

namespace fs = std::filesystem;
using apps::MicroApp;
using obs::FlightRecorder;
using obs::JsonValue;
using obs::RunKind;
using obs::SlideSample;
using obs::SloKind;
using obs::SloSpec;
using obs::SloVerdict;
using obs::TimeSeries;
using testing::TempDir;

struct Harness {
  Harness()
      : cluster(ClusterConfig{.num_machines = 6, .slots_per_machine = 2}),
        engine(cluster, cost),
        memo(cluster, cost) {}

  CostModel cost{};
  Cluster cluster;
  VanillaEngine engine;
  MemoStore memo;
};

std::vector<SplitPtr> make_app_splits(MicroApp app, Rng& rng,
                                      std::size_t splits,
                                      std::size_t records_per_split,
                                      SplitId first_id) {
  auto records = apps::generate_input(app, splits * records_per_split, rng,
                                      first_id * 1'000'000);
  return make_splits(std::move(records), records_per_split, first_id);
}

SlideSample sample_with(double sim_latency, std::uint64_t invoked,
                        std::uint64_t reused, std::uint64_t retries = 0,
                        bool degraded = false) {
  SlideSample s;
  s.kind = RunKind::kSlide;
  s.sim_latency = sim_latency;
  s.cause_invocations[static_cast<std::size_t>(obs::WorkCause::kWindowAdd)] =
      invoked;
  s.combiner_reused = reused;
  s.task_retries = retries;
  s.durable_degraded = degraded;
  return s;
}

std::vector<std::string> pm_files(const fs::path& dir) {
  std::vector<std::string> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string p = entry.path().string();
    if (p.size() >= 8 && p.compare(p.size() - 8, 8, ".pm.json") == 0) {
      out.push_back(p);
    }
  }
  return out;
}

// --- time series -------------------------------------------------------------

TEST(TimeSeries, RecordsRawSamplesUpToCapacity) {
  TimeSeries series(TimeSeries::Options{.raw_capacity = 8,
                                        .aggregate_width = 4,
                                        .aggregate_capacity = 4});
  for (int i = 0; i < 5; ++i) {
    series.record(sample_with(static_cast<double>(i), 10, 5));
  }
  const obs::TimeSeriesSnapshot snap = series.snapshot();
  EXPECT_EQ(snap.total_recorded, 5u);
  EXPECT_EQ(snap.samples_dropped, 0u);
  ASSERT_EQ(snap.raw.size(), 5u);
  EXPECT_TRUE(snap.aggregates.empty());
  // Sequences are monotone and oldest-first.
  for (std::size_t i = 0; i < snap.raw.size(); ++i) {
    EXPECT_EQ(snap.raw[i].sequence, i);
    EXPECT_DOUBLE_EQ(snap.raw[i].sim_latency, static_cast<double>(i));
  }
}

TEST(TimeSeries, EvictedRawSamplesFoldIntoAggregateBuckets) {
  TimeSeries series(TimeSeries::Options{.raw_capacity = 4,
                                        .aggregate_width = 2,
                                        .aggregate_capacity = 8});
  // 10 samples: 6 age out of the raw ring -> 3 sealed buckets of 2.
  for (int i = 0; i < 10; ++i) {
    series.record(sample_with(1.0, /*invoked=*/7, /*reused=*/3,
                              /*retries=*/1, /*degraded=*/i % 2 == 0));
  }
  const obs::TimeSeriesSnapshot snap = series.snapshot();
  EXPECT_EQ(snap.total_recorded, 10u);
  EXPECT_EQ(snap.samples_dropped, 0u);
  EXPECT_EQ(snap.raw.size(), 4u);
  ASSERT_EQ(snap.aggregates.size(), 3u);
  std::uint64_t folded = 0;
  for (const obs::AggregateSample& a : snap.aggregates) {
    EXPECT_EQ(a.count, 2u);
    EXPECT_EQ(a.combiner_invocations(), 14u);  // 2 samples x 7
    EXPECT_DOUBLE_EQ(a.sim_latency_max, 1.0);
    folded += a.count;
  }
  EXPECT_EQ(folded + snap.raw.size(), 10u);  // nothing lost yet
}

TEST(TimeSeries, OldestAggregateEvictionCountsDroppedSamples) {
  TimeSeries series(TimeSeries::Options{.raw_capacity = 2,
                                        .aggregate_width = 2,
                                        .aggregate_capacity = 2});
  // Raw holds 2, aggregates hold 2 buckets x 2 = 4; everything beyond 6
  // falls off the far end and must be accounted as dropped.
  for (int i = 0; i < 12; ++i) series.record(sample_with(1.0, 1, 0));
  const obs::TimeSeriesSnapshot snap = series.snapshot();
  EXPECT_EQ(snap.total_recorded, 12u);
  EXPECT_GT(snap.samples_dropped, 0u);
  std::uint64_t accounted = snap.raw.size();
  for (const obs::AggregateSample& a : snap.aggregates) accounted += a.count;
  EXPECT_EQ(accounted + snap.samples_dropped, 12u);
}

TEST(TimeSeries, JsonRoundTripsThroughTheStrictParser) {
  TimeSeries series(TimeSeries::Options{.raw_capacity = 4,
                                        .aggregate_width = 2,
                                        .aggregate_capacity = 4});
  for (int i = 0; i < 7; ++i) {
    series.record(sample_with(0.5, 9, 1));
  }
  const std::string json = series.to_json();
  const auto parsed = obs::parse_json(json);
  ASSERT_TRUE(parsed.has_value());
  const JsonValue& root = *parsed;
  EXPECT_EQ(root["total_recorded"].as_u64(), 7u);
  ASSERT_EQ(root["raw"].items().size(), 4u);
  const JsonValue& last = root["raw"].items().back();
  EXPECT_EQ(last["combiner_invocations"].as_u64(), 9u);
  EXPECT_EQ(last["cause_invocations"]["window_add"].as_u64(), 9u);
  EXPECT_DOUBLE_EQ(last["memo_hit_rate"].as_double(), 0.1);
  // Sparse cause map: causes with zero work are omitted.
  EXPECT_TRUE(last["cause_invocations"]["eviction_refill"].is_null());
}

TEST(TimeSeries, SessionsRecordIntoTheGlobalSeriesPerRun) {
  TimeSeries::global().reset();
  Harness h;
  SliderConfig config;
  config.mode = WindowMode::kVariableWidth;
  const auto bench = apps::make_microbenchmark(MicroApp::kHct);
  SliderSession session(h.engine, h.memo, bench.job, config);
  Rng rng(5);
  const std::uint64_t before = TimeSeries::global().total_recorded();
  session.initial_run(make_app_splits(MicroApp::kHct, rng, 8, 12, 0));
  session.slide(2, make_app_splits(MicroApp::kHct, rng, 2, 12, 8));
  const obs::TimeSeriesSnapshot snap = TimeSeries::global().snapshot();
  EXPECT_EQ(snap.total_recorded, before + 2);
  ASSERT_GE(snap.raw.size(), 2u);
  const SlideSample& initial = snap.raw[snap.raw.size() - 2];
  const SlideSample& slide = snap.raw.back();
  EXPECT_EQ(initial.kind, RunKind::kInitial);
  EXPECT_EQ(slide.kind, RunKind::kSlide);
  EXPECT_EQ(slide.removed, 2u);
  EXPECT_EQ(slide.added, 2u);
  EXPECT_EQ(slide.window_splits, 8u);
  EXPECT_GT(initial.combiner_invocations(), 0u);
  EXPECT_GT(slide.wall_latency_us, 0.0);
  EXPECT_GE(slide.sim_start, initial.sim_start + initial.sim_latency - 1e-12);
  // A slide on the self-adjusting default tree reuses most of the window.
  EXPECT_LT(slide.combiner_invocations(), initial.combiner_invocations());
}

TEST(TimeSeries, SamplingCanBeDisabledPerSession) {
  TimeSeries::global().reset();
  Harness h;
  SliderConfig config;
  config.sample_timeseries = false;
  const auto bench = apps::make_microbenchmark(MicroApp::kHct);
  SliderSession session(h.engine, h.memo, bench.job, config);
  Rng rng(6);
  session.initial_run(make_app_splits(MicroApp::kHct, rng, 4, 10, 0));
  session.slide(1, make_app_splits(MicroApp::kHct, rng, 1, 10, 4));
  EXPECT_EQ(TimeSeries::global().total_recorded(), 0u);
}

// --- SLO engine --------------------------------------------------------------

obs::TimeSeriesSnapshot snapshot_of(const std::vector<SlideSample>& samples) {
  TimeSeries series(TimeSeries::Options{.raw_capacity = 1024,
                                        .aggregate_width = 32,
                                        .aggregate_capacity = 32});
  for (const SlideSample& s : samples) series.record(s);
  return series.snapshot();
}

TEST(SloEngine, VacuouslyOkUntilMinSamples) {
  SloSpec spec;
  spec.name = "latency";
  spec.kind = SloKind::kSlideLatencyP99;
  spec.threshold = 1.0;
  spec.min_samples = 4;
  const SloVerdict verdict = obs::evaluate_slo(
      snapshot_of({sample_with(50.0, 1, 0)}), spec);
  EXPECT_TRUE(verdict.ok);
  EXPECT_FALSE(verdict.burning);
  EXPECT_EQ(verdict.samples, 1u);
}

TEST(SloEngine, LatencyP99BreachesOnTailNotMedian) {
  SloSpec spec;
  spec.name = "latency";
  spec.kind = SloKind::kSlideLatencyP99;
  spec.threshold = 10.0;
  spec.window = 100;
  spec.burn_window = 4;
  spec.min_samples = 4;

  // 98 fast slides + 2 catastrophic ones: nearest-rank p99 over 100
  // samples is the 99th smallest, which lands on the slow tail, so the
  // verdict breaches even though the mean is tiny.
  std::vector<SlideSample> samples(98, sample_with(0.1, 1, 0));
  samples.push_back(sample_with(1000.0, 1, 0));
  samples.push_back(sample_with(1000.0, 1, 0));
  SloVerdict verdict = obs::evaluate_slo(snapshot_of(samples), spec);
  EXPECT_FALSE(verdict.ok);
  EXPECT_GE(verdict.value, 1000.0);
  // The breach sits in the most recent burn_window too -> burning.
  EXPECT_TRUE(verdict.burning);

  // Same tail buried outside the burn window: breached, but not burning.
  std::vector<SlideSample> old_tail(2, sample_with(1000.0, 1, 0));
  for (int i = 0; i < 98; ++i) old_tail.push_back(sample_with(0.1, 1, 0));
  verdict = obs::evaluate_slo(snapshot_of(old_tail), spec);
  EXPECT_FALSE(verdict.ok);
  EXPECT_FALSE(verdict.burning);
}

TEST(SloEngine, MemoHitRateFloorAndRetryCeiling) {
  SloSpec hit;
  hit.name = "hit_rate";
  hit.kind = SloKind::kMemoHitRateFloor;
  hit.threshold = 0.5;
  hit.min_samples = 2;
  // 30 invoked vs 10 reused -> 0.25 hit rate, under the 0.5 floor.
  const auto low = snapshot_of(
      {sample_with(1, 15, 5), sample_with(1, 15, 5)});
  EXPECT_FALSE(obs::evaluate_slo(low, hit).ok);
  // 10 invoked vs 30 reused -> 0.75, above the floor.
  const auto high = snapshot_of(
      {sample_with(1, 5, 15), sample_with(1, 5, 15)});
  EXPECT_TRUE(obs::evaluate_slo(high, hit).ok);

  SloSpec retry;
  retry.name = "retries";
  retry.kind = SloKind::kRetryRateCeiling;
  retry.threshold = 0.5;
  retry.min_samples = 2;
  const auto retries = snapshot_of({sample_with(1, 1, 0, /*retries=*/2),
                                    sample_with(1, 1, 0, /*retries=*/0)});
  const SloVerdict verdict = obs::evaluate_slo(retries, retry);
  EXPECT_FALSE(verdict.ok);  // mean 1.0 retries/slide > 0.5
  EXPECT_DOUBLE_EQ(verdict.value, 1.0);
  const auto clean = snapshot_of({sample_with(1, 1, 0), sample_with(1, 1, 0)});
  EXPECT_TRUE(obs::evaluate_slo(clean, retry).ok);
}

TEST(SloEngine, VerdictsSerializeAndDefaultsAreLenient) {
  const std::vector<SloSpec> defaults = obs::default_slos();
  ASSERT_FALSE(defaults.empty());
  const auto snap = snapshot_of(std::vector<SlideSample>(
      16, sample_with(0.5, 10, 90)));
  const std::vector<SloVerdict> verdicts = obs::evaluate_slos(snap, defaults);
  ASSERT_EQ(verdicts.size(), defaults.size());
  for (const SloVerdict& v : verdicts) {
    EXPECT_TRUE(v.ok) << v.name;  // a healthy series passes every default
  }
  const auto parsed = obs::parse_json(obs::slo_verdicts_to_json(verdicts));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->items().size(), verdicts.size());
  EXPECT_EQ((*parsed)[""].type(), JsonValue::Type::kNull);  // not an object
  EXPECT_EQ(parsed->items()[0]["name"].as_string(), verdicts[0].name);
}

// --- post-mortem format ------------------------------------------------------

TEST(Postmortem, ParserHandlesTheGrammarStrictly)
{
  const auto doc = obs::parse_json(
      R"({"a": [1, 2.5, -3e2], "b": {"nested": true}, "c": null,)"
      R"( "s": "q\"uote\n"})");
  ASSERT_TRUE(doc.has_value());
  EXPECT_DOUBLE_EQ((*doc)["a"].items()[1].as_double(), 2.5);
  EXPECT_DOUBLE_EQ((*doc)["a"].items()[2].as_double(), -300.0);
  EXPECT_TRUE((*doc)["b"]["nested"].as_bool());
  EXPECT_TRUE((*doc)["c"].is_null());
  EXPECT_EQ((*doc)["s"].as_string(), "q\"uote\n");

  EXPECT_FALSE(obs::parse_json("{").has_value());
  EXPECT_FALSE(obs::parse_json("{} trailing").has_value());
  EXPECT_FALSE(obs::parse_json("{'single': 1}").has_value());
  EXPECT_FALSE(obs::parse_json("[1,]").has_value());
  EXPECT_FALSE(obs::parse_json("").has_value());
  // Depth bomb: refuses instead of overflowing the stack.
  EXPECT_FALSE(
      obs::parse_json(std::string(500, '[') + std::string(500, ']'))
          .has_value());
}

TEST(Postmortem, FrameRoundTripsAndDetectsCorruption) {
  TempDir dir("slider_pm_frame");
  const std::string json = R"({"reason":"test","faults":[]})";
  const std::string frame = obs::frame_postmortem(json);
  const std::string path = (dir.path / "x.pm.json").string();
  {
    std::ofstream out(path, std::ios::binary);
    out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  }
  const auto file = obs::read_postmortem(path);
  ASSERT_TRUE(file.has_value());
  EXPECT_EQ(file->version, obs::kPostmortemVersion);
  EXPECT_EQ(file->json, json);
  EXPECT_EQ(file->root["reason"].as_string(), "test");

  // One flipped payload byte must fail the CRC, not parse quietly.
  std::string corrupt = frame;
  corrupt[corrupt.size() - 3] ^= 0x40;
  {
    std::ofstream out(path, std::ios::binary);
    out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
  }
  EXPECT_FALSE(obs::read_postmortem(path).has_value());

  // Truncation (torn write) must fail the size check.
  {
    std::ofstream out(path, std::ios::binary);
    out.write(frame.data(), static_cast<std::streamsize>(frame.size() / 2));
  }
  EXPECT_FALSE(obs::read_postmortem(path).has_value());

  // Wrong magic: not a post-mortem at all.
  EXPECT_FALSE(obs::read_postmortem("/nonexistent/nope.pm.json").has_value());
}

// --- flight recorder ---------------------------------------------------------

TEST(FlightRecorder, DisarmedRecorderNeverWrites) {
  FlightRecorder recorder;
  recorder.note_fault("machine_crash", "test", 1.0, 3);
  FlightRecorder::DumpContext ctx;
  ctx.session = "test";
  EXPECT_EQ(recorder.maybe_dump(ctx), "");
  EXPECT_EQ(recorder.dumps_written(), 0u);
  ASSERT_EQ(recorder.fault_log().size(), 1u);  // the note is still kept
  EXPECT_EQ(recorder.fault_log()[0].kind, "machine_crash");
}

TEST(FlightRecorder, DeferredDumpFiresAtTheNextBoundaryAndValidates) {
  TempDir dir("slider_pm_dump");
  FlightRecorder recorder;
  FlightRecorder::Options options;
  options.directory = dir.path.string();
  recorder.arm(options);
  ASSERT_TRUE(recorder.armed());

  FlightRecorder::DumpContext ctx;
  ctx.session = "folding";
  ctx.sim_time = 42.5;
  EXPECT_EQ(recorder.maybe_dump(ctx), "");  // nothing pending yet

  recorder.note_fault("machine_crash", "chaos schedule seed 9", 40.0, 2);
  recorder.note_fault("straggler_onset", "slowdown factor 6", 41.0, 4,
                      /*request_dump=*/false);
  std::vector<SloVerdict> verdicts(1);
  verdicts[0].name = "latency";
  verdicts[0].ok = false;
  ctx.verdicts = &verdicts;
  const std::string path = recorder.maybe_dump(ctx);
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(recorder.dumps_written(), 1u);

  const auto file = obs::read_postmortem(path);
  ASSERT_TRUE(file.has_value());
  const JsonValue& root = file->root;
  EXPECT_EQ(root["reason"].as_string(), "machine_crash");
  EXPECT_EQ(root["session"].as_string(), "folding");
  EXPECT_DOUBLE_EQ(root["sim_time"].as_double(), 42.5);
  ASSERT_EQ(root["faults"].items().size(), 2u);
  EXPECT_EQ(root["faults"].items()[0]["kind"].as_string(), "machine_crash");
  EXPECT_EQ(root["faults"].items()[0]["machine"].as_u64(), 2u);
  ASSERT_EQ(root["slo"].items().size(), 1u);
  EXPECT_FALSE(root["slo"].items()[0]["ok"].as_bool(true));
  EXPECT_TRUE(root["timeseries"].is_object());
  EXPECT_TRUE(root["ledger"].is_object());
  EXPECT_TRUE(root["stats"]["counters"].is_object());
  EXPECT_TRUE(root["stats"]["gauges"].is_object());
  EXPECT_TRUE(root["stats"]["histograms"].is_object());
  EXPECT_TRUE(root["trace"].is_object());
}

TEST(FlightRecorder, RateLimiterSpacesAndBoundsDumps) {
  TempDir dir("slider_pm_rate");
  FlightRecorder recorder;
  FlightRecorder::Options options;
  options.directory = dir.path.string();
  options.max_dumps = 2;
  options.min_slides_between_dumps = 4;
  recorder.arm(options);
  FlightRecorder::DumpContext ctx;
  ctx.session = "test";

  recorder.request_dump("slo_breach:latency");
  EXPECT_FALSE(recorder.maybe_dump(ctx).empty());  // first fires at once

  // Pending again immediately: blocked until 4 boundaries have passed.
  recorder.request_dump("slo_breach:latency");
  EXPECT_TRUE(recorder.maybe_dump(ctx).empty());
  EXPECT_TRUE(recorder.maybe_dump(ctx).empty());
  EXPECT_TRUE(recorder.maybe_dump(ctx).empty());
  EXPECT_FALSE(recorder.maybe_dump(ctx).empty());  // spacing satisfied
  EXPECT_EQ(recorder.dumps_written(), 2u);

  // Budget exhausted: further requests are dropped, files stay at 2.
  recorder.request_dump("slo_breach:latency");
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(recorder.maybe_dump(ctx).empty());
  EXPECT_EQ(recorder.dumps_written(), 2u);
  EXPECT_EQ(pm_files(dir.path).size(), 2u);
}

// A chaos-driven session with the recorder armed produces a dump that
// attributes the injected fault — the in-process version of the
// chaos_soak --postmortem-dir + slider_doctor ctest pair.
TEST(FlightRecorder, ChaosSessionProducesAttributedDump) {
  TempDir dir("slider_pm_chaos");
  FlightRecorder::global().reset();
  TimeSeries::global().reset();

  TempDir tier_dir("slider_pm_chaos_tier");
  Harness h;
  durability::DurableTier tier(tier_dir.path.string());
  h.memo.attach_durable_tier(&tier);

  robustness::ChaosOptions chaos_options;
  chaos_options.horizon = 2.0;
  chaos_options.crash_events = 1;
  chaos_options.straggler_events = 0;
  chaos_options.memo_loss_events = 0;
  chaos_options.durable_error_events = 0;
  chaos_options.attempt_failure_prob = 0;
  const robustness::ChaosSchedule schedule =
      robustness::ChaosSchedule::generate(3, chaos_options, 6);
  robustness::ChaosController controller(
      schedule, robustness::ChaosTargets{.cluster = &h.cluster,
                                         .memo = &h.memo,
                                         .durable = &tier});

  SliderConfig config;
  config.postmortem_dir = dir.path.string();
  config.fault_provider = &controller;
  const auto bench = apps::make_microbenchmark(MicroApp::kHct);
  SliderSession session(h.engine, h.memo, bench.job, config);
  Rng rng(7);
  session.initial_run(make_app_splits(MicroApp::kHct, rng, 8, 12, 0));
  // Apply the whole schedule (crash + recover), then cross one slide
  // boundary so the deferred dump materializes.
  controller.apply_until(chaos_options.horizon + 1);
  session.slide(2, make_app_splits(MicroApp::kHct, rng, 2, 12, 8));

  const std::vector<std::string> dumps = pm_files(dir.path);
  ASSERT_FALSE(dumps.empty());
  const auto file = obs::read_postmortem(dumps[0]);
  ASSERT_TRUE(file.has_value());
  bool crash_noted = false;
  for (const JsonValue& f : file->root["faults"].items()) {
    if (f["kind"].as_string() == "machine_crash") crash_noted = true;
  }
  EXPECT_TRUE(crash_noted);
  EXPECT_GT(file->root["timeseries"]["total_recorded"].as_u64(), 0u);
  FlightRecorder::global().reset();
}

// A session's dumps name the variant its partitions run, spelled as the
// tree's kind() (and /metrics' tree_variant label) spells it: a
// flat-routed session is "flat", not the tree it would otherwise build.
TEST(FlightRecorder, SessionDumpsNameTheVariantThePartitionsRun) {
  struct Case {
    MicroApp app;
    std::optional<TreeKind> tree_kind;
    const char* label;
  };
  for (const Case& c :
       {Case{MicroApp::kSubStr, std::nullopt, "flat"},
        Case{MicroApp::kHct, TreeKind::kRandomizedFolding,
             "randomized-folding"}}) {
    SCOPED_TRACE(c.label);
    TempDir dir("slider_pm_label");
    FlightRecorder::global().reset();
    Harness h;
    SliderConfig config;
    config.postmortem_dir = dir.path.string();
    config.tree_kind = c.tree_kind;
    const auto bench = apps::make_microbenchmark(c.app);
    SliderSession session(h.engine, h.memo, bench.job, config);
    Rng rng(3);
    session.initial_run(make_app_splits(c.app, rng, 6, 10, 0));
    FlightRecorder::global().note_fault("synthetic_fault", "label check");
    session.slide(1, make_app_splits(c.app, rng, 1, 10, 6));

    const std::vector<std::string> dumps = pm_files(dir.path);
    ASSERT_EQ(dumps.size(), 1u);
    const auto file = obs::read_postmortem(dumps[0]);
    ASSERT_TRUE(file.has_value());
    EXPECT_EQ(file->root["session"].as_string(), c.label);
  }
  FlightRecorder::global().reset();
}

// Concurrent sessions slide and dump in parallel; every produced file must
// still validate (atomic tmp+rename writes, one dump mutex). Runs with
// tracing left alone (default off): TraceCollector snapshots require
// quiescent writers, which concurrent slides are not.
TEST(FlightRecorderConcurrency, ConcurrentSlidesProduceOnlyValidDumps) {
  TempDir dir("slider_pm_concurrent");
  FlightRecorder::global().reset();
  FlightRecorder::Options options;
  options.directory = dir.path.string();
  options.max_dumps = 16;
  options.min_slides_between_dumps = 1;
  FlightRecorder::global().arm(options);

  constexpr int kThreads = 4;
  constexpr int kSlides = 6;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      Harness h;
      SliderConfig config;
      const auto bench = apps::make_microbenchmark(MicroApp::kHct);
      SliderSession session(h.engine, h.memo, bench.job, config);
      Rng rng(100 + t);
      session.initial_run(make_app_splits(MicroApp::kHct, rng, 6, 10, 0));
      for (int s = 0; s < kSlides; ++s) {
        // Every slide notes a fault and requests a dump; the recorder
        // serializes the writers.
        FlightRecorder::global().note_fault(
            "synthetic_fault", "thread " + std::to_string(t), s, t);
        session.slide(1, make_app_splits(
                             MicroApp::kHct, rng, 1, 10,
                             static_cast<SplitId>(1000 * (t + 1) + s)));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const std::vector<std::string> dumps = pm_files(dir.path);
  ASSERT_FALSE(dumps.empty());
  EXPECT_LE(dumps.size(), 16u);
  for (const std::string& path : dumps) {
    const auto file = obs::read_postmortem(path);
    ASSERT_TRUE(file.has_value()) << path;
    EXPECT_TRUE(file->root["faults"].is_array()) << path;
  }
  EXPECT_EQ(FlightRecorder::global().dumps_written(), dumps.size());
  FlightRecorder::global().reset();
}

// --- SLIDER_TRACE_DIR auto-export --------------------------------------------

TEST(TraceDirExport, SessionDestructionExportsAChromeTrace) {
#if !SLIDER_TRACING_ENABLED
  GTEST_SKIP() << "built with SLIDER_ENABLE_TRACING=OFF";
#else
  TempDir dir("slider_trace_dir");
  ::setenv("SLIDER_TRACE_DIR", dir.path.c_str(), 1);
  obs::TraceCollector::global().clear();
  {
    Harness h;
    SliderConfig config;
    const auto bench = apps::make_microbenchmark(MicroApp::kHct);
    SliderSession session(h.engine, h.memo, bench.job, config);
    EXPECT_TRUE(obs::TraceCollector::global().enabled());
    Rng rng(8);
    session.initial_run(make_app_splits(MicroApp::kHct, rng, 4, 10, 0));
    session.slide(1, make_app_splits(MicroApp::kHct, rng, 1, 10, 4));
  }
  ::unsetenv("SLIDER_TRACE_DIR");
  obs::TraceCollector::global().set_enabled(false);
  obs::TraceCollector::global().clear();

  std::vector<std::string> traces;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    traces.push_back(entry.path().string());
  }
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_NE(traces[0].find("slider_trace_"), std::string::npos);
  std::ifstream in(traces[0], std::ios::binary);
  std::string body((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const auto parsed = obs::parse_json(body);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE((*parsed)["traceEvents"].items().empty());
#endif
}

// --- /healthz degrade -> drain regression ------------------------------------

// Minimal blocking HTTP/1.0 GET against 127.0.0.1:`port`.
std::string http_get(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buffer[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string healthz_status(int port) {
  const std::string body = http_get(port, "/healthz");
  if (body.find("\"status\":\"ok\"") != std::string::npos) return "ok";
  if (body.find("\"status\":\"degraded\"") != std::string::npos) {
    return "degraded";
  }
  return "unreachable";
}

// Rejects every durable write while engaged — the storage-test idiom for a
// durable outage narrower than a full chaos schedule.
struct RejectAllWrites final : durability::FaultInjector {
  std::size_t admit(std::size_t) override { return 0; }
};

TEST(HealthzDegradeDrain, ScrapeFlipsBackToOkWithoutFurtherDurableWrites) {
  TempDir tier_dir("slider_healthz_tier");
  Harness h;
  durability::DurableTier tier(tier_dir.path.string());
  h.memo.attach_durable_tier(&tier);
  RejectAllWrites reject;

  SliderConfig config;
  config.introspect_port = 0;
  const auto bench = apps::make_microbenchmark(MicroApp::kHct);
  SliderSession session(h.engine, h.memo, bench.job, config);
  ASSERT_NE(session.introspection(), nullptr);
  const int port = session.introspection()->port();
  Rng rng(9);
  session.initial_run(make_app_splits(MicroApp::kHct, rng, 6, 12, 0));
  EXPECT_EQ(healthz_status(port), "ok");

  // Outage: every replica rejects; the next slide's memo writes push the
  // store into degraded mode, and /healthz must say so.
  for (std::size_t r = 0; r < tier.replicas(); ++r) {
    tier.set_fault_injector(r, &reject);
  }
  session.slide(1, make_app_splits(MicroApp::kHct, rng, 1, 12, 6));
  ASSERT_TRUE(h.memo.durable_degraded());
  EXPECT_EQ(healthz_status(port), "degraded");

  // Tier heals — and then NOTHING writes durably ever again: no slide, no
  // flush_durable(). The regression: the degraded flag used to clear only
  // on a subsequent durable write, so an idle session scraped "degraded"
  // forever. The /healthz handler's recovery poll must drain the backlog
  // and flip the scrape back to "ok" on its own.
  for (std::size_t r = 0; r < tier.replicas(); ++r) {
    tier.set_fault_injector(r, nullptr);
  }
  EXPECT_EQ(healthz_status(port), "ok");
  EXPECT_FALSE(h.memo.durable_degraded());
  EXPECT_EQ(h.memo.degraded_backlog(), 0u);
}

TEST(HealthzDegradeDrain, FullChaosCycleScrapedAcrossDegradeAndDrain) {
  TempDir tier_dir("slider_healthz_chaos_tier");
  Harness h;
  durability::DurableTier tier(tier_dir.path.string());
  h.memo.attach_durable_tier(&tier);

  robustness::ChaosOptions chaos_options;
  chaos_options.horizon = 10.0;
  chaos_options.crash_events = 0;
  chaos_options.straggler_events = 0;
  chaos_options.memo_loss_events = 0;
  chaos_options.durable_error_events = 1;
  const robustness::ChaosSchedule schedule =
      robustness::ChaosSchedule::generate(11, chaos_options, 6);
  ASSERT_EQ(schedule.events().size(), 2u);  // onset + clear
  robustness::ChaosController controller(
      schedule, robustness::ChaosTargets{.cluster = &h.cluster,
                                         .memo = &h.memo,
                                         .durable = &tier});

  SliderConfig config;
  config.introspect_port = 0;
  config.fault_provider = &controller;
  const auto bench = apps::make_microbenchmark(MicroApp::kHct);
  SliderSession session(h.engine, h.memo, bench.job, config);
  ASSERT_NE(session.introspection(), nullptr);
  const int port = session.introspection()->port();
  Rng rng(10);
  session.initial_run(make_app_splits(MicroApp::kHct, rng, 6, 12, 0));
  EXPECT_EQ(healthz_status(port), "ok");

  // Error window opens: slides write into a rejecting tier -> degraded.
  controller.apply_until(schedule.events()[0].at);
  SplitId next_id = 6;
  while (!h.memo.durable_degraded() && next_id < 40) {
    session.slide(1, make_app_splits(MicroApp::kHct, rng, 1, 12, next_id));
    ++next_id;
  }
  ASSERT_TRUE(h.memo.durable_degraded());
  EXPECT_EQ(healthz_status(port), "degraded");

  // Window closes (the controller's forced drain): the very next scrape
  // must read "ok" again — the full cycle, observed end to end over HTTP.
  controller.apply_until(schedule.events()[1].at);
  EXPECT_EQ(healthz_status(port), "ok");
  EXPECT_EQ(h.memo.degraded_backlog(), 0u);
}

}  // namespace
}  // namespace slider
