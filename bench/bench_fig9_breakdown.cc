// Figure 9: normalized execution-time breakdown of incremental runs.
//
// For each app, the "H" row shows vanilla Hadoop's split between Map and
// Reduce work. The A/F/V rows show Slider's incremental run, with its Map
// phase as a percentage of Hadoop's Map work, and its contraction+Reduce
// phase as a percentage of Hadoop's Reduce work — exactly the
// normalization the paper's stacked bars use.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <functional>
#include <vector>

#include "bench/bench_util.h"
#include "common/thread_pool.h"
#include "durability/durable_tier.h"
#include "observability/timeseries.h"

using namespace slider;
using namespace slider::bench;

namespace {

void run_breakdown(double change_fraction, obs::RunReport& report) {
  std::printf("%-10s %-4s %18s %28s\n", "app", "sys", "Map (% of H-Map)",
              "contraction+Reduce (% of H-Red)");
  const WindowMode modes[] = {WindowMode::kAppendOnly,
                              WindowMode::kFixedWidth,
                              WindowMode::kVariableWidth};
  const char* tags[] = {"A", "F", "V"};

  for (const auto& bench : apps::all_microbenchmarks()) {
    // Vanilla baseline over the same window.
    ExperimentParams params;
    params.change_fraction = change_fraction;
    params.records_per_split = records_per_split_for(bench);

    // One representative vanilla run (window is identical across modes).
    params.mode = WindowMode::kFixedWidth;
    BenchEnv base_env;
    Driver base(base_env, bench, params);
    base.initial_run();
    base.slide();
    const RunMetrics vanilla = base.scratch();
    const double h_map = vanilla.map_work;
    const double h_reduce = vanilla.reduce_work + vanilla.shuffle_work;
    std::printf("%-10s %-4s %13.0f%%     %23.0f%%   (absolute: %.2fs / %.2fs)\n",
                bench.name.c_str(), "H", 100.0, 100.0, h_map, h_reduce);
    report.add_row()
        .col("app", bench.name)
        .col("sys", "H")
        .col("change_fraction", change_fraction)
        .col("map_pct_of_hadoop", 100.0)
        .col("contraction_reduce_pct_of_hadoop", 100.0)
        .metrics("vanilla_", vanilla);

    for (int m = 0; m < 3; ++m) {
      params.mode = modes[m];
      BenchEnv env;
      Driver driver(env, bench, params);
      driver.initial_run();
      driver.slide();
      const RunMetrics inc = driver.slide();
      const double slider_map = inc.map_work;
      const double slider_cr =
          inc.contraction_work + inc.reduce_work + inc.shuffle_work;
      std::printf("%-10s %-4s %13.0f%%     %23.0f%%\n", "", tags[m],
                  100.0 * slider_map / h_map, 100.0 * slider_cr / h_reduce);
      report.add_row()
          .col("app", bench.name)
          .col("sys", tags[m])
          .col("change_fraction", change_fraction)
          .col("map_pct_of_hadoop", 100.0 * slider_map / h_map)
          .col("contraction_reduce_pct_of_hadoop",
               100.0 * slider_cr / h_reduce)
          .metrics("incremental_", inc);
    }
  }
}

// Wall-clock of one steady-state scenario (initial build + slides) at a
// given host thread count. The simulated metrics are bit-identical across
// thread counts (see docs/threading.md); only the host wall-clock changes.
struct TimedRun {
  double wall_ms = 0;
  RunMetrics last_slide;
};

TimedRun timed_run(int threads) {
  ThreadPool::set_global_threads(threads);
  const auto bench = apps::make_microbenchmark(apps::MicroApp::kKMeans);
  ExperimentParams params;
  params.change_fraction = 0.25;
  params.records_per_split = records_per_split_for(bench);
  params.mode = WindowMode::kVariableWidth;
  BenchEnv env;
  Driver driver(env, bench, params);
  TimedRun result;
  const auto start = std::chrono::steady_clock::now();
  driver.initial_run();
  for (int i = 0; i < 4; ++i) result.last_slide = driver.slide();
  const auto stop = std::chrono::steady_clock::now();
  result.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  ThreadPool::set_global_threads(0);
  return result;
}

void run_host_parallelism(obs::RunReport& report) {
  print_title("Host parallelism: wall-clock at 1 thread vs the full pool");
  const int host_threads = ThreadPool::global_threads();
  const TimedRun serial = timed_run(1);
  const TimedRun parallel = timed_run(host_threads);
  const double speedup =
      parallel.wall_ms > 0 ? serial.wall_ms / parallel.wall_ms : 0.0;
  std::printf("  k-means, variable-width, 120-split window, 4 slides\n");
  std::printf("  1 thread:  %8.1f ms\n", serial.wall_ms);
  std::printf("  %d threads: %8.1f ms   (speedup %.2fx)\n", host_threads,
              parallel.wall_ms, speedup);
  const bool identical =
      serial.last_slide.work() == parallel.last_slide.work() &&
      serial.last_slide.time == parallel.last_slide.time;
  std::printf("  simulated metrics identical across thread counts: %s\n",
              identical ? "yes" : "NO — DETERMINISM BUG");
  report.set_param("host_threads", static_cast<std::uint64_t>(host_threads));
  report.add_row()
      .col("section", "host_parallelism")
      .col("app", "k-means")
      .col("threads_serial", 1.0)
      .col("threads_parallel", static_cast<double>(host_threads))
      .col("wall_ms_serial", serial.wall_ms)
      .col("wall_ms_parallel", parallel.wall_ms)
      .col("wall_speedup", speedup)
      .col("sim_metrics_identical", identical ? 1.0 : 0.0);
}

// Flat aggregation tier on vs off for a flat-eligible combiner (substr's
// sum). Same inputs, same slide schedule; "on" routes every partition to
// the flat circular buffer, "off" forces the default contraction tree.
// The simulated contraction charges and the reduced outputs must be
// byte-identical — only the host wall-clock differs.
struct FlatTierRun {
  double wall_ms = 0;
  double contraction_work = 0;
  std::vector<KVTable> outputs;
  std::string kind;
};

FlatTierRun flat_tier_run(bool enable_flat) {
  const auto bench = apps::make_microbenchmark(apps::MicroApp::kSubStr);
  ExperimentParams params;
  params.change_fraction = 0.25;
  params.records_per_split = records_per_split_for(bench);
  params.mode = WindowMode::kVariableWidth;
  params.enable_flat_tier = enable_flat;
  BenchEnv env;
  Driver driver(env, bench, params);
  FlatTierRun result;
  driver.initial_run();
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 8; ++i) {
    const RunMetrics m = driver.slide();
    result.contraction_work += m.contraction_work;
  }
  const auto stop = std::chrono::steady_clock::now();
  result.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  result.outputs = driver.session().output();
  result.kind = driver.session().describe_tree(0).kind;
  return result;
}

void run_flat_tier(obs::RunReport& report) {
  print_title("Flat aggregation tier: substr with the tier on vs off");
  const FlatTierRun tree = flat_tier_run(false);
  const FlatTierRun flat = flat_tier_run(true);
  const double speedup = flat.wall_ms > 0 ? tree.wall_ms / flat.wall_ms : 0.0;
  const bool identical = flat.outputs == tree.outputs;
  std::printf("  substr, variable-width, 120-split window, 8 slides\n");
  std::printf("  tier off (%s): %8.1f ms   (contraction work %.3fs)\n",
              tree.kind.c_str(), tree.wall_ms, tree.contraction_work);
  std::printf("  tier on  (%s): %8.1f ms   (contraction work %.3fs, "
              "wall speedup %.2fx)\n",
              flat.kind.c_str(), flat.wall_ms, flat.contraction_work, speedup);
  std::printf("  reduced outputs identical across tiers: %s\n",
              identical ? "yes" : "NO — FLAT TIER BUG");
  report.add_row()
      .col("section", "flat_tier")
      .col("app", "substr")
      .col("wall_ms_tree", tree.wall_ms)
      .col("wall_ms_flat", flat.wall_ms)
      .col("wall_speedup", speedup)
      .col("contraction_work_tree", tree.contraction_work)
      .col("contraction_work_flat", flat.contraction_work)
      .col("outputs_identical", identical ? 1.0 : 0.0);
}

// An overhead section's measurement: off/on pairs, the side that runs
// first alternating from pair to pair, one overhead per pair. One figure
// per side cannot tell an overhead of a few percent from run-to-run noise,
// so the sections report the pairs' median with its quartiles, and call
// the bar only when both quartiles sit on one side of it.
struct PairedOverhead {
  double off_ms = 0;  // median wall-clock, off
  double on_ms = 0;   // median wall-clock, on
  double q1_pct = 0;
  double median_pct = 0;
  double q3_pct = 0;
  int pairs = 0;
  double bar_pct = 0;
  const char* verdict = "";  // "within bar", "over bar" or "unresolved"
};

// Linearly interpolated quantile `q` of `sorted`.
double quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

PairedOverhead measure_overhead(double bar_pct,
                                const std::function<double(bool on)>& run) {
  constexpr int kPairs = 9;
  std::vector<double> off, on, pct;
  for (int i = 0; i < kPairs; ++i) {
    double off_ms = 0, on_ms = 0;
    if (i % 2 == 0) {
      off_ms = run(false);
      on_ms = run(true);
    } else {
      on_ms = run(true);
      off_ms = run(false);
    }
    off.push_back(off_ms);
    on.push_back(on_ms);
    pct.push_back(off_ms > 0 ? 100.0 * (on_ms - off_ms) / off_ms : 0.0);
  }
  std::sort(off.begin(), off.end());
  std::sort(on.begin(), on.end());
  std::sort(pct.begin(), pct.end());
  PairedOverhead m;
  m.off_ms = quantile(off, 0.5);
  m.on_ms = quantile(on, 0.5);
  m.q1_pct = quantile(pct, 0.25);
  m.median_pct = quantile(pct, 0.5);
  m.q3_pct = quantile(pct, 0.75);
  m.pairs = kPairs;
  m.bar_pct = bar_pct;
  m.verdict = m.q3_pct < bar_pct   ? "within bar"
              : m.q1_pct > bar_pct ? "over bar"
                                   : "unresolved";
  return m;
}

// Prints the on line's overhead and adds the spread columns to `row`.
void report_overhead(const PairedOverhead& m, obs::RunReport::Row& row,
                     const std::string& prefix) {
  std::printf("(overhead median %+.2f%% [Q1 %+.2f%%, Q3 %+.2f%%] over %d "
              "pairs, bar <%.1f%%: %s)\n",
              m.median_pct, m.q1_pct, m.q3_pct, m.pairs, m.bar_pct, m.verdict);
  row.col(prefix + "_overhead_pct", m.median_pct)
      .col(prefix + "_overhead_q1_pct", m.q1_pct)
      .col(prefix + "_overhead_q3_pct", m.q3_pct)
      .col("pairs", static_cast<double>(m.pairs))
      .col("bar_pct", m.bar_pct)
      .col("verdict", m.verdict);
}

// Wall-clock of the same steady-state scenario with per-slide TimeSeries
// sampling on vs off. The samples feed /timeseries.json and the SLO
// verdicts in /healthz; the acceptance bar is <1% overhead when enabled.
double timed_sampling_run(bool sample) {
  const auto bench = apps::make_microbenchmark(apps::MicroApp::kKMeans);
  ExperimentParams params;
  params.change_fraction = 0.25;
  params.records_per_split = records_per_split_for(bench);
  params.mode = WindowMode::kVariableWidth;
  params.sample_timeseries = sample;
  BenchEnv env;
  Driver driver(env, bench, params);
  driver.initial_run();
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 8; ++i) driver.slide();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

void run_observability_overhead(obs::RunReport& report) {
  print_title("Observability overhead: TimeSeries sampling on vs off");
  // The two configurations do bit-identical simulated work, so wall-clock
  // is the only variable.
  const PairedOverhead m = measure_overhead(1.0, timed_sampling_run);
  obs::TimeSeries::global().reset();
  std::printf("  k-means, variable-width, 120-split window, 8 slides, "
              "medians of %d off/on pairs\n", m.pairs);
  std::printf("  sampling off: %8.1f ms\n", m.off_ms);
  std::printf("  sampling on:  %8.1f ms   ", m.on_ms);
  auto& row = report.add_row()
                  .col("section", "observability_overhead")
                  .col("app", "k-means")
                  .col("wall_ms_sampling_off", m.off_ms)
                  .col("wall_ms_sampling_on", m.on_ms);
  report_overhead(m, row, "sampling");
}

// Wall-clock of the same steady-state scenario with per-slide lineage
// recording (SliderConfig::record_provenance) armed vs disarmed. Armed
// sessions append a NodeLineage record at every charge site and fold the
// slide DAG into the tiered rings; the acceptance bar is <1.5% overhead,
// and zero when disarmed (the hooks compile down to a flag test).
double timed_provenance_run(bool armed) {
  const auto bench = apps::make_microbenchmark(apps::MicroApp::kKMeans);
  ExperimentParams params;
  params.change_fraction = 0.25;
  params.records_per_split = records_per_split_for(bench);
  params.mode = WindowMode::kVariableWidth;
  params.record_provenance = armed;
  BenchEnv env;
  Driver driver(env, bench, params);
  driver.initial_run();
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 8; ++i) driver.slide();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

void run_provenance_overhead(obs::RunReport& report) {
  print_title("Provenance overhead: lineage recording armed vs disarmed");
  const PairedOverhead m = measure_overhead(1.5, timed_provenance_run);
  std::printf("  k-means, variable-width, 120-split window, 8 slides, "
              "medians of %d off/on pairs\n", m.pairs);
  std::printf("  provenance off: %8.1f ms\n", m.off_ms);
  std::printf("  provenance on:  %8.1f ms   ", m.on_ms);
  auto& row = report.add_row()
                  .col("section", "provenance_overhead")
                  .col("app", "k-means")
                  .col("wall_ms_provenance_off", m.off_ms)
                  .col("wall_ms_provenance_on", m.on_ms);
  report_overhead(m, row, "provenance");
}

// Wall-clock of the same steady-state scenario with the integrity
// scrubber armed (SliderConfig::scrub_records_per_slide) vs disarmed.
// Both runs write through an attached durable tier (BenchEnv has none, so
// one is stood up in a temp dir) — the only delta is the per-slide scrub
// itself: CRC re-verification of at-rest records plus the cross-replica
// check. Acceptance bar: <2% overhead armed, zero when disarmed (one
// branch per slide).
double timed_scrub_run(std::uint64_t budget,
                       const std::filesystem::path& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto bench = apps::make_microbenchmark(apps::MicroApp::kKMeans);
  ExperimentParams params;
  params.change_fraction = 0.25;
  params.records_per_split = records_per_split_for(bench);
  params.mode = WindowMode::kVariableWidth;
  params.scrub_records_per_slide = budget;
  BenchEnv env;
  durability::DurableTier tier(dir.string());
  env.memo.attach_durable_tier(&tier);
  Driver driver(env, bench, params);
  driver.initial_run();
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 8; ++i) driver.slide();
  const auto stop = std::chrono::steady_clock::now();
  const double ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  env.memo.flush_durable();
  return ms;
}

void run_scrub_overhead(obs::RunReport& report) {
  print_title("Scrub overhead: integrity scrubber armed vs disarmed");
  constexpr std::uint64_t kBudget = 256;  // records re-verified per slide
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("slider_fig9_scrub_" + std::to_string(::getpid()));
  const PairedOverhead m = measure_overhead(2.0, [&](bool armed) {
    return timed_scrub_run(armed ? kBudget : 0, dir);
  });
  std::filesystem::remove_all(dir);
  std::printf("  k-means, variable-width, 120-split window, 8 slides, "
              "durable tier attached, medians of %d off/on pairs\n",
              m.pairs);
  std::printf("  scrub disarmed:         %8.1f ms\n", m.off_ms);
  std::printf("  scrub armed (%llu/slide): %8.1f ms   ",
              static_cast<unsigned long long>(kBudget), m.on_ms);
  auto& row = report.add_row()
                  .col("section", "scrub_overhead")
                  .col("app", "k-means")
                  .col("scrub_records_per_slide", static_cast<double>(kBudget))
                  .col("wall_ms_scrub_off", m.off_ms)
                  .col("wall_ms_scrub_on", m.on_ms);
  report_overhead(m, row, "scrub");
}

}  // namespace

int main() {
  std::printf("Figure 9: performance breakdown of incremental runs "
              "(normalized to vanilla Hadoop phases)\n");

  obs::RunReport report = make_report("fig9_breakdown");
  report.add_note("paper: K-Means/KNN do ~98% of vanilla work in Map; "
                  "contraction+Reduce averages ~31% of vanilla Reduce at 5% "
                  "change, ~43% at 25% change");

  print_title("Fig 9(a): 5% change in the input");
  print_paper_note("K-Means/KNN do ~98% of vanilla work in Map; Slider Map "
                   "work ~= input change; contraction+Reduce averages ~31% "
                   "of vanilla Reduce (min 18%, max 60%)");
  run_breakdown(0.05, report);

  print_title("Fig 9(b): 25% change in the input");
  print_paper_note("Slider Map work grows with the change; contraction+"
                   "Reduce averages ~43% of vanilla Reduce (min 26%, max 81%)");
  run_breakdown(0.25, report);

  run_host_parallelism(report);
  run_flat_tier(report);
  run_observability_overhead(report);
  run_provenance_overhead(report);
  run_scrub_overhead(report);

  const std::string path = report.write();
  if (!path.empty()) std::printf("\nreport: %s\n", path.c_str());
  return 0;
}
