// Single-session workloads: one SliderSession over an 800-split window,
// sliding 4 splits out and 4 in per slide.
//
//   hct-fold-w800     HCT over a variable-width window (folding tree):
//                     contraction, memo traffic and GC do the work.
//   substr-flat-w800  subStr, same geometry; the default routing sends every
//                     partition to the flat tier, bypassing the trees.
//
// Untraced run: time every SliderSession::slide call. Traced run: slide the
// session untimed-by-layer, then replay the same slide layer by layer on a
// private copy of the layers (map stage, apply_delta, reduce, GC), timing
// each call; the replay's outputs must equal the session's.

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench_common.h"
#include "common/thread_pool.h"
#include "replay.h"
#include "slider/session.h"

namespace perfbench {
namespace {

using namespace slider;

// Outputs are checked against a from-scratch recompute after the initial
// run, after this slide, and after the last slide (--tiny: every slide).
constexpr std::size_t kMidCheckSlide = 50;
constexpr int kCheckThreads = 4;

struct Geometry {
  apps::MicroApp app = apps::MicroApp::kHct;
  std::optional<TreeKind> tree_kind;
  std::size_t window_splits = 800;
  std::size_t records_per_split = 60;
  std::size_t delta = 4;
  std::size_t min_slides = 200;
  std::size_t max_slides = 0;
  int setups = 3;                // initial runs; setup_s is their median
  std::size_t count_slides = 50;  // exact-repeat counts cover this prefix
};

Geometry geometry_for(const Options& options) {
  Geometry g;
  const bool hct = options.workload == "hct-fold-w800";
  g.app = hct ? apps::MicroApp::kHct : apps::MicroApp::kSubStr;
  // HCT names its tree; subStr leaves the choice to the flat-tier routing.
  if (hct) g.tree_kind = TreeKind::kFolding;
  if (options.tiny) {
    g.window_splits = 40;
    g.records_per_split = 20;
    g.delta = 2;
    g.min_slides = g.max_slides = g.count_slides = 12;
    g.setups = 1;
    return g;
  }
  // Input pool: enough slides for about twice today's slide rate (one
  // thread), so a faster build still measures for the whole budget while
  // the pool's memory stays modest. It depends only on --seconds, so it
  // weighs the same in peak_rss_mb on every build.
  const double max_rate_per_s = hct ? 30 : 70;
  g.max_slides = std::max<std::size_t>(
      g.min_slides,
      static_cast<std::size_t>(options.seconds * max_rate_per_s));
  if (options.trace) {
    g.min_slides = 100;
    g.setups = 1;
  }
  return g;
}

// The workload's input generator, separate from the system under test:
// seeded by --seed, consumed before any timer starts.
class InputStream {
 public:
  InputStream(apps::MicroApp app, std::uint64_t seed,
              std::size_t records_per_split)
      : app_(app), rng_(seed), records_per_split_(records_per_split) {}

  std::vector<SplitPtr> next(std::size_t count) {
    auto records = apps::generate_input(app_, count * records_per_split_,
                                        rng_, next_id_ * 1'000'000);
    auto splits = make_splits(std::move(records), records_per_split_, next_id_);
    next_id_ += count;
    return splits;
  }

 private:
  apps::MicroApp app_;
  Rng rng_;
  std::size_t records_per_split_;
  SplitId next_id_ = 0;
};

// From-scratch reference over the mirrored window; true iff the session's
// outputs equal it table for table.
bool matches_scratch(const VanillaEngine& engine, const JobSpec& job,
                     const std::deque<SplitPtr>& window,
                     const std::vector<KVTable>& outputs, double* scratch_ms) {
  const std::vector<SplitPtr> splits(window.begin(), window.end());
  const double start = wall_ms();
  const JobResult reference = engine.run(job, splits);
  *scratch_ms = wall_ms() - start;
  return reference.partition_outputs == outputs;
}

}  // namespace

Result run_single_session(const Options& options) {
  const Geometry g = geometry_for(options);
  const apps::MicroBenchmark bench = apps::make_microbenchmark(g.app);
  const JobSpec& job = bench.job;
  SliderConfig config;
  config.mode = WindowMode::kVariableWidth;
  config.tree_kind = g.tree_kind;
  Result result;

  // --- inputs: all generated before any timer starts -----------------------
  InputStream inputs(g.app, options.seed, g.records_per_split);
  const std::vector<SplitPtr> initial = inputs.next(g.window_splits);
  std::vector<std::vector<SplitPtr>> pool;
  pool.reserve(g.max_slides);
  double pool_bytes = 0;
  for (std::size_t i = 0; i < g.max_slides; ++i) {
    pool.push_back(inputs.next(g.delta));
    for (const SplitPtr& split : pool.back()) {
      pool_bytes += static_cast<double>(split->byte_size);
    }
  }

  // Every reported time is scaled to reference speed: the reference kernel
  // runs just before and just after each timed interval (bench_common.h).
  Reference reference;

  // --- setup: median of several from-scratch initial runs ------------------
  std::unique_ptr<bench::BenchEnv> env;
  std::unique_ptr<SliderSession> session;
  std::vector<double> setup_s;
  for (int i = 0; i < g.setups; ++i) {
    session.reset();
    env = std::make_unique<bench::BenchEnv>();
    session = std::make_unique<SliderSession>(env->engine, env->memo, job,
                                              config);
    const double before = reference.sample_ms();
    const double start = wall_ms();
    session->initial_run(initial);
    const double ms = wall_ms() - start;
    setup_s.push_back(ms * Reference::factor(before, reference.sample_ms()) /
                      1e3);
  }
  std::deque<SplitPtr> window(initial.begin(), initial.end());

  std::vector<double> scratch_ms;
  PeakRss peak;
  auto check = [&] {
    ++result.attempted;
    peak.pause();
    // Untraced, the from-scratch reference runs on every core, then the pool
    // goes back to the workload's size. Traced, it stays on the workload's
    // thread, so that scratch_ms and speedup_vs_scratch compare like with
    // like.
    if (!options.trace) ThreadPool::set_global_threads(kCheckThreads);
    double ms = 0;
    const double before = reference.sample_ms();
    if (!matches_scratch(env->engine, job, window, session->output(), &ms)) {
      ++result.failed;
    }
    scratch_ms.push_back(ms * Reference::factor(before, reference.sample_ms()));
    if (!options.trace) ThreadPool::set_global_threads(kThreads);
    peak.resume();
  };
  check();  // the initial window

  // --- traced run: layer replay beside the session --------------------------
  SpanLog spans;
  std::optional<Replay> replay;
  std::optional<MemoProbe> probe;
  double initial_build_ms = 0;
  if (options.trace) {
    replay.emplace(job, config);
    probe.emplace();
    const double before = reference.sample_ms();
    initial_build_ms = replay->initial(initial, &spans);
    initial_build_ms *= Reference::factor(before, reference.sample_ms());
    ++result.attempted;
    if (replay->outputs() != session->output()) ++result.failed;
  }

  // Wall and CPU ms of each slide at reference speed; ref_ms[i] and
  // ref_ms[i + 1] bracket slide i (and, traced, its replay).
  std::vector<double> slide_ms;
  std::vector<double> slide_cpu;
  std::vector<double> ref_ms;
  std::vector<Replay::Step> steps;
  std::vector<RunMetrics> runs;
  MemoStoreStats memo_before = env->memo.stats();
  MemoStoreStats memo_after = memo_before;
  std::size_t memo_entries = 0;
  double memo_mb = 0;
  std::uint64_t replay_mismatches = 0;

  // The time budget counts the time between samples at reference speed, so
  // a run does the same number of slides however fast the host runs.
  double measured_ms = 0;
  ref_ms.push_back(reference.sample_ms());
  std::size_t i = 0;
  for (; i < pool.size(); ++i) {
    const double interval_start = wall_ms();
    // The replay needs the same splits; keep a copy before the session
    // takes the vector.
    std::vector<SplitPtr> added = std::move(pool[i]);
    const std::vector<SplitPtr> replay_added =
        options.trace ? added : std::vector<SplitPtr>{};
    for (std::size_t r = 0; r < g.delta; ++r) window.pop_front();
    window.insert(window.end(), added.begin(), added.end());

    const double cpu_start = process_cpu_ms();
    const double start = wall_ms();
    const RunMetrics metrics = session->slide(g.delta, std::move(added));
    slide_ms.push_back(wall_ms() - start);
    slide_cpu.push_back(process_cpu_ms() - cpu_start);
    ++result.attempted;

    // The traced run reports no end-to-end metric, so its replay counts
    // toward the time budget.
    if (options.trace) {
      const std::string parent = "slide-" + std::to_string(i);
      spans.add({"slider.slide", start, start + slide_ms.back(), 0, parent});
      steps.push_back(replay->slide(g.delta, replay_added, &spans, parent));
      if (replay->outputs() != session->output()) ++replay_mismatches;
      probe->feed(replay_added, replay->last_maps());
      runs.push_back(metrics);
      if (i + 1 == g.count_slides) {
        memo_after = env->memo.stats();
        memo_entries = env->memo.size();
        memo_mb = static_cast<double>(env->memo.total_bytes()) / (1 << 20);
      }
    }
    const double interval = wall_ms() - interval_start;
    ref_ms.push_back(reference.sample_ms());
    const double factor = Reference::factor(ref_ms[i], ref_ms[i + 1]);
    slide_ms.back() *= factor;
    slide_cpu.back() *= factor;
    measured_ms += interval * factor;
    if (options.trace) {
      steps.back().scale(factor);
      probe->commit(factor);
    }
    if (options.tiny || i + 1 == kMidCheckSlide) check();
    if (i + 1 >= g.max_slides ||
        (i + 1 >= g.min_slides && measured_ms >= options.seconds * 1e3)) {
      ++i;
      break;
    }
  }
  const std::size_t slides = i;
  const double peak_mb = peak.peak_mb() - reference.resident_mb();
  if (!options.tiny && slides != kMidCheckSlide) check();  // the last slide
  result.failed += replay_mismatches;
  result.attempted += options.trace ? slides : 0;

  double total_ms = 0;
  double total_cpu_ms = 0;
  for (std::size_t k = 0; k < slides; ++k) {
    total_ms += slide_ms[k];
    total_cpu_ms += slide_cpu[k];
  }
  const double slide_p50 = median(slide_ms);
  result.note("workload " + options.workload + ", seed " +
              std::to_string(options.seed) + ", " +
              std::to_string(kThreads) + " thread, window " +
              std::to_string(g.window_splits) + " splits x " +
              std::to_string(g.records_per_split) + " records, delta " +
              std::to_string(g.delta));
  result.note("slide samples: " + std::to_string(slide_ms.size()) +
              " (p95 has " +
              std::to_string(slide_ms.size() - static_cast<std::size_t>(
                                                   0.95 * slide_ms.size())) +
              " beyond it); setups: " + std::to_string(setup_s.size()) +
              "; output checks: " + std::to_string(scratch_ms.size()) +
              "; input pool " + std::to_string(pool.size()) + " slides, " +
              std::to_string(pool_bytes / (1 << 20)) + " MiB");
  result.note_reference(ref_ms);

  if (!options.trace) {
    result.set("slide_p50_ms", slide_p50);
    result.set("slide_p95_ms", percentile(slide_ms, 95));
    result.set("runs_per_s", static_cast<double>(slides) / (total_ms / 1e3));
    result.set("cpu_ms_per_run", total_cpu_ms / static_cast<double>(slides));
    result.set("setup_s", median(setup_s));
    result.set("peak_rss_mb", peak_mb);
    return result;
  }

  // --- per-layer metrics ---------------------------------------------------
  auto p50_of = [&](double Replay::Step::*field) {
    return step_p50(steps, field);
  };
  const double map_ms = p50_of(&Replay::Step::map_ms);
  const double delta_ms = p50_of(&Replay::Step::delta_ms);
  const double reduce_ms = p50_of(&Replay::Step::reduce_ms);
  const double gc_ms = p50_of(&Replay::Step::gc_ms);
  const double layers_ms = map_ms + delta_ms + reduce_ms + gc_ms;
  std::vector<double> glue_ms;
  for (const Replay::Step& s : steps) {
    glue_ms.push_back(s.total_ms - s.map_ms - s.delta_ms - s.reduce_ms -
                      s.gc_ms);
  }
  const double traced_p50 = p50_of(&Replay::Step::total_ms);

  // Exact-repeat counts: per-slide means over the fixed prefix.
  const std::size_t counted = std::min(g.count_slides, steps.size());
  TreeUpdateStats tree;
  double collected = 0;
  double sim_work = 0;
  double sim_time = 0;
  for (std::size_t s = 0; s < counted; ++s) {
    tree += steps[s].tree;
    collected += static_cast<double>(steps[s].gc_collected);
    sim_work += runs[s].work();
    sim_time += runs[s].time;
  }
  if (counted < g.count_slides) {
    memo_after = env->memo.stats();
    memo_entries = env->memo.size();
    memo_mb = static_cast<double>(env->memo.total_bytes()) / (1 << 20);
  }
  const double n = static_cast<double>(std::max<std::size_t>(1, counted));
  const double invocations = static_cast<double>(tree.combiner_invocations);
  const double reused = static_cast<double>(tree.combiner_reused);
  const double reads =
      static_cast<double>((memo_after.reads_memory - memo_before.reads_memory) +
                          (memo_after.reads_disk - memo_before.reads_disk));
  const double misses =
      static_cast<double>(memo_after.misses - memo_before.misses);

  result.set("mapreduce.map_ms", map_ms);
  result.set("mapreduce.map_cpu_ms", p50_of(&Replay::Step::map_cpu));
  result.set("mapreduce.reduce_ms", reduce_ms);
  result.set("mapreduce.reduce_cpu_ms", p50_of(&Replay::Step::reduce_cpu));
  result.set("mapreduce.scratch_ms", median(scratch_ms));
  result.set("contraction.apply_delta_ms", delta_ms);
  result.set("contraction.apply_delta_cpu_ms",
             p50_of(&Replay::Step::delta_cpu));
  result.set("contraction.initial_build_ms", initial_build_ms);
  result.set("contraction.combiner_invocations", invocations / n);
  result.set("contraction.combiner_reused", reused / n);
  result.set("contraction.reuse_ratio",
             reused + invocations > 0 ? reused / (reused + invocations) : 0);
  result.set("contraction.nodes_visited",
             static_cast<double>(tree.nodes_visited) / n);
  result.set("contraction.rows_scanned",
             static_cast<double>(tree.rows_scanned) / n);
  result.set("storage.gc_ms", gc_ms);
  result.set("storage.gc_collected", collected / n);
  result.set("storage.put_us_per_kb", probe->put_us_per_kb());
  result.set("storage.get_us_per_kb", probe->get_us_per_kb());
  result.set("storage.memo_entries", static_cast<double>(memo_entries));
  result.set("storage.memo_mb", memo_mb);
  result.set("storage.hit_ratio", reads + misses > 0 ? reads / (reads + misses)
                                                     : 0);
  result.set("storage.misses", misses / n);
  result.set("slider.slide_p50_ms", slide_p50);
  result.set("slider.self_ms", slide_p50 - layers_ms);
  result.set("slider.speedup_vs_scratch", median(scratch_ms) / slide_p50);
  result.set("slider.sim_work_s", sim_work / n);
  result.set("slider.sim_time_s", sim_time / n);
  result.set("trace.slide_p50_ms", traced_p50);
  result.set("trace.slide_delta_ms", traced_p50 - slide_p50);
  result.set("trace.overhead_ms", median(glue_ms));
  result.set("host.reference_ms", median(ref_ms));
  if (probe->lost() > 0) ++result.failed;

  char line[256];
  std::snprintf(line, sizeof(line),
                "accounting (p50 ms): map %.3f + apply_delta %.3f + reduce "
                "%.3f + gc %.3f + self %.3f = slide %.3f",
                map_ms, delta_ms, reduce_ms, gc_ms, slide_p50 - layers_ms,
                slide_p50);
  result.note(line);
  std::snprintf(line, sizeof(line),
                "replay outputs equal the session's on %zu of %zu slides",
                slides - static_cast<std::size_t>(replay_mismatches), slides);
  result.note(line);
  const std::string span_path =
      options.work_dir + "/spans-" + options.workload + ".json";
  if (!spans.write_json(span_path)) ++result.failed;
  result.note("spans: " + span_path);
  return result;
}

}  // namespace perfbench
