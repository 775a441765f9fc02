// fleet-quota-t128: one SessionManager multiplexing 128 tenants over a
// shared MemoStore with a DurableTier, closed loop.
//
// Tenants cycle the four serving profiles (hct/folding, substr/flat,
// kmeans/rotating with split processing, matrix/randomized); each window is
// 6 splits x 8 records and slides by one split. Every 7th tenant is capped at
// 6 memo entries (quota eviction); every 5th idles two rounds out of four,
// so it is checkpointed out and hydrated back. Each round submits one slide
// per active tenant, then run_pending() and an explicit garbage_collect().

#include <algorithm>
#include <deque>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench_common.h"
#include "common/hash.h"
#include "data/serde.h"
#include "durability/durable_tier.h"
#include "observability/stats.h"
#include "replay.h"
#include "serving/session_manager.h"

namespace perfbench {
namespace {

using namespace slider;

struct Profile {
  apps::MicroApp app;
  WindowMode mode;
  std::optional<TreeKind> kind;
  bool split_processing;
};

constexpr Profile kProfiles[] = {
    {apps::MicroApp::kHct, WindowMode::kVariableWidth, TreeKind::kFolding,
     false},
    {apps::MicroApp::kSubStr, WindowMode::kVariableWidth, std::nullopt, false},
    {apps::MicroApp::kKMeans, WindowMode::kFixedWidth, TreeKind::kRotating,
     true},
    {apps::MicroApp::kMatrix, WindowMode::kVariableWidth,
     TreeKind::kRandomizedFolding, false},
};

struct Geometry {
  std::size_t tenants = 128;
  std::size_t window_splits = 6;
  std::size_t records_per_split = 8;
  std::size_t min_rounds = 12;
  std::size_t max_rounds = 0;
  int setups = 3;                // fleets built; setup_s is their median
  std::size_t count_rounds = 8;  // exact-repeat counts cover this prefix
};

Geometry geometry_for(const Options& options) {
  Geometry g;
  if (options.tiny) {
    g.tenants = 12;
    g.min_rounds = g.max_rounds = g.count_rounds = 8;
    g.setups = 1;
    return g;
  }
  // Round budget: several times today's round rate (about 2 per second),
  // in whole napper cycles.
  g.max_rounds = std::max<std::size_t>(
      g.min_rounds, static_cast<std::size_t>(options.seconds * 10));
  g.max_rounds += (4 - g.max_rounds % 4) % 4;
  if (options.trace) g.setups = 1;
  return g;
}

bool is_napper(std::size_t tenant) { return tenant % 5 == 3; }
bool is_capped(std::size_t tenant) { return tenant % 7 == 1; }
// Nappers idle in rounds 2 and 3 of every 4: two idle drains checkpoint
// them out, and the next submission hydrates them back.
bool active_in(std::size_t tenant, std::size_t round) {
  return !is_napper(tenant) || round % 4 < 2;
}

std::string tenant_name(std::size_t tenant) {
  return "tenant-" + std::to_string(tenant);
}

// Tenants the traced run replays layer by layer: the first hct, substr and
// matrix tenant that is neither capped nor napping. kmeans tenants are left
// out: split processing needs the background phase between slides.
std::vector<std::size_t> replay_tenants(std::size_t tenants) {
  std::vector<std::size_t> picked;
  for (const std::size_t profile : {0, 1, 3}) {
    for (std::size_t t = profile; t < tenants; t += std::size(kProfiles)) {
      if (!is_napper(t) && !is_capped(t)) {
        picked.push_back(t);
        break;
      }
    }
  }
  return picked;
}

// One tenant's seeded input stream, generated before any timer starts.
struct TenantInputs {
  std::vector<SplitPtr> initial;
  std::vector<std::vector<SplitPtr>> slides;  // one batch per round
};

TenantInputs generate_tenant(const Profile& profile, const Geometry& g,
                             std::uint64_t seed, std::size_t tenant) {
  Rng rng(hash_combine(seed, static_cast<std::uint64_t>(tenant)));
  SplitId next_id = 0;
  auto batch = [&](std::size_t count) {
    auto records = apps::generate_input(
        profile.app, count * g.records_per_split, rng, next_id * 1'000'000);
    auto splits =
        make_splits(std::move(records), g.records_per_split, next_id);
    next_id += count;
    return splits;
  };
  TenantInputs inputs;
  inputs.initial = batch(g.window_splits);
  for (std::size_t r = 0; r < g.max_rounds; ++r) {
    inputs.slides.push_back(batch(1));
  }
  return inputs;
}

// A fleet and the on-disk state it owns (durable tier + checkpoint spool),
// under the benchmark's work directory; removed on destruction.
class Fleet {
 public:
  Fleet(const std::string& dir, const Geometry& g) : dir_(dir) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_ + "/tier");
    tier_ = std::make_unique<durability::DurableTier>(dir_ + "/tier");
    env_ = std::make_unique<bench::BenchEnv>();
    env_->memo.attach_durable_tier(tier_.get());
    serving::SessionManagerOptions options;
    options.shards = 16;
    options.idle_checkpoint_rounds = 2;
    options.auto_gc = false;
    options.spool_dir = dir_ + "/spool";
    // Every slide of the run stays in each tenant's raw ring.
    options.series_options.raw_capacity = 2 * g.max_rounds + 8;
    options.series_options.aggregate_width = 8;
    options.series_options.aggregate_capacity = 4;
    manager_ = std::make_unique<serving::SessionManager>(env_->engine,
                                                         env_->memo, options);
  }

  ~Fleet() {
    manager_.reset();
    env_.reset();
    tier_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  serving::SessionManager& manager() { return *manager_; }
  MemoStore& memo() { return env_->memo; }
  const VanillaEngine& engine() const { return env_->engine; }
  const durability::DurableTier& tier() const { return *tier_; }

 private:
  std::string dir_;
  std::unique_ptr<durability::DurableTier> tier_;
  std::unique_ptr<bench::BenchEnv> env_;
  std::unique_ptr<serving::SessionManager> manager_;
};

// Fleet-wide counts at one instant, for prefix deltas.
struct Counts {
  MemoStoreStats memo;
  std::uint64_t checkpoints = 0;
  std::uint64_t hydrations = 0;
  std::uint64_t shed = 0;
  std::uint64_t hydrate_failures = 0;
  std::uint64_t invocations = 0;
  std::uint64_t reused = 0;
  std::uint64_t visited = 0;
};

Counts read_counts(Fleet& fleet, std::size_t tenants) {
  Counts c;
  c.memo = fleet.memo().stats();
  for (std::size_t t = 0; t < tenants; ++t) {
    const serving::TenantStatus status =
        fleet.manager().status(tenant_name(t));
    c.checkpoints += status.counters.checkpoints;
    c.hydrations += status.counters.hydrations;
    c.shed += status.counters.shed;
    c.hydrate_failures += status.counters.hydrate_failures;
  }
  // Cumulative per-process tree counters the sessions publish.
  obs::StatsRegistry& stats = obs::StatsRegistry::global();
  c.invocations = stats.counter("tree.combiner_invocations").value();
  c.reused = stats.counter("tree.combiner_reused").value();
  c.visited = stats.counter("tree.nodes_visited").value();
  return c;
}

}  // namespace

Result run_fleet(const Options& options) {
  const Geometry g = geometry_for(options);
  Result result;

  // --- inputs ------------------------------------------------------------
  std::vector<TenantInputs> inputs;
  inputs.reserve(g.tenants);
  for (std::size_t t = 0; t < g.tenants; ++t) {
    inputs.push_back(generate_tenant(kProfiles[t % std::size(kProfiles)], g,
                                     options.seed, t));
  }
  auto spec_for = [&](std::size_t t) {
    const Profile& profile = kProfiles[t % std::size(kProfiles)];
    serving::TenantSpec spec;
    spec.name = tenant_name(t);
    spec.job = apps::make_microbenchmark(profile.app).job;
    spec.config.mode = profile.mode;
    spec.config.tree_kind = profile.kind;
    spec.config.split_processing = profile.split_processing;
    spec.config.bucket_width = 1;
    if (is_capped(t)) spec.quota.max_entries = 6;
    return spec;
  };

  // Every reported time is scaled to reference speed: the reference kernel
  // runs just before and just after each timed interval (bench_common.h).
  Reference reference;

  // --- setup: add_tenant for the whole fleet plus the first drain ----------
  std::unique_ptr<Fleet> fleet;
  std::vector<double> setup_s;
  for (int k = 0; k < g.setups; ++k) {
    fleet.reset();
    fleet = std::make_unique<Fleet>(
        options.work_dir + "/fleet-" + std::to_string(k), g);
    const double before = reference.sample_ms();
    const double start = wall_ms();
    for (std::size_t t = 0; t < g.tenants; ++t) {
      fleet->manager().add_tenant(spec_for(t), inputs[t].initial);
    }
    fleet->manager().run_pending();
    fleet->manager().garbage_collect();
    const double ms = wall_ms() - start;
    setup_s.push_back(ms * Reference::factor(before, reference.sample_ms()) /
                      1e3);
  }
  result.attempted += g.tenants;
  serving::SessionManager& manager = fleet->manager();

  std::vector<std::deque<SplitPtr>> windows;
  for (const TenantInputs& in : inputs) {
    windows.emplace_back(in.initial.begin(), in.initial.end());
  }

  // --- closed-loop rounds ------------------------------------------------
  SpanLog spans;
  SpanLog* log = options.trace ? &spans : nullptr;

  // Traced run: a few tenants replayed layer by layer on private copies of
  // the layers; each replay's outputs must equal its tenant's after every
  // run.
  std::vector<std::size_t> replayed;
  std::vector<std::unique_ptr<Replay>> replays;
  std::optional<MemoProbe> probe;
  std::vector<double> initial_build_ms;
  std::vector<Replay::Step> steps;
  std::uint64_t replay_mismatches = 0;
  auto replay_matches = [&](std::size_t i) {
    std::vector<std::string> serialized;
    for (const KVTable& table : replays[i]->outputs()) {
      serialized.push_back(serialize_table(table));
    }
    return serialized == manager.last_outputs(tenant_name(replayed[i]));
  };
  if (options.trace) {
    probe.emplace();
    replayed = replay_tenants(g.tenants);
    for (const std::size_t t : replayed) {
      const serving::TenantSpec spec = spec_for(t);
      replays.push_back(std::make_unique<Replay>(spec.job, spec.config));
      const double before = reference.sample_ms();
      const double build_ms =
          replays.back()->initial(inputs[t].initial, &spans);
      initial_build_ms.push_back(
          build_ms * Reference::factor(before, reference.sample_ms()));
      ++result.attempted;
      if (!replay_matches(replays.size() - 1)) ++result.failed;
    }
  }

  const Counts before = read_counts(*fleet, g.tenants);
  Counts prefix = before;
  double prefix_log_mb = 0;
  double prefix_sim_time = 0;
  std::size_t prefix_slides = 0;
  std::size_t prefix_runs = 0;
  std::uint64_t prefix_entries = 0;
  double prefix_memo_mb = 0;
  double prefix_collected = 0;

  // Per round, at reference speed. The reference is sampled before each
  // round, after its run_pending and after its garbage_collect: the first
  // two scale the submissions and run_pending (pending_factor[r]), the
  // last two the GC and the traced replays.
  std::vector<double> round_ms, submit_ms, pending_ms, gc_ms, glue_ms;
  std::vector<double> ref_ms, pending_factor;
  // The rounds in which each tenant's submissions were accepted: its k-th
  // slide sample ran in the k-th of them.
  std::vector<std::vector<std::size_t>> accepted(g.tenants);
  std::uint64_t runs = 0;
  std::uint64_t shed = 0;
  // The time budget counts round time at reference speed, so a run does
  // the same rounds however fast the host runs.
  double scaled_ms = 0;
  double scaled_cpu = 0;
  std::size_t r = 0;
  ref_ms.push_back(reference.sample_ms());
  while (r < g.max_rounds) {
    const std::string parent = "round-" + std::to_string(r);
    const double cpu_start = process_cpu_ms();
    const double start = wall_ms();
    double submitted_ms = 0;
    for (std::size_t t = 0; t < g.tenants; ++t) {
      if (!active_in(t, r)) continue;
      std::vector<SplitPtr> added = inputs[t].slides[r];
      ++result.attempted;
      serving::AdmitResult admitted;
      {
        ScopedSpan span(log, "serving.submit", parent);
        admitted = manager.submit(tenant_name(t), 1, std::move(added));
        submitted_ms += span.stop();
      }
      if (admitted == serving::AdmitResult::kShed) {
        ++shed;
        continue;
      }
      accepted[t].push_back(r);
      windows[t].pop_front();
      windows[t].insert(windows[t].end(), inputs[t].slides[r].begin(),
                        inputs[t].slides[r].end());
    }
    std::size_t executed = 0;
    std::size_t collected = 0;
    double pending = 0;
    double gc = 0;
    {
      ScopedSpan span(log, "serving.run_pending", parent);
      executed = manager.run_pending();
      pending = span.stop();
    }
    const double first = wall_ms() - start;
    const double first_cpu = process_cpu_ms() - cpu_start;
    ref_ms.push_back(reference.sample_ms());
    const double gc_cpu_start = process_cpu_ms();
    {
      ScopedSpan span(log, "serving.garbage_collect", parent);
      collected = manager.garbage_collect();
      gc = span.stop();
    }
    const double gc_cpu = process_cpu_ms() - gc_cpu_start;
    runs += executed;
    const std::size_t first_step = steps.size();
    for (std::size_t i = 0; i < replays.size(); ++i) {
      const std::size_t t = replayed[i];
      steps.push_back(replays[i]->slide(1, inputs[t].slides[r], &spans,
                                        parent + "/" + tenant_name(t)));
      if (!replay_matches(i)) ++replay_mismatches;
      probe->feed(inputs[t].slides[r], replays[i]->last_maps());
    }
    ref_ms.push_back(reference.sample_ms());
    const std::size_t n = ref_ms.size();
    const double factor = Reference::factor(ref_ms[n - 3], ref_ms[n - 2]);
    const double gc_factor = Reference::factor(ref_ms[n - 2], ref_ms[n - 1]);
    pending_factor.push_back(factor);
    scaled_ms += first * factor + gc * gc_factor;
    scaled_cpu += first_cpu * factor + gc_cpu * gc_factor;
    round_ms.push_back(first * factor + gc * gc_factor);
    submit_ms.push_back(submitted_ms * factor);
    pending_ms.push_back(pending * factor);
    gc_ms.push_back(gc * gc_factor);
    glue_ms.push_back((first - submitted_ms - pending) * factor);
    for (std::size_t k = first_step; k < steps.size(); ++k) {
      steps[k].scale(gc_factor);
    }
    if (probe) probe->commit(gc_factor);
    ++r;
    if (r <= g.count_rounds) {
      prefix_runs += executed;
      prefix_collected += static_cast<double>(collected);
    }
    if (options.trace && r == g.count_rounds) {
      prefix = read_counts(*fleet, g.tenants);
      prefix_log_mb =
          static_cast<double>(fleet->tier().bytes_on_disk()) / (1 << 20);
      prefix_entries = fleet->memo().size();
      prefix_memo_mb =
          static_cast<double>(fleet->memo().total_bytes()) / (1 << 20);
      for (std::size_t t = 0; t < g.tenants; ++t) {
        for (const obs::SlideSample& s :
             manager.tenant_series(tenant_name(t)).raw) {
          if (s.kind != obs::RunKind::kSlide) continue;
          prefix_sim_time += s.sim_latency;
          ++prefix_slides;
        }
      }
    }
    // Whole napper cycles only, so every run has the same round mix.
    if (r >= g.min_rounds && r % 4 == 0 &&
        scaled_ms >= options.seconds * 1e3) {
      break;
    }
  }
  const std::size_t rounds = r;
  PeakRss peak;
  const double peak_mb = peak.peak_mb() - reference.resident_mb();

  // --- correctness: every tenant's last outputs vs from-scratch ------------
  // Each tenant slide is scaled by the factor of the round it ran in. Should
  // a tenant's slide samples not line up with its accepted submissions, its
  // slides take the median factor instead.
  const double median_factor = median(pending_factor);
  std::size_t unaligned = 0;
  std::size_t mismatched = 0;
  std::vector<double> slide_ms;
  std::vector<double> replayed_slide_ms;
  std::vector<double> scratch_ms;
  const double checks_before = reference.sample_ms();
  for (std::size_t t = 0; t < g.tenants; ++t) {
    const std::vector<SplitPtr> window(windows[t].begin(), windows[t].end());
    const double scratch_start = wall_ms();
    const JobResult scratch = fleet->engine().run(spec_for(t).job, window);
    scratch_ms.push_back(wall_ms() - scratch_start);
    const bool is_replayed =
        std::find(replayed.begin(), replayed.end(), t) != replayed.end();
    std::vector<std::string> expected;
    for (const KVTable& table : scratch.partition_outputs) {
      expected.push_back(serialize_table(table));
    }
    if (manager.last_outputs(tenant_name(t)) != expected) ++mismatched;
    std::vector<double> tenant_ms;
    for (const obs::SlideSample& s :
         manager.tenant_series(tenant_name(t)).raw) {
      if (s.kind == obs::RunKind::kSlide) {
        tenant_ms.push_back(s.wall_latency_us / 1e3);
      }
    }
    const bool aligned = tenant_ms.size() == accepted[t].size();
    if (!aligned) ++unaligned;
    for (std::size_t k = 0; k < tenant_ms.size(); ++k) {
      tenant_ms[k] *= aligned ? pending_factor[accepted[t][k]] : median_factor;
    }
    slide_ms.insert(slide_ms.end(), tenant_ms.begin(), tenant_ms.end());
    if (is_replayed) {
      replayed_slide_ms.insert(replayed_slide_ms.end(), tenant_ms.begin(),
                               tenant_ms.end());
    }
  }
  const double checks_factor =
      Reference::factor(checks_before, reference.sample_ms());
  for (double& ms : scratch_ms) ms *= checks_factor;
  const Counts after = read_counts(*fleet, g.tenants);
  result.failed += mismatched + shed + replay_mismatches +
                   (after.hydrate_failures - before.hydrate_failures);
  result.attempted += steps.size();
  // Quota evictions are counted twice by the store (per-tenant cells and
  // aggregate stats); the two must agree.
  std::uint64_t cell_evictions = 0;
  for (const TenantUsage& usage : fleet->memo().tenant_usage_snapshot()) {
    cell_evictions += usage.quota_evictions;
  }
  ++result.attempted;
  if (cell_evictions != after.memo.quota_evictions) ++result.failed;

  result.note("workload " + options.workload + ", seed " +
              std::to_string(options.seed) + ", " +
              std::to_string(kThreads) + " thread, " +
              std::to_string(g.tenants) + " tenants, window " +
              std::to_string(g.window_splits) + " splits x " +
              std::to_string(g.records_per_split) + " records, delta 1");
  result.note("rounds: " + std::to_string(rounds) + ", runs: " +
              std::to_string(runs) + ", slide samples: " +
              std::to_string(slide_ms.size()) + "; tenants with outputs "
              "equal to from-scratch: " +
              std::to_string(g.tenants - mismatched) + "/" +
              std::to_string(g.tenants));
  if (unaligned > 0) {
    result.note(std::to_string(unaligned) +
                " tenants' slide samples do not line up with their accepted "
                "submissions; their slides take the median round factor");
  }
  result.note_reference(ref_ms);
  std::vector<double> drain_ms;
  for (std::size_t i = 0; i < rounds; ++i) {
    drain_ms.push_back(pending_ms[i] + gc_ms[i]);
  }
  char line[200];
  std::snprintf(line, sizeof(line),
                "drain_p50_ms %.3f ms (run_pending + garbage_collect per "
                "round; serving.drain_ms in the traced run)",
                median(drain_ms));
  result.note(line);

  if (!options.trace) {
    result.set("slide_p50_ms", median(slide_ms));
    result.set("slide_p95_ms", percentile(slide_ms, 95));
    result.set("runs_per_s", static_cast<double>(runs) / (scaled_ms / 1e3));
    result.set("cpu_ms_per_run", scaled_cpu / static_cast<double>(runs));
    result.set("setup_s", median(setup_s));
    result.set("peak_rss_mb", peak_mb);
    return result;
  }

  const double n_runs =
      static_cast<double>(std::max<std::size_t>(1, prefix_runs));
  const double invocations =
      static_cast<double>(prefix.invocations - before.invocations);
  const double reused = static_cast<double>(prefix.reused - before.reused);
  const double reads = static_cast<double>(
      (prefix.memo.reads_memory - before.memo.reads_memory) +
      (prefix.memo.reads_disk - before.memo.reads_disk));
  const double misses =
      static_cast<double>(prefix.memo.misses - before.memo.misses);
  result.set("contraction.combiner_invocations", invocations / n_runs);
  result.set("contraction.combiner_reused", reused / n_runs);
  result.set("contraction.reuse_ratio",
             reused + invocations > 0 ? reused / (reused + invocations) : 0);
  result.set("contraction.nodes_visited",
             static_cast<double>(prefix.visited - before.visited) / n_runs);
  result.set("storage.gc_collected",
             prefix_collected /
                 static_cast<double>(std::min(rounds, g.count_rounds)));
  result.set("storage.memo_entries", static_cast<double>(prefix_entries));
  result.set("storage.memo_mb", prefix_memo_mb);
  result.set("storage.hit_ratio",
             reads + misses > 0 ? reads / (reads + misses) : 0);
  result.set("storage.misses", misses / n_runs);
  result.set("storage.quota_evictions",
             static_cast<double>(prefix.memo.quota_evictions -
                                 before.memo.quota_evictions));
  result.set("storage.eviction_forced_misses",
             static_cast<double>(prefix.memo.eviction_forced_misses -
                                 before.memo.eviction_forced_misses));
  result.set("durability.persistent_writes",
             static_cast<double>(prefix.memo.persistent_writes -
                                 before.memo.persistent_writes));
  result.set("durability.bytes_persisted",
             static_cast<double>(prefix.memo.bytes_persisted -
                                 before.memo.bytes_persisted));
  result.set("durability.log_mb", prefix_log_mb);
  result.set("serving.submit_ms", median(submit_ms));
  result.set("serving.run_pending_ms", median(pending_ms));
  result.set("serving.gc_ms", median(gc_ms));
  result.set("serving.drain_ms", median(drain_ms));
  result.set("serving.checkpoints",
             static_cast<double>(prefix.checkpoints - before.checkpoints));
  result.set("serving.hydrations",
             static_cast<double>(prefix.hydrations - before.hydrations));
  result.set("serving.shed", static_cast<double>(prefix.shed - before.shed));
  // Tenant sessions leave GC to the fleet, so the replayed layers that make
  // up a tenant slide are map, apply_delta and reduce.
  const double map_ms = step_p50(steps, &Replay::Step::map_ms);
  const double delta_ms = step_p50(steps, &Replay::Step::delta_ms);
  const double reduce_ms = step_p50(steps, &Replay::Step::reduce_ms);
  const double replayed_p50 = median(replayed_slide_ms);
  std::vector<double> traced_ms;
  for (const Replay::Step& s : steps) traced_ms.push_back(s.total_ms - s.gc_ms);
  result.set("mapreduce.map_ms", map_ms);
  result.set("mapreduce.map_cpu_ms", step_p50(steps, &Replay::Step::map_cpu));
  result.set("mapreduce.reduce_ms", reduce_ms);
  result.set("mapreduce.reduce_cpu_ms",
             step_p50(steps, &Replay::Step::reduce_cpu));
  result.set("mapreduce.scratch_ms", median(scratch_ms));
  result.set("contraction.apply_delta_ms", delta_ms);
  result.set("contraction.apply_delta_cpu_ms",
             step_p50(steps, &Replay::Step::delta_cpu));
  result.set("contraction.initial_build_ms", median(initial_build_ms));
  result.set("storage.gc_ms", step_p50(steps, &Replay::Step::gc_ms));
  result.set("storage.put_us_per_kb", probe->put_us_per_kb());
  result.set("storage.get_us_per_kb", probe->get_us_per_kb());
  if (probe->lost() > 0) ++result.failed;
  result.set("slider.slide_p50_ms", median(slide_ms));
  result.set("slider.self_ms", replayed_p50 - map_ms - delta_ms - reduce_ms);
  result.set("slider.speedup_vs_scratch",
             median(scratch_ms) / median(slide_ms));
  result.set("trace.slide_p50_ms", median(traced_ms));
  result.set("trace.slide_delta_ms", median(traced_ms) - replayed_p50);
  result.set("slider.sim_time_s",
             prefix_slides > 0
                 ? prefix_sim_time / static_cast<double>(prefix_slides)
                 : 0);
  result.set("trace.overhead_ms", median(glue_ms));
  result.set("host.reference_ms", median(ref_ms));

  std::snprintf(line, sizeof(line),
                "accounting (p50 ms per round): submit %.3f + run_pending "
                "%.3f + gc %.3f + glue %.3f; round %.3f",
                median(submit_ms), median(pending_ms), median(gc_ms),
                median(glue_ms), median(round_ms));
  result.note(line);
  std::string names;
  for (const std::size_t t : replayed) names += " " + tenant_name(t);
  std::snprintf(line, sizeof(line),
                "replayed tenants%s (p50 ms): map %.3f + apply_delta %.3f + "
                "reduce %.3f + self %.3f = slide %.3f",
                names.c_str(), map_ms, delta_ms, reduce_ms,
                replayed_p50 - map_ms - delta_ms - reduce_ms, replayed_p50);
  result.note(line);
  const std::string span_path =
      options.work_dir + "/spans-" + options.workload + ".json";
  if (!spans.write_json(span_path)) ++result.failed;
  result.note("spans: " + span_path);
  return result;
}

}  // namespace perfbench
