#include "slider/session.h"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <filesystem>

#include <atomic>
#include <chrono>

#include "common/thread_pool.h"
#include "contraction/describe.h"
#include "contraction/flat_aggregator.h"
#include "contraction/rotating_tree.h"
#include "data/serde.h"
#include "durability/checkpoint.h"
#include "durability/scrubber.h"
#include "observability/build_info.h"
#include "observability/flight_recorder.h"
#include "observability/json_writer.h"
#include "observability/stats.h"
#include "observability/timeseries.h"
#include "observability/trace.h"
#include "observability/trace_export.h"
#include "observability/work_ledger.h"

namespace slider {
namespace {

// Cumulative dirty-path counters across all sessions in the process;
// emitted both into the stats registry and as trace counter series so the
// Perfetto view shows the paper's "work ∝ delta · log(window)" claim as a
// staircase instead of a cliff.
struct TreeInstruments {
  obs::Counter& nodes_visited;
  obs::Counter& combiner_invocations;
  obs::Counter& combiner_reused;
  // Distribution of per-run invocation counts: delta-proportional slides
  // cluster in the low exponential buckets, from-scratch builds land high.
  // Runs with zero invocations (pure-reuse slides) fall in the underflow
  // bucket — visible now that snapshots carry under/overflow counts.
  obs::Histogram& run_invocations;
};

TreeInstruments& tree_instruments() {
  static TreeInstruments* instruments = [] {
    obs::StatsRegistry& stats = obs::StatsRegistry::global();
    return new TreeInstruments{
        stats.counter("tree.nodes_visited"),
        stats.counter("tree.combiner_invocations"),
        stats.counter("tree.combiner_reused"),
        stats.histogram("tree.run_invocations",
                        obs::HistogramOptions{.min = 1,
                                              .max = 1 << 20,
                                              .buckets = 20,
                                              .exponential = true}),
    };
  }();
  return *instruments;
}

// Folds one run's per-partition tree stats into the run's totals
// (counters and attributed cells, not lineage) and adds them to the
// process-wide tree.* instruments.
TreeUpdateStats record_tree_totals(
    const std::vector<TreeUpdateStats>& tree_stats) {
  TreeUpdateStats totals;
  for (const TreeUpdateStats& ts : tree_stats) totals.add_counters(ts);
  TreeInstruments& instruments = tree_instruments();
  [[maybe_unused]] const double visited_total = static_cast<double>(
      instruments.nodes_visited.add(totals.nodes_visited));
  [[maybe_unused]] const double invoked_total = static_cast<double>(
      instruments.combiner_invocations.add(totals.combiner_invocations));
  [[maybe_unused]] const double reused_total = static_cast<double>(
      instruments.combiner_reused.add(totals.combiner_reused));
  instruments.run_invocations.observe(
      static_cast<double>(totals.combiner_invocations));
  SLIDER_TRACE_COUNTER("tree", "tree.nodes_visited", visited_total);
  SLIDER_TRACE_COUNTER("tree", "tree.combiner_invocations", invoked_total);
  SLIDER_TRACE_COUNTER("tree", "tree.combiner_reused", reused_total);
  return totals;
}

// Commits one run's per-partition causal attribution to the process-wide
// ledger (the cold once-per-run path; see observability/work_ledger.h).
void commit_ledger_run(obs::RunKind kind, std::size_t window_splits,
                       std::size_t removed, std::size_t added,
                       const std::vector<TreeUpdateStats>& tree_stats,
                       std::string_view tenant,
                       const obs::AttributedWork* extra = nullptr) {
  std::vector<obs::AttributedWork> partitions;
  partitions.reserve(tree_stats.size() + (extra != nullptr ? 1 : 0));
  for (const TreeUpdateStats& ts : tree_stats) {
    partitions.push_back(ts.attributed);
  }
  if (extra != nullptr && !extra->empty()) partitions.push_back(*extra);
  obs::WorkLedger::global().commit_run(kind, window_splits, removed, added,
                                       partitions, tenant);
}

// Per-run critical-path histogram (armed provenance sessions only):
// exported as slider_critical_path_seconds on /metrics. Exponential
// buckets spanning microsecond slides to minute-scale initial builds.
obs::Histogram& critical_path_histogram() {
  static obs::Histogram* histogram =
      &obs::StatsRegistry::global().histogram(
          "critical_path_seconds",
          obs::HistogramOptions{.min = 1e-6,
                                .max = 1 << 7,
                                .buckets = 27,
                                .exponential = true});
  return *histogram;
}

// SLIDER_TRACE_DIR: directory for an automatic Chrome-trace export when a
// session is destroyed. Setting it also enables the collector, so the env
// var alone is enough to get a trace out of any binary.
const char* trace_export_dir() {
  const char* dir = std::getenv("SLIDER_TRACE_DIR");
  return (dir != nullptr && *dir != '\0') ? dir : nullptr;
}

// SLIDER_INTROSPECT_PORT: valid port number (0..65535) enables the
// endpoint regardless of SliderConfig::introspect_port; anything else
// leaves the config value in charge.
int effective_introspect_port(int configured) {
  const char* env = std::getenv("SLIDER_INTROSPECT_PORT");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    const long port = std::strtol(env, &end, 10);
    if (end != nullptr && *end == '\0' && port >= 0 && port <= 65535) {
      return static_cast<int>(port);
    }
    SLIDER_LOG(Warning) << "ignoring invalid SLIDER_INTROSPECT_PORT=" << env;
  }
  return configured;
}

}  // namespace

SliderSession::SliderSession(const VanillaEngine& engine, MemoStore& memo,
                             const JobSpec& job, SliderConfig config)
    : engine_(&engine), memo_(&memo), job_(job), config_(std::move(config)) {
  // Multi-tenant identity: empty tenant → salt 0 → node ids and placement
  // bit-identical to the single-tenant formulas.
  tenant_salt_ =
      config_.tenant.empty() ? 0 : hash_string(config_.tenant);
  if (config_.record_provenance) {
    if (config_.provenance != nullptr) {
      provenance_ = config_.provenance;
    } else {
      owned_provenance_ = std::make_unique<obs::ProvenanceRecorder>();
      provenance_ = owned_provenance_.get();
    }
  }
  const TreeKind kind = config_.tree_kind.value_or(default_tree_for(config_.mode));
  TreeOptions options;
  options.kind = kind;
  options.bucket_width = config_.bucket_width;
  options.split_processing = config_.split_processing;
  options.boundary_probability = config_.boundary_probability;

  // Flat-tier routing: combiners whose declared traits admit a fixed-width
  // bulk kernel skip the contraction tree entirely. An explicitly
  // requested tree_kind always wins (benchmarks and tests that compare
  // tree variants must get the tree they asked for), and
  // initial_bucket_sizes is a RotatingTree-only knob.
  const bool flat_routed = config_.enable_flat_tier &&
                           !config_.tree_kind.has_value() &&
                           job_.traits.flat_eligible() &&
                           config_.initial_bucket_sizes.empty();

  partitions_.reserve(static_cast<std::size_t>(job_.num_partitions));
  for (int p = 0; p < job_.num_partitions; ++p) {
    MemoContext ctx;
    ctx.store = memo_;
    ctx.job_hash = job_.job_hash();
    ctx.tenant_salt = tenant_salt_;
    ctx.partition = p;
    ctx.reduce_home = engine_->cluster().place(hash_combine(
        job_.job_hash() ^ tenant_salt_, static_cast<std::uint64_t>(p)));
    PartitionState state;
    state.home = ctx.reduce_home;
    state.tree = flat_routed
                     ? std::make_unique<FlatAggregator>(
                           ctx, job_.combiner, job_.traits, options)
                     : make_tree(options, ctx, job_.combiner);
    if (!flat_routed && kind == TreeKind::kRotating &&
        !config_.initial_bucket_sizes.empty()) {
      static_cast<RotatingTree*>(state.tree.get())
          ->set_initial_bucket_sizes(config_.initial_bucket_sizes);
    }
    partitions_.push_back(std::move(state));
  }
  output_.resize(static_cast<std::size_t>(job_.num_partitions));

  // Every partition starts on the same variant; its kind() labels the
  // session in /metrics' slider_build_info gauge (last session constructed
  // wins, which is the one a scraper is watching) and in every dump.
  if (!partitions_.empty()) tree_label_ = partitions_[0].tree->kind();
  obs::set_build_label("tree_variant", tree_label_);
  if (!config_.postmortem_dir.empty()) {
    obs::FlightRecorder::Options recorder;
    recorder.directory = config_.postmortem_dir;
    obs::FlightRecorder::global().arm(recorder);
  }
  // SLIDER_TRACE_DIR implies tracing: enable the collector so the
  // destructor's auto-export has events to write.
  if (trace_export_dir() != nullptr) {
    obs::TraceCollector::global().set_enabled(true);
  }
  maybe_start_introspection();
}

SliderSession::~SliderSession() {
  // Stop serving before the trees the /tree handler reads are destroyed.
  if (introspect_ != nullptr) introspect_->stop();
  // SLIDER_TRACE_DIR: auto-export whatever the collector holds. The
  // snapshot requires quiescent writers, which session teardown is.
  if (const char* dir = trace_export_dir(); dir != nullptr) {
    obs::TraceCollector& trace = obs::TraceCollector::global();
    const std::vector<obs::TraceEvent> events = trace.snapshot();
    if (!events.empty()) {
      static std::atomic<std::uint64_t> export_counter{0};
      const std::uint64_t n =
          export_counter.fetch_add(1, std::memory_order_relaxed);
      std::string path = std::string(dir) + "/slider_trace_" +
                         std::to_string(static_cast<long>(::getpid())) + "_" +
                         std::to_string(n) + ".json";
      obs::write_chrome_trace(path, events, trace.dropped());
    }
  }
}

void SliderSession::maybe_start_introspection() {
  const int port = effective_introspect_port(config_.introspect_port);
  if (port < 0) return;  // disabled: no server, no locking, no overhead
  obs::IntrospectionServer::Options options;
  options.port = static_cast<std::uint16_t>(port);
  options.fallback_to_ephemeral = true;
  introspect_ = std::make_unique<obs::IntrospectionServer>(options);
  introspect_->add_route("/tree", [this](const obs::HttpRequest& request) {
    const std::string raw = request.query_param("partition", "0");
    const std::optional<std::uint64_t> parsed =
        obs::HttpRequest::parse_uint(raw);
    if (!parsed || *parsed >= partitions_.size()) {
      return obs::HttpResponse::error(
          400, "bad partition '" + raw + "' (have " +
                   std::to_string(partitions_.size()) + ")");
    }
    const auto partition = static_cast<std::size_t>(*parsed);
    const TreeDescription description =
        describe_tree(static_cast<int>(partition));
    if (request.query_param("format") == "dot") {
      // Armed sessions color nodes by last-slide disposition: grey the
      // reused hinterland, green fresh payloads, red every recompute.
      std::unordered_map<NodeId, std::string> dispositions;
      if (provenance_ != nullptr) {
        const obs::ProvenanceSnapshot snap = provenance_->snapshot();
        for (std::size_t i = snap.raw.size(); i-- > 0;) {
          const obs::SlideLineage& slide = snap.raw[i];
          if (partition < slide.partitions.size() &&
              !slide.partitions[partition].empty()) {
            dispositions =
                obs::disposition_map(slide, static_cast<int>(partition));
            break;
          }
        }
      }
      return obs::HttpResponse::text(
          tree_description_to_dot(description, dispositions),
          "text/vnd.graphviz");
    }
    return obs::HttpResponse::json(tree_description_to_json(description));
  });
  introspect_->add_route("/explain", [this](const obs::HttpRequest& request) {
    return obs::explain_route(provenance_, request, partitions_.size(),
                              "SliderConfig::record_provenance");
  });
  introspect_->add_route("/criticalpath.json", [this](const obs::HttpRequest&) {
    return obs::criticalpath_route(provenance_,
                                   "SliderConfig::record_provenance");
  });
  // Override the stock liveness probe with the session's degradation view:
  // still HTTP 200 either way (the process is alive and, by construction,
  // still producing correct outputs — degradation only costs recomputes),
  // but the body says what chaos has currently broken.
  introspect_->add_route("/healthz", [this](const obs::HttpRequest&) {
    const Cluster& cluster = engine_->cluster();
    // Active probe: a degraded flag that only a future durable *write*
    // could clear would pin /healthz at "degraded" long after the tier
    // healed on an idle session. The poll is a no-op when not degraded.
    memo_->poll_durable_recovery();
    const bool durable_degraded = memo_->durable_degraded();
    const int failed = cluster.failed_machines();
    obs::JsonWriter json;
    json.begin_object();
    json.key("status").value(failed == 0 && !durable_degraded ? "ok"
                                                              : "degraded");
    json.key("machines").begin_object();
    json.key("total").value(std::int64_t{cluster.num_machines()});
    json.key("failed").value(std::int64_t{failed});
    json.end_object();
    json.key("durable").begin_object();
    json.key("degraded").value(durable_degraded);
    json.key("backlog").value(
        static_cast<std::uint64_t>(memo_->degraded_backlog()));
    json.end_object();
    // Process-wide fault counters (docs/robustness.md).
    obs::StatsRegistry& stats = obs::StatsRegistry::global();
    json.key("faults").begin_object();
    json.key("failures_injected")
        .value(stats.counter("failures.injected").value());
    json.key("task_retries").value(stats.counter("task.retries").value());
    json.key("machines_blacklisted")
        .value(stats.counter("machines.blacklisted").value());
    json.key("failure_forced_misses")
        .value(stats.counter("memo.failure_forced_misses").value());
    json.end_object();
    // SLO section: the session's latest verdicts (empty until a run has
    // been sampled or when no SLOs are configured). Breaches do not flip
    // `status` — degradation there tracks infrastructure health, while an
    // SLO breach is a service-quality signal with its own field.
    const std::vector<obs::SloVerdict> verdicts = slo_verdicts();
    std::uint64_t breached = 0;
    std::uint64_t burning = 0;
    for (const obs::SloVerdict& v : verdicts) {
      if (!v.ok) ++breached;
      if (v.burning) ++burning;
    }
    json.key("slo").begin_object();
    json.key("configured").value(
        static_cast<std::uint64_t>(config_.slos.size()));
    json.key("breached").value(breached);
    json.key("burning").value(burning);
    json.key("verdicts").raw(obs::slo_verdicts_to_json(verdicts));
    json.end_object();
    json.end_object();
    return obs::HttpResponse::json(json.take());
  });
  if (!introspect_->start()) introspect_.reset();
}

std::unique_lock<std::shared_mutex> SliderSession::exclusive_state_lock() {
  if (introspect_ == nullptr) return {};
  return std::unique_lock<std::shared_mutex>(state_mutex_);
}

TreeDescription SliderSession::describe_tree(int partition) const {
  SLIDER_CHECK(partition >= 0 &&
               static_cast<std::size_t>(partition) < partitions_.size())
      << "describe_tree: bad partition " << partition;
  std::shared_lock<std::shared_mutex> lock(state_mutex_, std::defer_lock);
  if (introspect_ != nullptr) lock.lock();
  return partitions_[static_cast<std::size_t>(partition)].tree->describe();
}

ContractionCost contraction_cost(const AppCostProfile& costs,
                                 const TreeUpdateStats& ts) {
  ContractionCost cost;
  cost.cpu = costs.combine_cpu_per_row * static_cast<double>(ts.rows_scanned) +
             kMemoLookupSec * static_cast<double>(ts.nodes_visited);
  cost.work = cost.cpu + ts.memo_read_cost + ts.memo_write_cost;
  return cost;
}

RunMetrics SliderSession::initial_run(std::vector<SplitPtr> splits) {
  const auto wall_start = std::chrono::steady_clock::now();
  SLIDER_CHECK(!initialized_) << "initial_run called twice";
  SLIDER_TRACE_SPAN("session", "session.initial_run",
                    {{"splits", static_cast<double>(splits.size())}});
  initialized_ = true;
  return run_foreground(obs::RunKind::kInitial, /*remove_front=*/0,
                        std::move(splits), wall_start);
}

RunMetrics SliderSession::slide(std::size_t remove_front,
                                std::vector<SplitPtr> added) {
  const auto wall_start = std::chrono::steady_clock::now();
  SLIDER_CHECK(initialized_) << "slide before initial_run";
  SLIDER_CHECK(remove_front <= window_.size()) << "removing beyond window";
  SLIDER_TRACE_SPAN("session", "session.slide",
                    {{"removed", static_cast<double>(remove_front)},
                     {"added", static_cast<double>(added.size())}});
  if (config_.mode == WindowMode::kAppendOnly) {
    SLIDER_CHECK(remove_front == 0) << "append-only window cannot drop";
  }
  return run_foreground(obs::RunKind::kSlide, remove_front, std::move(added),
                        wall_start);
}

RunMetrics SliderSession::run_foreground(
    obs::RunKind run_kind, std::size_t remove_front,
    std::vector<SplitPtr> added,
    std::chrono::steady_clock::time_point wall_start) {
  const bool initial = run_kind == obs::RunKind::kInitial;
  RunMetrics metrics;

  // Map only the appended splits; live splits' map outputs are reused
  // (they sit in the trees / memo layer).
  const VanillaEngine::MapStage maps = engine_->run_map_stage(job_, added);
  metrics.map_work = maps.sim.work;
  metrics.map_tasks = added.size();
  metrics.time = maps.sim.makespan;
  metrics.map_time = maps.sim.makespan;

  const auto state_lock = exclusive_state_lock();
  // An initial run bills everything to initial_build. Post-restore slides
  // are re-executions of pre-crash work: everything bills to
  // recovery_replay until the caller ends the replay. A normal slide
  // attributes append-driven work to window_add and the voided-path
  // passthroughs (Fig 2) to window_remove.
  obs::WorkCause cause = obs::WorkCause::kInitialBuild;
  obs::WorkCause passthrough_cause = obs::WorkCause::kInitialBuild;
  if (!initial && replaying_) {
    cause = passthrough_cause = obs::WorkCause::kRecoveryReplay;
  } else if (!initial) {
    cause = obs::WorkCause::kWindowAdd;
    passthrough_cause = remove_front > 0 ? obs::WorkCause::kWindowRemove
                                         : obs::WorkCause::kWindowAdd;
  }
  std::vector<TreeUpdateStats> tree_stats(partitions_.size());
  for (TreeUpdateStats& ts : tree_stats) {
    ts.cause = cause;
    ts.passthrough_cause = passthrough_cause;
    ts.record_lineage = provenance_ != nullptr;
  }
  std::vector<std::size_t> new_leaf_bytes(partitions_.size(), 0);
  {
    SLIDER_TRACE_SPAN("session",
                      initial ? "session.tree_build" : "session.tree_delta");
    // Partitions own disjoint trees and per-partition stats slots; the
    // shared MemoStore is thread-safe, so the updates run in parallel.
    parallel_for(partitions_.size(), [&](std::size_t p) {
      std::vector<Leaf> leaves;
      leaves.reserve(added.size());
      for (std::size_t i = 0; i < added.size(); ++i) {
        const auto& table = maps.outputs[i].partitions[p];
        new_leaf_bytes[p] += table->byte_size();
        leaves.push_back(Leaf{added[i]->id, table});
      }
      ContractionTree& tree = *partitions_[p].tree;
      if (initial) {
        tree.initial_build(std::move(leaves), &tree_stats[p]);
      } else {
        tree.apply_delta(remove_front, std::move(leaves), &tree_stats[p]);
      }
    });
  }
  const std::size_t added_count = added.size();
  for (std::size_t i = 0; i < remove_front; ++i) window_.pop_front();
  for (SplitPtr& split : added) window_.push_back(std::move(split));

  contraction_and_reduce(tree_stats, new_leaf_bytes, run_kind, remove_front,
                         added_count, metrics, wall_start);
  return metrics;
}

void SliderSession::contraction_and_reduce(
    std::vector<TreeUpdateStats>& tree_stats,
    const std::vector<std::size_t>& new_leaf_bytes, obs::RunKind run_kind,
    std::size_t removed, std::size_t added, RunMetrics& metrics,
    std::chrono::steady_clock::time_point wall_start) {
  SLIDER_TRACE_SPAN("session", "session.contraction_reduce");
  const double sim_start = sim_clock_;
  const TreeUpdateStats totals = record_tree_totals(tree_stats);

  // Slide-boundary integrity scrub slice (disarmed by default). The I/O it
  // performs is billed into this run's ledger commit under kScrubRepair so
  // the causal accounting stays exhaustive even while the scrubber heals.
  obs::AttributedWork scrub_work;
  if (config_.scrub_records_per_slide > 0) {
    const durability::ScrubStats slice =
        memo_->scrub_durable(config_.scrub_records_per_slide);
    if (slice.records_verified > 0 || slice.repair_bytes_written > 0) {
      obs::CauseWork& cell =
          scrub_work.cell(obs::WorkCause::kScrubRepair, 0);
      cell.memo_bytes_read = slice.bytes_verified;
      cell.memo_bytes_written = slice.repair_bytes_written;
    }
  }

  commit_ledger_run(run_kind, window_.size(), removed, added, tree_stats,
                    config_.tenant, &scrub_work);

  obs::TraceCollector& trace = obs::TraceCollector::global();
  const bool tracing = trace.enabled();
  // Per-partition phase composition, kept only to reconstruct the
  // simulated timeline (per-level contraction + reduce tail sub-spans).
  struct PhaseShares {
    SimDuration contraction_path = 0;
    SimDuration tail = 0;  // shuffle + stream merge + final reduce CPU
    int levels = 1;
  };
  std::vector<PhaseShares> shares;
  if (tracing) shares.resize(partitions_.size());

  const CostModel& cost = engine_->cost_model();
  std::vector<SimTask> tasks(partitions_.size());
  // Per-partition contributions to RunMetrics. The partitions compute in
  // parallel into their own slot; the fold below runs in partition order
  // so floating-point sums match the serial run bit for bit.
  struct PartitionShare {
    SimDuration contraction = 0;
    SimDuration shuffle = 0;
    SimDuration reduce_tail = 0;  // stream merge + final reduce CPU
  };
  std::vector<PartitionShare> partials(partitions_.size());
  parallel_for(partitions_.size(), [&](std::size_t p) {
    const TreeUpdateStats& ts = tree_stats[p];
    const ContractionCost contraction = contraction_cost(job_.costs, ts);
    const SimDuration path =
        contraction_critical_path(ts, contraction.cpu, p) +
        contraction_io_path(ts, p);

    // Shuffle: fresh map outputs travel to the reduce machine.
    const SimDuration shuffle = cost.net_transfer(new_leaf_bytes[p]);

    // Final reduce streams over the tree's reduce inputs; with split
    // processing there are two streams and the merge happens on the fly.
    const auto inputs = partitions_[p].tree->reduce_inputs();
    SimDuration stream_merge_cpu = 0;
    std::shared_ptr<const KVTable> reduce_table;
    if (inputs.size() == 1) {
      reduce_table = inputs[0];
    } else {
      std::size_t stream_rows = 0;
      for (const auto& t : inputs) stream_rows += t->size();
      stream_merge_cpu = job_.costs.combine_cpu_per_row *
                         static_cast<double>(stream_rows);
      reduce_table = partitions_[p].tree->root();
    }
    ReduceOutput reduced = run_reduce(job_, *reduce_table);
    output_[p] = std::move(reduced.table);

    SimTask& task = tasks[p];
    task.duration = cost.task_overhead_sec + path + shuffle +
                    stream_merge_cpu + reduced.cpu_cost;
    task.preferred = partitions_[p].home;
    task.migration_penalty = cost.net_transfer(ts.memo_bytes_read);

    partials[p] = PartitionShare{.contraction = contraction.work,
                                 .shuffle = shuffle,
                                 .reduce_tail =
                                     stream_merge_cpu + reduced.cpu_cost};
    if (tracing) {
      shares[p].contraction_path = path;
      shares[p].tail = shuffle + stream_merge_cpu + reduced.cpu_cost;
      shares[p].levels = std::max(1, partitions_[p].tree->height());
    }
  });
  for (const PartitionShare& partial : partials) {
    metrics.contraction_work += partial.contraction;
    metrics.shuffle_work += partial.shuffle;
    metrics.reduce_work += partial.reduce_tail;
  }
  metrics.memo_read_work += totals.memo_read_cost;
  metrics.combiner_invocations += totals.combiner_invocations;
  metrics.combiner_reused += totals.combiner_reused;
  metrics.memo_bytes_written += totals.memo_bytes_written;
  metrics.reduce_tasks = partitions_.size();

  // The stage starts after this run's map wave on the session clock.
  StageTimeline timeline;
  const StageResult stage =
      run_partition_stage(tasks, sim_clock_ + metrics.map_time,
                          tracing ? &timeline : nullptr, metrics);
  metrics.time += stage.makespan;

  if (tracing) {
    // Reconstruct the run on the simulated clock: the map wave, then the
    // scheduled contraction+reduce tasks on per-machine lanes (track =
    // machine id + 1; track 0 carries the whole-phase spans), each task
    // subdivided into its contraction levels and reduce tail.
    const SimDuration run_start = sim_clock_;
    const SimDuration reduce_start = run_start + metrics.map_time;
    trace.sim_span("phase", "map", run_start, metrics.map_time, 0,
                   {{"tasks", static_cast<double>(metrics.map_tasks)}});
    trace.sim_span("phase", "contraction+reduce", reduce_start,
                   stage.makespan, 0,
                   {{"tasks", static_cast<double>(tasks.size())},
                    {"migrations", static_cast<double>(stage.migrations)}});
    for (const TaskPlacement& placement : timeline) {
      const std::size_t p = placement.task;
      const SimDuration dur = placement.end - placement.start;
      const SimDuration task_start = reduce_start + placement.start;
      const auto machine_track =
          static_cast<std::uint32_t>(placement.machine) + 1;
      trace.sim_span("sched", "reduce.task", task_start, dur, machine_track,
                     {{"partition", static_cast<double>(p)},
                      {"migrated", placement.migrated ? 1.0 : 0.0}});
      const PhaseShares& share = shares[p];
      const SimDuration nominal = tasks[p].duration;
      if (nominal <= 0 || dur <= 0) continue;
      // Straggler slowdown and migration penalties stretch the task; keep
      // the sub-span composition proportional to the nominal costs.
      const double scale = dur / nominal;
      const SimDuration level_dur =
          share.contraction_path * scale / share.levels;
      SimDuration at = task_start;
      for (int level = 0; level < share.levels; ++level) {
        trace.sim_span("contraction", "contraction.level", at, level_dur,
                       machine_track,
                       {{"partition", static_cast<double>(p)},
                        {"level", static_cast<double>(level)}});
        at += level_dur;
      }
      trace.sim_span("phase", "reduce", at, share.tail * scale, machine_track,
                     {{"partition", static_cast<double>(p)}});
    }
  }
  sim_clock_ += metrics.map_time + stage.makespan;

  if (config_.run_gc) garbage_collect();
  observe_run(run_kind, removed, added, metrics, tree_stats, totals,
              sim_start, metrics.time, wall_start);
}

StageResult SliderSession::run_partition_stage(
    const std::vector<SimTask>& tasks, SimDuration stage_start,
    StageTimeline* timeline, RunMetrics& metrics) const {
  // Under fault injection the stage runs with the chaos-provided plan:
  // crashes kill in-flight attempts mid-stage and retries take over.
  StageFaultPlan fault_plan;
  if (config_.fault_provider != nullptr) {
    fault_plan = config_.fault_provider->stage_faults(stage_start);
  }
  const StageResult stage = engine_->simulator().run_stage(
      tasks, config_.reduce_policy, HybridOptions{}, timeline, &fault_plan);
  metrics.migrations += stage.migrations;
  metrics.task_attempts += stage.attempts;
  metrics.failed_attempts += stage.failed_attempts;
  metrics.task_retries += stage.task_retries;
  metrics.machines_blacklisted +=
      static_cast<std::uint64_t>(stage.machines_blacklisted);
  metrics.max_task_attempts =
      std::max(metrics.max_task_attempts,
               static_cast<std::uint64_t>(stage.max_attempts_seen));
  return stage;
}

void SliderSession::observe_run(
    obs::RunKind run_kind, std::size_t removed, std::size_t added,
    const RunMetrics& metrics, std::vector<TreeUpdateStats>& tree_stats,
    const TreeUpdateStats& totals, double sim_start, double sim_latency,
    std::chrono::steady_clock::time_point wall_start) {
  // Opportunistic durable recovery: the degraded flag otherwise only
  // clears on a durable *write*, so a session that went quiet on the
  // durable tier after the fault healed would report degraded forever.
  memo_->poll_durable_recovery();

  if (provenance_ != nullptr) {
    // Lineage commit: move the per-partition record vectors out of the
    // stats (they have served their ledger purpose by now), derive the
    // tallies + critical path, and ring-buffer the slide.
    std::vector<std::vector<obs::NodeLineage>> parts;
    parts.reserve(tree_stats.size());
    for (TreeUpdateStats& ts : tree_stats) {
      parts.push_back(std::move(ts.lineage));
    }
    obs::SlideLineage lineage = obs::assemble_slide_lineage(
        run_kind, config_.tenant, sim_start, std::move(parts),
        obs::LineageCostParams{job_.costs.combine_cpu_per_row,
                               kMemoLookupSec});
    critical_path_histogram().observe(lineage.critical_path_seconds);
    provenance_->record(std::move(lineage));
  }

  if (config_.sample_timeseries) {
    obs::SlideSample sample;
    sample.kind = run_kind;
    sample.set_tenant(config_.tenant);
    sample.sim_start = sim_start;
    sample.sim_latency = sim_latency;
    sample.wall_latency_us =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - wall_start)
            .count();
    sample.window_splits = window_.size();
    sample.removed = removed;
    sample.added = added;
    for (const obs::AttributedCell& cell : totals.attributed.cells()) {
      sample.cause_invocations[static_cast<std::size_t>(cell.cause)] +=
          cell.work.combiner_invocations;
    }
    sample.combiner_reused = totals.combiner_reused;
    sample.nodes_visited = totals.nodes_visited;
    sample.task_retries = metrics.task_retries;
    sample.failed_attempts = metrics.failed_attempts;
    sample.durable_degraded = memo_->durable_degraded();
    // Always record into the global series (tenant-tagged, so post-mortem
    // dumps stay complete and attributable); additionally into the
    // per-tenant sink when the serving layer provided one.
    obs::TimeSeries::global().record(sample);
    if (config_.timeseries != nullptr) config_.timeseries->record(sample);
  }

  bool have_verdicts = false;
  if (!config_.slos.empty() && config_.sample_timeseries) {
    // SLOs evaluate over the per-tenant sink when one is attached: a noisy
    // neighbour's samples in the global series cannot breach this tenant.
    const obs::TimeSeries& slo_series = config_.timeseries != nullptr
                                            ? *config_.timeseries
                                            : obs::TimeSeries::global();
    std::vector<obs::SloVerdict> verdicts =
        obs::evaluate_slos(slo_series.snapshot(), config_.slos);
    for (const obs::SloVerdict& v : verdicts) {
      if (!v.ok) {
        obs::FlightRecorder::global().request_dump("slo_breach:" + v.name);
      }
    }
    std::lock_guard<std::mutex> lock(slo_mutex_);
    slo_verdicts_ = std::move(verdicts);
    have_verdicts = true;
  }

  // Flight-recorder slide-boundary tick: no subsystem lock is held here,
  // so a pending dump (chaos, degraded entry, SLO breach) is safe to
  // materialize now.
  obs::FlightRecorder::DumpContext ctx;
  ctx.session = config_.tenant.empty() ? tree_label_
                                       : config_.tenant + "/" + tree_label_;
  ctx.sim_time = sim_clock_;
  std::vector<obs::SloVerdict> verdict_copy;
  if (have_verdicts) {
    std::lock_guard<std::mutex> lock(slo_mutex_);
    verdict_copy = slo_verdicts_;
  }
  ctx.verdicts = have_verdicts ? &verdict_copy : nullptr;
  ctx.provenance = provenance_;
  obs::FlightRecorder::global().maybe_dump(ctx);
}

std::vector<obs::SloVerdict> SliderSession::slo_verdicts() const {
  std::lock_guard<std::mutex> lock(slo_mutex_);
  return slo_verdicts_;
}

RunMetrics SliderSession::run_background() {
  const auto wall_start = std::chrono::steady_clock::now();
  RunMetrics metrics;
  if (!config_.split_processing) return metrics;
  SLIDER_TRACE_SPAN("session", "session.run_background");
  const auto state_lock = exclusive_state_lock();
  const double sim_start = sim_clock_;
  const CostModel& cost = engine_->cost_model();
  std::vector<SimTask> tasks(partitions_.size());
  std::vector<TreeUpdateStats> tree_stats(partitions_.size());
  for (TreeUpdateStats& ts : tree_stats) {
    ts.cause = obs::WorkCause::kBackgroundPreprocess;
    ts.passthrough_cause = obs::WorkCause::kBackgroundPreprocess;
    ts.record_lineage = provenance_ != nullptr;
  }
  // Per-partition work filled by the parallel loop, folded in partition
  // order below so the floating-point sum matches the serial run exactly.
  std::vector<SimDuration> work(partitions_.size());
  parallel_for(partitions_.size(), [&](std::size_t p) {
    TreeUpdateStats& ts = tree_stats[p];
    partitions_[p].tree->background_preprocess(&ts);
    const ContractionCost contraction = contraction_cost(job_.costs, ts);
    work[p] = contraction.work;
    tasks[p].duration = cost.task_overhead_sec +
                        contraction_critical_path(ts, contraction.cpu, p) +
                        contraction_io_path(ts, p);
    tasks[p].preferred = partitions_[p].home;
    tasks[p].migration_penalty = cost.net_transfer(ts.memo_bytes_read);
  });
  for (const SimDuration w : work) metrics.background_work += w;
  const TreeUpdateStats totals = record_tree_totals(tree_stats);
  metrics.memo_bytes_written += totals.memo_bytes_written;
  commit_ledger_run(obs::RunKind::kBackground, window_.size(), /*removed=*/0,
                    /*added=*/0, tree_stats, config_.tenant);
  obs::TraceCollector& trace = obs::TraceCollector::global();
  const bool tracing = trace.enabled();
  // Background stages face the same chaos as foreground ones; they start
  // at the current simulated clock.
  StageTimeline timeline;
  const StageResult stage = run_partition_stage(
      tasks, sim_clock_, tracing ? &timeline : nullptr, metrics);
  metrics.background_time = stage.makespan;
  if (tracing) {
    trace.sim_span("phase", "background", sim_clock_, stage.makespan, 0,
                   {{"tasks", static_cast<double>(tasks.size())},
                    {"migrations", static_cast<double>(stage.migrations)}});
    for (const TaskPlacement& placement : timeline) {
      trace.sim_span("sched", "background.task", sim_clock_ + placement.start,
                     placement.end - placement.start,
                     static_cast<int>(placement.machine) + 1,
                     {{"partition", static_cast<double>(placement.task)},
                      {"migrated", placement.migrated ? 1.0 : 0.0}});
    }
  }
  sim_clock_ += stage.makespan;
  if (config_.run_gc) garbage_collect();
  observe_run(obs::RunKind::kBackground, /*removed=*/0, /*added=*/0, metrics,
              tree_stats, totals, sim_start, metrics.background_time,
              wall_start);
  return metrics;
}

double SliderSession::contraction_breadth(const TreeUpdateStats& ts,
                                          std::size_t partition) const {
  // The contraction phase is not one serial task: recomputed combiner
  // nodes within a tree level run as parallel tasks across the cluster
  // (paper §2.2/§6); only the levels are sequential. The usable breadth is
  // the per-level node count, bounded by the slots one partition can
  // realistically occupy. Uses *this* partition's tree height: variants
  // with data-dependent shapes (e.g. randomized folding) legitimately have
  // different heights per partition.
  const double invocations = static_cast<double>(ts.combiner_invocations);
  if (invocations <= 1.0) return 1.0;
  const double levels = static_cast<double>(std::max(
      1, partitions_.empty() ? 1 : partitions_[partition].tree->height()));
  const double slots_per_partition = std::max(
      1.0, static_cast<double>(engine_->cluster().num_machines() *
                               engine_->cluster().slots_per_machine()) /
               static_cast<double>(partitions_.size()));
  return std::clamp(invocations / levels, 1.0, slots_per_partition);
}

SimDuration SliderSession::contraction_critical_path(
    const TreeUpdateStats& ts, SimDuration total, std::size_t partition) const {
  return total / contraction_breadth(ts, partition);
}

SimDuration SliderSession::contraction_io_path(const TreeUpdateStats& ts,
                                               std::size_t partition) const {
  return (ts.memo_read_cost + ts.memo_write_cost) /
         std::max(1.0, contraction_breadth(ts, partition) / 2.0);
}

bool SliderSession::checkpoint(const std::string& dir) const {
  SLIDER_CHECK(initialized_) << "checkpoint before initial_run";
  SLIDER_TRACE_SPAN("durability", "session.checkpoint");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    SLIDER_LOG(Warning) << "checkpoint: cannot create " << dir << ": "
                        << ec.message();
    return false;
  }

  durability::CheckpointWriter writer(
      [this](std::uint64_t id) { return memo_->persisted_durably(id); });
  std::string& blob = writer.blob();

  // Identity header: a restore against the wrong job, the wrong tenant,
  // or a differently partitioned session must fail loudly, not mis-slice
  // the trees. The tenant salt is folded in (XOR: zero salt preserves the
  // pre-tenant format) so one tenant's checkpoint can never hydrate into
  // another tenant's session even for identical JobSpecs.
  wire::put_u64(blob, job_.job_hash() ^ tenant_salt_);
  wire::put_u32(blob, static_cast<std::uint32_t>(partitions_.size()));

  // Window metadata. Records are NOT stored: live splits' map outputs sit
  // in the trees, and a restored session never re-maps old splits — the
  // stubs only carry the id (leaf identity) and byte size (cost model).
  wire::put_u32(blob, static_cast<std::uint32_t>(window_.size()));
  for (const SplitPtr& split : window_) {
    wire::put_u64(blob, split->id);
    wire::put_u64(blob, static_cast<std::uint64_t>(split->byte_size));
  }

  wire::put_u64(blob, std::bit_cast<std::uint64_t>(sim_clock_));

  // Reduced outputs are plain tables (not memo nodes): inline them.
  wire::put_u32(blob, static_cast<std::uint32_t>(output_.size()));
  for (const KVTable& table : output_) {
    wire::put_bytes(blob, table.bytes());
  }

  for (const PartitionState& p : partitions_) {
    p.tree->serialize(writer);
  }

  // The manifest names durably persisted nodes by reference: their log
  // records must reach the disk before the manifest's rename publishes it.
  memo_->sync_durable();
  const std::string path = dir + "/session.slckpt";
  if (!writer.write_manifest(path)) {
    SLIDER_LOG(Warning) << "checkpoint: manifest write failed: " << path;
    return false;
  }
  return true;
}

bool SliderSession::restore(const std::string& dir) {
  SLIDER_CHECK(!initialized_) << "restore on an initialized session";
  SLIDER_TRACE_SPAN("durability", "session.restore");
  const auto state_lock = exclusive_state_lock();
  const std::string path = dir + "/session.slckpt";
  auto reader = durability::CheckpointReader::open(
      path, [this](std::uint64_t id) { return memo_->peek(id); });
  if (reader == nullptr) return false;

  std::uint64_t job_hash = 0;
  std::uint32_t num_partitions = 0;
  if (!reader->get_u64(&job_hash) || !reader->get_u32(&num_partitions)) {
    return false;
  }
  if (job_hash != (job_.job_hash() ^ tenant_salt_) ||
      num_partitions != partitions_.size()) {
    SLIDER_LOG(Warning) << "restore: checkpoint belongs to a different "
                        << "job/tenant/partitioning: " << path;
    return false;
  }

  std::uint32_t window_count = 0;
  if (!reader->get_u32(&window_count)) return false;
  std::deque<SplitPtr> window;
  for (std::uint32_t i = 0; i < window_count; ++i) {
    std::uint64_t id = 0;
    std::uint64_t byte_size = 0;
    if (!reader->get_u64(&id) || !reader->get_u64(&byte_size)) return false;
    InputSplit stub;
    stub.id = id;
    stub.byte_size = static_cast<std::size_t>(byte_size);
    window.push_back(std::make_shared<const InputSplit>(std::move(stub)));
  }

  std::uint64_t clock_bits = 0;
  if (!reader->get_u64(&clock_bits)) return false;

  std::uint32_t output_count = 0;
  if (!reader->get_u32(&output_count) ||
      output_count != partitions_.size()) {
    return false;
  }
  std::vector<KVTable> output;
  output.reserve(output_count);
  for (std::uint32_t i = 0; i < output_count; ++i) {
    std::string bytes;
    if (!reader->get_bytes(&bytes)) return false;
    std::optional<KVTable> table = deserialize_table(std::move(bytes));
    if (!table.has_value()) return false;
    output.push_back(std::move(*table));
  }

  // Trees restore serially: they share the CheckpointReader cursor. Only
  // commit session state after every tree accepted its slice.
  for (PartitionState& p : partitions_) {
    if (!p.tree->restore(*reader)) {
      SLIDER_LOG(Warning) << "restore: tree restore failed: " << path;
      return false;
    }
  }
  if (!reader->done()) {
    SLIDER_LOG(Warning) << "restore: trailing bytes in manifest: " << path;
    return false;
  }

  window_ = std::move(window);
  output_ = std::move(output);
  sim_clock_ = std::bit_cast<SimDuration>(clock_bits);
  initialized_ = true;
  // Slides from here until end_recovery_replay() are catch-up work; their
  // tree charges bill to recovery_replay (see work_ledger.h).
  replaying_ = true;
  return true;
}

void SliderSession::garbage_collect() {
  SLIDER_TRACE_SPAN("session", "session.gc");
  std::vector<NodeId> released;
  take_released_ids(released);
  std::size_t collected = 0;
  if (first_gc_) {
    first_gc_ = false;
    std::unordered_set<NodeId> live;
    collect_live_ids(live);
    collected = memo_->retain_only(live);
  } else {
    collected = memo_->erase_released(released);
  }
  SLIDER_TRACE_EVENT("session", "gc.collected",
                     {{"entries", static_cast<double>(collected)}});
}

void SliderSession::collect_live_ids(std::unordered_set<NodeId>& live) const {
  for (const PartitionState& p : partitions_) {
    p.tree->collect_live_ids(live);
  }
}

void SliderSession::take_released_ids(std::vector<NodeId>& released) {
  for (PartitionState& p : partitions_) p.tree->take_released_ids(released);
}

int SliderSession::tree_height(int partition) const {
  return partitions_[static_cast<std::size_t>(partition)].tree->height();
}

}  // namespace slider
