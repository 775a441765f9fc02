// SliderSession — the incremental sliding-window runtime (paper §6).
//
// One session = one standing job over one sliding window. The first call
// (initial_run) executes like a normal MapReduce job but builds the
// per-partition self-adjusting contraction trees; every subsequent slide()
// maps only the freshly appended splits and propagates the delta through
// the trees, reusing memoized sub-computations for everything else. The
// optional background phase (run_background) performs split-processing
// pre-computation on a best-effort basis.
//
// The session also owns the §6 systems glue: the memoization-aware /
// hybrid reduce scheduling, the master-side garbage collector, and the
// interaction with the fault-tolerant memo store.
#pragma once

#include <chrono>
#include <deque>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "contraction/tree.h"
#include "mapreduce/engine.h"
#include "observability/introspection_server.h"
#include "observability/slo.h"
#include "observability/timeseries.h"
#include "slider/window.h"

namespace slider {

struct SliderConfig {
  WindowMode mode = WindowMode::kVariableWidth;
  // Tree variant; defaults (kDefault) to the paper's pairing for `mode`.
  std::optional<TreeKind> tree_kind;
  // Route partitions whose combiner is flat-eligible (JobSpec traits:
  // associative + commutative + exactly associative + fixed-width kernel)
  // to the flat aggregation tier (contraction/flat_aggregator.h) instead
  // of a contraction tree. Only engages when `tree_kind` is unset — an
  // explicit tree request always wins — and never with
  // initial_bucket_sizes (a RotatingTree-only knob).
  bool enable_flat_tier = true;
  bool split_processing = false;
  // Fixed-width: splits per bucket (= slide width). Ignored otherwise.
  std::size_t bucket_width = 1;
  // Fixed-width with uneven slides (e.g. calendar months): per-bucket
  // split counts of the initial window; overrides bucket_width grouping.
  std::vector<std::size_t> initial_bucket_sizes;
  double boundary_probability = 0.5;  // randomized folding tree
  // Garbage-collect the memo store after every run (§6): erase the node
  // ids the run released. Off when a composite runtime shares the store
  // and collects for every session at once (take_released_ids()).
  bool run_gc = true;
  SchedulePolicy reduce_policy = SchedulePolicy::kHybrid;
  // Live introspection endpoint (observability/introspection_server.h).
  // -1 disables it entirely (no server object, no per-run locking);
  // 0 binds an OS-assigned ephemeral port; >0 binds that port, falling
  // back to an ephemeral one when busy. The SLIDER_INTROSPECT_PORT env
  // var, when set to a valid port number, overrides this field.
  int introspect_port = -1;
  // Per-slide time-series sampling (observability/timeseries.h): every run
  // commits one SlideSample to the process-wide TimeSeries at the slide
  // boundary. On by default — the cost is one struct copy and a short
  // mutex hold per run, off the per-node hot paths entirely.
  bool sample_timeseries = true;
  // SLO specs evaluated over the time series after every sampled run
  // (observability/slo.h). Empty (the default) disables evaluation; see
  // obs::default_slos() for lenient starters. Verdicts are served in
  // /healthz, and any breach requests a flight-recorder post-mortem dump.
  std::vector<obs::SloSpec> slos;
  // When non-empty, arms the process-wide FlightRecorder to write
  // CRC-framed *.pm.json post-mortems into this directory on chaos
  // events, degraded-mode entry, or SLO breach. The SLIDER_POSTMORTEM_DIR
  // env var arms the recorder process-wide without any session's help.
  std::string postmortem_dir;
  // Fault injection (robustness/chaos.h): when set, every contraction /
  // reduce / background stage asks this provider for a StageFaultPlan at
  // its simulated start time — mid-stage crashes kill running attempts,
  // injected failures force retries with backoff, and the attempt/retry
  // counters land in RunMetrics. Null (the default) runs every stage
  // failure-free. Not owned; must outlive the session.
  const StageFaultProvider* fault_provider = nullptr;
  // Online integrity scrubbing (durability/scrubber.h): when > 0, every
  // slide boundary verifies up to this many at-rest durable-tier record
  // frames (resuming where the last slice stopped), heals diverged
  // replicas by anti-entropy re-append, and quarantines corrupt segments.
  // The scrub's I/O is billed into the run's ledger commit under
  // WorkCause::kScrubRepair. 0 (the default) keeps the scrubber disarmed
  // at the cost of a single branch per slide.
  std::uint64_t scrub_records_per_slide = 0;
  // Multi-tenant identity (src/serving). When non-empty:
  //   * hash_string(tenant) is folded into every memo node id, so
  //     identical JobSpecs under different tenants never alias in a
  //     shared MemoStore, and tagged as the entries' owner for quota
  //     accounting;
  //   * ledger commits and time-series samples carry the tenant tag;
  //   * checkpoint identity covers (job_hash, tenant), so one tenant's
  //     checkpoint cannot restore into another's session.
  std::string tenant;
  // Per-tenant time-series sink. When set, samples are recorded here (in
  // addition to the tenant-tagged copy in TimeSeries::global(), which
  // keeps post-mortem dumps complete) and SLOs are evaluated over this
  // sink only — a noisy neighbour cannot breach this tenant's SLOs. Not
  // owned; must outlive the session.
  obs::TimeSeries* timeseries = nullptr;
  // Per-slide lineage recording (observability/provenance.h). When true,
  // every tree charge site also appends a NodeLineage record and the
  // session commits one SlideLineage per run (initial/slide/background)
  // into the recorder, deriving the critical path and the
  // slider_critical_path_seconds histogram. Served as /explain and
  // /criticalpath.json on the introspection endpoint and embedded in
  // flight-recorder post-mortems. Off (the default) costs nothing: the
  // record sites are guarded by a bool in the charge context.
  bool record_provenance = false;
  // External lineage sink (e.g. the serving layer's per-tenant recorder).
  // Not owned; must outlive the session. When null and record_provenance
  // is set, the session owns a recorder with default ring options.
  obs::ProvenanceRecorder* provenance = nullptr;
};

// Simulated cost of one contraction-tree update (§6 cost model).
struct ContractionCost {
  // Combiner merges over the rows scanned plus one kMemoLookupSec per
  // visited node.
  SimDuration cpu = 0;
  SimDuration work = 0;  // cpu plus the memo reads and writes charged
};
ContractionCost contraction_cost(const AppCostProfile& costs,
                                 const TreeUpdateStats& ts);

class SliderSession {
 public:
  SliderSession(const VanillaEngine& engine, MemoStore& memo,
                const JobSpec& job, SliderConfig config);
  ~SliderSession();

  // Runs the job from scratch over the initial window.
  RunMetrics initial_run(std::vector<SplitPtr> splits);

  // Slides the window: drops `remove_front` splits, appends `added`.
  // Returns foreground metrics only.
  RunMetrics slide(std::size_t remove_front, std::vector<SplitPtr> added);

  // Best-effort background pre-processing (§4). Returns metrics with only
  // the background_* fields populated. No-op without split processing.
  RunMetrics run_background();

  // Final reduced output, one table per partition (stable across calls
  // until the next run).
  const std::vector<KVTable>& output() const { return output_; }

  // Current window contents, oldest first.
  const std::deque<SplitPtr>& window() const { return window_; }

  const JobSpec& job() const { return job_; }
  const SliderConfig& config() const { return config_; }
  int tree_height(int partition) const;

  // End of the session's simulated timeline so far: runs (foreground and
  // background) are laid out back-to-back on this clock, which is what
  // the simulated-time trace spans are anchored to.
  SimDuration sim_clock() const { return sim_clock_; }

  // Durability (§6): persists the session's full incremental state — the
  // window's split metadata, every partition tree's structure, and the
  // reduced outputs — as a checkpoint manifest at `<dir>/session.slckpt`.
  // Tree node payloads that already live in the memo store's durable tier
  // are written by-reference; everything else is inlined. Returns false if
  // the manifest could not be written.
  bool checkpoint(const std::string& dir) const;

  // Restores a freshly constructed session (same engine/job/config) from a
  // checkpoint written by `checkpoint()`. Call instead of initial_run(),
  // after MemoStore::restore_from_durable() when a durable tier is
  // attached, so by-ref node payloads resolve. On success the session is
  // initialized: output() serves the checkpointed result and the next
  // slide() performs delta-proportional work, exactly as if the process
  // had never died. Returns false (leaving the session unusable) on any
  // validation failure.
  bool restore(const std::string& dir);

  // Node ids the session's trees still need: the full-sweep view, O(w).
  // Serves checkpoint pinning, a composite runtime's full-sweep GC
  // (MemoStore::retain_only) and cross-checks of the per-run GC.
  void collect_live_ids(std::unordered_set<NodeId>& live) const;

  // Appends the node ids the session's trees released since the last call
  // (ContractionTree::take_released_ids). The session's own GC erases
  // exactly these after every run. A composite runtime sharing this
  // MemoStore (a query pipeline, the serving layer; run_gc=false) takes
  // them instead and passes them to MemoStore::erase_released.
  void take_released_ids(std::vector<NodeId>& released);

  // Structure dump of one partition's contraction tree (the /tree route).
  // Thread-safe against concurrent runs when the introspection server is
  // enabled (shared-locks the session state).
  TreeDescription describe_tree(int partition) const;

  // Introspection server, when enabled via SliderConfig::introspect_port
  // or SLIDER_INTROSPECT_PORT; nullptr otherwise. Exposes the actually
  // bound port for pollers.
  const obs::IntrospectionServer* introspection() const {
    return introspect_.get();
  }

  // Verdicts from the most recent SLO evaluation (empty until a run has
  // been sampled, or when config().slos is empty). Thread-safe.
  std::vector<obs::SloVerdict> slo_verdicts() const;

  // Lineage recorder when SliderConfig::record_provenance is set (the
  // external sink, or the session-owned one); nullptr when disarmed.
  // ProvenanceRecorder is internally synchronized.
  obs::ProvenanceRecorder* provenance() const { return provenance_; }

  // Causal attribution (observability/work_ledger.h): after restore(),
  // slides are re-executions of work the pre-crash process already did, so
  // their tree work bills to recovery_replay until the caller declares the
  // catch-up finished. A session that never restored attributes normally.
  bool recovery_replay_active() const { return replaying_; }
  void end_recovery_replay() { replaying_ = false; }

  // Critical-path estimate of a partition's contraction phase: nodes
  // within a level run as parallel combiner tasks, levels are sequential.
  // Uses the given partition's own tree height (heights differ across
  // partitions for data-dependent variants). Public as a test hook.
  double contraction_breadth(const TreeUpdateStats& ts,
                             std::size_t partition) const;
  SimDuration contraction_critical_path(const TreeUpdateStats& ts,
                                        SimDuration total,
                                        std::size_t partition) const;

 private:
  struct PartitionState {
    std::unique_ptr<ContractionTree> tree;
    MachineId home = 0;
  };

  // The body of initial_run (kInitial) and slide (kSlide): map the
  // appended splits, update every partition's tree (initial_build, or
  // apply_delta dropping `remove_front` leaves), move the window, then
  // contraction_and_reduce. `wall_start` is the host clock at the entry
  // point, for the wall-latency sample.
  RunMetrics run_foreground(obs::RunKind run_kind, std::size_t remove_front,
                            std::vector<SplitPtr> added,
                            std::chrono::steady_clock::time_point wall_start);
  // Shared tail of the foreground runs: run the contraction + reduce stage
  // from the per-partition deltas gathered in `tree_stats`, then GC.
  // Commits the run's causal attribution to the process-wide WorkLedger
  // and the run's SlideSample to the process-wide TimeSeries.
  // `tree_stats` is non-const: when provenance recording is armed,
  // observe_run moves the per-partition lineage vectors out of the stats
  // into the SlideLineage it commits.
  void contraction_and_reduce(std::vector<TreeUpdateStats>& tree_stats,
                              const std::vector<std::size_t>& new_leaf_bytes,
                              obs::RunKind run_kind, std::size_t removed,
                              std::size_t added, RunMetrics& metrics,
                              std::chrono::steady_clock::time_point wall_start);
  // Memo I/O share of a partition's contraction critical path (the CPU
  // share is contraction_critical_path): the I/O spreads across machines'
  // disks too, but loses half its parallelism to replication fan-out and
  // store contention.
  SimDuration contraction_io_path(const TreeUpdateStats& ts,
                                  std::size_t partition) const;
  // Schedules one stage of per-partition tasks that starts at `stage_start`
  // on the session clock, under the fault provider's plan for it, and
  // folds the stage's migration and attempt counters into `metrics`. The
  // caller books the makespan.
  StageResult run_partition_stage(const std::vector<SimTask>& tasks,
                                  SimDuration stage_start,
                                  StageTimeline* timeline,
                                  RunMetrics& metrics) const;
  // Slide-boundary observability tail, shared with run_background():
  // opportunistic degraded-drain probe, lineage commit, time-series
  // sample (from the run's tree `totals`), SLO evaluation (breaches
  // request a post-mortem), flight-recorder tick.
  void observe_run(obs::RunKind run_kind, std::size_t removed,
                   std::size_t added, const RunMetrics& metrics,
                   std::vector<TreeUpdateStats>& tree_stats,
                   const TreeUpdateStats& totals, double sim_start,
                   double sim_latency,
                   std::chrono::steady_clock::time_point wall_start);
  void garbage_collect();
  void maybe_start_introspection();
  // Exclusive lock over session state while the server is live; a no-op
  // (default-constructed lock) when introspection is disabled, so the
  // disabled configuration pays nothing per run.
  std::unique_lock<std::shared_mutex> exclusive_state_lock();

  const VanillaEngine* engine_;
  MemoStore* memo_;
  JobSpec job_;
  SliderConfig config_;
  std::uint64_t tenant_salt_ = 0;  // hash_string(config_.tenant), 0 if empty
  std::vector<PartitionState> partitions_;
  // The partitions' tree kind at construction ("flat" when flat-routed).
  std::string tree_label_;
  std::deque<SplitPtr> window_;
  std::vector<KVTable> output_;
  bool initialized_ = false;
  bool replaying_ = false;  // see recovery_replay_active()
  // The first GC of a session that owns its GC sweeps the whole store
  // once: the session adopts it, pruning entries no tree of this session
  // holds — e.g. what restore_from_durable resurrected, since GC writes no
  // tombstones. Every later GC erases only the released ids.
  bool first_gc_ = true;
  SimDuration sim_clock_ = 0;  // see sim_clock()

  // Guards partitions_/window_/output_ between run mutations and the
  // introspection server's /tree handler. Only touched when introspect_
  // is live.
  mutable std::shared_mutex state_mutex_;
  std::unique_ptr<obs::IntrospectionServer> introspect_;

  // Lineage sink (see provenance()). Points at config_.provenance or at
  // owned_provenance_; null when record_provenance is off.
  obs::ProvenanceRecorder* provenance_ = nullptr;
  std::unique_ptr<obs::ProvenanceRecorder> owned_provenance_;

  // Latest SLO verdicts, swapped in once per sampled run; read by the
  // /healthz handler and slo_verdicts().
  mutable std::mutex slo_mutex_;
  std::vector<obs::SloVerdict> slo_verdicts_;
};

}  // namespace slider
