// Multi-tenant serving runtime: one SessionManager multiplexes thousands
// of live sliding-window sessions on a single node (ROADMAP: serving
// layer; the systems counterpart of the paper's one-job SliderSession).
//
// Each tenant is a named (JobSpec, SliderConfig) pair with its own
// SliderSession, window state, and per-tenant time-series sink. Tenants
// share the process-wide substrate — one MemoStore (+ optional durable
// tier), one global ThreadPool, one WorkLedger — and the manager provides
// the isolation the sharing removes:
//
//   * identity: hash_string(tenant) is folded into every memo node id
//     (SliderConfig::tenant), so identical jobs never alias across
//     tenants, and every store entry carries its owner for accounting;
//   * capacity: per-tenant byte/entry quotas on the shared MemoStore,
//     enforced by quota-aware eviction that only ever evicts the
//     over-quota tenant's own entries (fallback recompute keeps outputs
//     byte-identical; the cost is latency, billed to the ledger);
//   * scheduling: tenants are sharded by name hash; run_pending() drains
//     the per-tenant queues shard-parallel on the global pool, one
//     request per tenant per round-robin cycle, so a backlogged tenant
//     cannot starve its shard;
//   * admission: submit() sheds work past a per-tenant watermark and
//     flags backlog past a softer one, instead of letting one tenant's
//     queue grow without bound;
//   * lifecycle: sessions idle for `idle_checkpoint_rounds` consecutive
//     run_pending() cycles are checkpointed to a spool directory and
//     destroyed; their live memo ids are pinned against whole-entry
//     eviction so the checkpoint's by-ref payloads survive, and the next
//     submitted slide transparently re-hydrates via restore().
//
// Observability: an optional fleet IntrospectionServer serves /healthz
// (per-tenant SLO verdicts aggregated to one fleet verdict), /metrics
// (the global registries, which now carry {tenant="..."} ledger series),
// /tenants.json (per-tenant counters + store usage), and
// /timeseries.json?tenant=NAME (that tenant's private series).
//
// Thread safety: add_tenant/submit/run_pending/status may be called
// concurrently. Each tenant's state is guarded by its own mutex, held for
// the duration of that tenant's runs — a status probe or submit for a
// tenant blocks while that tenant is mid-slide, never while others run.
// run_pending() itself is not reentrant (one drain at a time).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "observability/introspection_server.h"
#include "observability/provenance.h"
#include "observability/timeseries.h"
#include "slider/session.h"
#include "storage/memo_store.h"

namespace slider::serving {

// One tenant's registration: a standing job plus its session config. The
// manager overwrites config.tenant (= name), config.timeseries (= the
// tenant's private sink), config.run_gc (= false: GC over a shared store
// must be fleet-global, see garbage_collect()), and
// config.introspect_port (= -1: the manager owns the fleet endpoint).
struct TenantSpec {
  std::string name;  // non-empty; unique within the manager
  JobSpec job;
  SliderConfig config;
  // Share of the shared MemoStore (0 = unbounded); enforced by
  // quota-aware eviction against this tenant only.
  TenantQuota quota;
};

enum class AdmitResult {
  kAccepted,  // queued below the backlog watermark
  kQueued,    // accepted, but the tenant's backlog passed queue_watermark
  kShed,      // dropped: backlog at shed_watermark (or tenant unusable)
  kUnknownTenant,
};

struct SessionManagerOptions {
  // Tenant shards drained in parallel by run_pending(). Clamped to >= 1.
  std::size_t shards = 8;
  // Per-tenant pending-request count at/above which submit() reports
  // kQueued (soft backlog signal).
  std::size_t queue_watermark = 8;
  // Per-tenant pending-request count at/above which submit() sheds.
  std::size_t shed_watermark = 64;
  // Consecutive run_pending() cycles a tenant must sit idle (no requests
  // executed, none queued) before its session is checkpointed to the
  // spool and destroyed. 0 disables idle checkpointing.
  std::size_t idle_checkpoint_rounds = 0;
  // Spool root for idle-session checkpoints; empty = a directory under
  // the system temp dir, unique to this manager instance.
  std::string spool_dir;
  // Run the fleet-global memo GC automatically at the end of every
  // run_pending() drain.
  bool auto_gc = true;
  // Fleet introspection endpoint (see IntrospectionServer); -1 = none.
  int introspect_port = -1;
  // Ring geometry of every tenant's private time-series sink. The
  // TimeSeries defaults (512 raw / 256 buckets) cost ~130KB per tenant —
  // fine for dozens, ruinous for a 10k-session fleet; scale drivers
  // shrink this.
  obs::TimeSeries::Options series_options;
};

struct TenantCounters {
  std::uint64_t submitted = 0;   // requests accepted into the queue
  std::uint64_t executed = 0;    // runs performed (initial + slides)
  std::uint64_t shed = 0;        // requests dropped by admission control
  std::uint64_t queued_over_watermark = 0;  // accepted while backlogged
  std::uint64_t checkpoints = 0;  // idle-lifecycle checkpoints taken
  std::uint64_t hydrations = 0;   // cold-session restores performed
  std::uint64_t hydrate_failures = 0;
};

struct TenantStatus {
  std::string name;
  bool cold = false;        // checkpointed out; next slide re-hydrates
  bool unusable = false;    // hydrate failed; requests are shed
  std::size_t pending = 0;  // queued requests
  std::size_t window_splits = 0;  // as of the last executed run
  TenantCounters counters;
  TenantUsage usage;  // this tenant's share of the shared MemoStore
  std::vector<obs::SloVerdict> verdicts;  // empty when cold / no SLOs
};

class SessionManager {
 public:
  SessionManager(const VanillaEngine& engine, MemoStore& memo,
                 SessionManagerOptions options);
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  // Registers a tenant and queues its initial window build (executed by
  // the next run_pending()). False on empty/duplicate name.
  bool add_tenant(TenantSpec spec, std::vector<SplitPtr> initial_splits);

  // Queues one slide for `name`, subject to admission control.
  AdmitResult submit(const std::string& name, std::size_t remove_front,
                     std::vector<SplitPtr> added);

  // Drains every tenant queue: shards run in parallel on the global
  // ThreadPool, tenants within a shard round-robin one request per cycle.
  // Cold tenants with work re-hydrate from the spool first; tenants idle
  // past the threshold are checkpointed out afterwards. Returns the
  // number of runs executed.
  std::size_t run_pending();

  // Fleet-global memo GC: erases the node ids each tenant's session
  // released since the last call, plus those its session released before
  // an idle checkpoint destroyed it. The store then holds exactly the live
  // sessions' ids and the cold checkpoints' pinned ids, at a cost
  // proportional to the released ids, not to the fleet's state. Called
  // automatically by run_pending() when options.auto_gc; callable
  // directly when driving sessions manually. Returns entries collected.
  std::size_t garbage_collect();

  // Node ids tenant `name` still needs: its hot session's live ids, or its
  // cold checkpoint's pinned ids. The full-sweep view, O(window), for
  // cross-checking garbage_collect(); no-op for unknown names.
  void collect_live_ids(const std::string& name,
                        std::unordered_set<NodeId>& live) const;

  std::size_t tenant_count() const;
  std::size_t total_pending() const {
    return total_pending_.load(std::memory_order_relaxed);
  }

  // Per-tenant probes. Unknown names return a default TenantStatus with
  // an empty name / empty outputs.
  TenantStatus status(const std::string& name) const;
  std::vector<TenantStatus> fleet_status() const;  // sorted by name
  // Serialized reduced outputs (one blob per partition) as of the
  // tenant's most recent executed run. Valid while the tenant is cold —
  // this is the soak's byte-identity probe.
  std::vector<std::string> last_outputs(const std::string& name) const;
  bool is_cold(const std::string& name) const;
  // Snapshot of the tenant's private time-series sink (empty snapshot for
  // unknown names) — the bench's per-tenant latency-percentile source.
  obs::TimeSeriesSnapshot tenant_series(const std::string& name) const;
  // The tenant's lineage recorder; nullptr for unknown or unarmed
  // tenants. Valid while the tenant is cold (lineage outlives the
  // session object, like the time-series sink).
  const obs::ProvenanceRecorder* tenant_provenance(
      const std::string& name) const;

  // Fleet endpoint. start_introspection() is a no-op (returning false)
  // when options.introspect_port is -1.
  bool start_introspection();
  const obs::IntrospectionServer* introspection() const {
    return introspect_.get();
  }

  // Fleet /healthz document: overall ok iff no live tenant has a failing
  // SLO verdict and the shared store is not durably degraded.
  std::string healthz_json() const;
  std::string tenants_json() const;

 private:
  struct Request {
    bool initial = false;
    std::size_t remove_front = 0;
    std::vector<SplitPtr> splits;
  };

  struct TenantState {
    std::string name;
    std::uint64_t salt = 0;  // hash_string(name)
    JobSpec job;
    SliderConfig config;  // tenant/timeseries/run_gc/introspect set
    std::string spool_dir;
    // Private time-series sink; SLOs evaluate over this, so a noisy
    // neighbour cannot breach this tenant's objectives.
    obs::TimeSeries series;
    // Private lineage recorder (non-null iff armed); outlives the session
    // across cold cycles so /explain keeps working on a spooled tenant.
    std::unique_ptr<obs::ProvenanceRecorder> provenance;

    mutable std::mutex mutex;  // guards everything below + session runs
    std::unique_ptr<SliderSession> session;  // null while cold/unusable
    bool cold = false;
    bool unusable = false;
    std::deque<Request> queue;
    std::size_t idle_rounds = 0;
    std::size_t window_splits = 0;
    TenantCounters counters;
    // Serialized outputs, captured when checkpoint_locked spools the
    // session out; last_outputs() serializes a live session on call.
    std::vector<std::string> outputs;
    // Ids the session released before checkpoint_locked destroyed it; the
    // next garbage_collect() erases them.
    std::vector<NodeId> released;
  };

  // Executes one request on a live session. Caller holds state.mutex.
  void execute_locked(TenantState& state, Request request);
  // Re-creates and restores a cold session. Caller holds state.mutex.
  bool hydrate_locked(TenantState& state);
  // Checkpoints an idle session out. Caller holds state.mutex.
  void checkpoint_locked(TenantState& state);
  // Rebuilds the pinned-id union from cold_ids_ and installs it on the
  // store. Caller holds cold_mutex_.
  void refresh_pinned_locked();

  TenantStatus status_of(const TenantState& state) const;
  std::size_t shard_of(const TenantState& state) const {
    return static_cast<std::size_t>(state.salt) % shards_.size();
  }

  const VanillaEngine* engine_;
  MemoStore* memo_;
  SessionManagerOptions options_;

  // Registry: name -> state (stable pointers), plus the shard lists
  // run_pending() iterates. Guarded by registry_mutex_ (writes only in
  // add_tenant; everything else shared-locks).
  mutable std::shared_mutex registry_mutex_;
  std::unordered_map<std::string, std::unique_ptr<TenantState>> tenants_;
  std::vector<std::vector<TenantState*>> shards_;

  // Cold tenants' live-id sets, pinned against whole-entry eviction so
  // their checkpoints' by-ref payloads survive until re-hydration.
  mutable std::mutex cold_mutex_;
  std::unordered_map<std::string, std::unordered_set<NodeId>> cold_ids_;

  std::atomic<std::size_t> total_pending_{0};
  std::mutex run_mutex_;  // run_pending is one-drain-at-a-time
  bool owns_spool_dir_ = false;  // we generated it; remove it on destruction
  std::unique_ptr<obs::IntrospectionServer> introspect_;
};

}  // namespace slider::serving
