// Fault-tolerant memoization layer (paper §6).
//
// Memoized sub-computation results (contraction-tree node payloads and map
// outputs) live in two tiers:
//   * an in-memory cache on the entry's home machine — fast, lost if the
//     machine fails;
//   * a persistent tier with two replicas on distinct machines — slower
//     (disk + possibly network), survives single failures.
// A shim I/O layer serves reads from the cheapest live tier and charges the
// simulated read cost accordingly; this tiering is exactly what Table 2
// measures. A master-side index tracks every entry so the garbage
// collector can free state that fell out of the window; with a durable
// tier attached, each GC then runs the tier's segment cleaner, which asks
// the same index whether a logged put is still live.
//
// Thread safety: the store is shared by every partition's contraction tree
// and the parallel map stage, so all public methods are safe for
// concurrent callers. The index is sharded (per-shard mutex + per-shard
// LRU list); byte/entry/sequence counters are atomics. Each entry also
// sits in exactly one owner's write-order index (one cell per tenant,
// plus the untenanted cell). Eviction has one path per tier: whole-entry
// policies (entry budget, tenant quota) drop the oldest unpinned entries
// from the write-order indexes, and the memory tier drops the least
// recent of the shard LRU tails. Both serialize on a dedicated mutex
// (exact when single-threaded, up to in-flight races otherwise).
// Locking discipline: public methods take at most one shard mutex at a
// time and never call the eviction policies while holding it; the eviction
// policies take evict_mutex_ first and then shard mutexes one at a time.
// An owner's write-order mutex nests inside a shard mutex, never the
// reverse — see docs/threading.md.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/cost_model.h"
#include "common/metrics.h"
#include "data/record.h"

namespace slider::durability {
class DurableTier;
class IntegrityScrubber;
struct RecoveryStats;
struct ScrubStats;
}  // namespace slider::durability

namespace slider {

using NodeId = std::uint64_t;

enum class ReadTier { kLocalMemory, kRemoteMemory, kLocalDisk, kRemoteDisk };

struct MemoReadResult {
  bool found = false;
  std::shared_ptr<const KVTable> table;
  SimDuration cost = 0;
  ReadTier tier = ReadTier::kLocalMemory;
  // The entry exists in the index but every copy is on a failed machine
  // (memory home down AND zero intact replicas): the miss is
  // failure-forced, and the recompute it triggers bills to the ledger's
  // failure_reexec cause rather than memo_eviction_recompute.
  bool failure_miss = false;
};

struct MemoWriteResult {
  SimDuration cost = 0;
  std::uint64_t bytes_written = 0;
};

struct MemoStoreStats {
  std::uint64_t reads_memory = 0;
  std::uint64_t reads_disk = 0;
  std::uint64_t misses = 0;
  std::uint64_t memory_evictions = 0;  // LRU drops from the memory tier
  std::uint64_t budget_evictions = 0;  // whole entries dropped by policy
  // Whole entries dropped because their owning tenant exceeded its
  // byte/entry quota (multi-tenant serving; always a subset-disjoint
  // count from budget_evictions).
  std::uint64_t quota_evictions = 0;
  // Misses whose id was previously dropped by the budget policy or by its
  // tenant's quota: the recompute they force is eviction-induced, not
  // window-induced (the ledger's memo_eviction_recompute cause keys off
  // the same signal).
  std::uint64_t eviction_forced_misses = 0;
  std::uint64_t persistent_writes = 0;   // records appended to the durable log
  std::uint64_t bytes_persisted = 0;     // payload bytes of those records
  std::uint64_t recovered_entries = 0;   // entries restored from the log
  // Misses forced by machine failures: the entry existed but every copy
  // (memory home + both replicas) was on a failed machine.
  std::uint64_t failure_forced_misses = 0;
  // Degraded durable mode: writes buffered while the durable tier was
  // erroring, and how many distinct degraded intervals were entered.
  std::uint64_t degraded_writes_buffered = 0;
  std::uint64_t degraded_intervals = 0;
  // Reads whose stored payload checksum did not match the bytes (silent
  // corruption); each degraded to a failure miss, never a wrong answer.
  std::uint64_t checksum_forced_misses = 0;
  // Index entries garbage collection examined: a retain_only sweep adds
  // the index size, an erase_released batch its id count. The
  // Δ-proportional GC claim is that this grows with the slide, not the
  // window (tools/check_asymptotics gates it).
  std::uint64_t gc_examined = 0;
  SimDuration read_time = 0;
  SimDuration write_time = 0;
};

// Per-tenant resource bounds for a shared store (multi-tenant serving).
// 0 = unbounded. Enforced by quota-aware eviction: the over-quota tenant's
// own oldest entries go first; other tenants are never touched.
struct TenantQuota {
  std::uint64_t max_bytes = 0;
  std::size_t max_entries = 0;
};

// Point-in-time usage of one tenant in a shared store.
struct TenantUsage {
  std::uint64_t tenant = 0;  // the salt (hash of the tenant name)
  std::uint64_t bytes = 0;
  std::uint64_t entries = 0;
  std::uint64_t quota_evictions = 0;
  std::uint64_t quota_max_bytes = 0;
  std::uint64_t quota_max_entries = 0;
};

class MemoStore {
 public:
  static constexpr int kReplicas = 2;

  // Both out-of-line: the store owns the (incomplete here) scrubber.
  MemoStore(const Cluster& cluster, const CostModel& cost);
  ~MemoStore();

  // Table 2 toggles this: with the in-memory cache disabled, every read is
  // served from the persistent tier.
  void set_memory_cache_enabled(bool enabled) {
    memory_enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool memory_cache_enabled() const {
    return memory_enabled_.load(std::memory_order_relaxed);
  }

  // Bounds the in-memory tier (aggregate bytes across machines) by plain
  // LRU: the least recently used memory copy is dropped first, whoever
  // owns it. Its persistent replicas keep serving, so this only trades
  // read latency for RAM. 0 = unbounded (default).
  void set_memory_capacity_bytes(std::uint64_t capacity);
  std::uint64_t memory_bytes() const {
    return memory_bytes_.load(std::memory_order_relaxed);
  }

  // Aggressive user-defined GC policy (§6): cap the total number of
  // memoized entries; the oldest-written unpinned entries, across every
  // owner, are discarded entirely (memory + persistent) when the cap is
  // exceeded. 0 = unbounded.
  void set_entry_budget(std::size_t budget);

  // Home machine of an entry (where its in-memory copy lives and where the
  // memo-aware scheduler wants the consuming task to run).
  MachineId home_of(NodeId id) const { return cluster_->place(id); }

  bool contains(NodeId id) const;
  std::size_t size() const {
    return entry_count_.load(std::memory_order_relaxed);
  }
  std::uint64_t total_bytes() const {
    return total_bytes_.load(std::memory_order_relaxed);
  }

  // Writes memory copy (home machine) + kReplicas persistent copies.
  // Idempotent for an existing id (contents are content-addressed); a
  // re-put of a memory-resident entry refreshes its LRU recency, and a
  // re-put whose home machine is failed drops the stale memory copy.
  //
  // `tenant` (0 = untenanted) attributes the entry for quota accounting.
  // With the tenant salt folded into node ids, an id belongs to exactly
  // one tenant; a re-put of an entry recovered from the durable log
  // (tenant unknown = 0) adopts the writer's tenant.
  MemoWriteResult put(NodeId id, std::shared_ptr<const KVTable> table,
                      std::uint64_t tenant = 0);

  // --- multi-tenant quotas (src/serving) -------------------------------
  //
  // Bounds one tenant's share of the shared store. Enforced after every
  // put, before the memory tier's LRU, by evicting the over-quota
  // tenant's own oldest-written entries (whole entries, memory +
  // persistent, durable copies tombstoned) until it fits, so the LRU never
  // punishes a neighbour for this tenant's footprint. A zero-valued quota
  // removes the bound.
  void set_tenant_quota(std::uint64_t tenant, TenantQuota quota);

  // Usage snapshot for one tenant / every tenant ever seen. Tenant 0
  // reads the untenanted cell (untenanted writes and recovered entries
  // not yet adopted); the fleet snapshot leaves it out.
  TenantUsage tenant_usage(std::uint64_t tenant) const;
  std::vector<TenantUsage> tenant_usage_snapshot() const;

  // Ids that whole-entry eviction policies (entry budget + tenant quota)
  // must not drop: a cold-checkpointed session's live set references these
  // by-id from its checkpoint blob, so evicting one would strand the
  // checkpoint. Memory-LRU may still drop their memory copies (the
  // persistent bytes keep serving peek()/restore). Pass nullptr to clear.
  void set_pinned_ids(
      std::shared_ptr<const std::unordered_set<NodeId>> pinned);

  // Cost of writing `bytes` through the layer without performing the
  // write. Used to price passthrough combiner re-executions whose output
  // is content-identical to an already-stored node.
  SimDuration estimate_write_cost(std::size_t bytes) const {
    return cost_->mem_read(bytes) + cost_->disk_write(bytes) +
           cost_->net_transfer(bytes);
  }

  // Reads for a consumer running on `reader`. On a memory hit the cost is a
  // memory read (+ network if remote); otherwise a disk read from the
  // nearest live replica. Failed machines serve nothing.
  MemoReadResult get(NodeId id, MachineId reader);

  void erase(NodeId id);

  // Garbage collection (§6), Δ-proportional form: frees the entries of
  // `ids` (absent ids are ignored) and returns how many it freed. The
  // trees report exactly the node ids a run released
  // (ContractionTree::take_released_ids), so the cost is O(|ids|), not
  // O(index). Neither GC form writes tombstones; both then run the
  // durable tier's segment cleaner (DurableTier::clean).
  std::size_t erase_released(std::span<const NodeId> ids);

  // Garbage collection, full-sweep form: frees every entry not in `live`
  // and returns how many it freed. O(index): it serves the one-time sweep
  // of a session's first GC (e.g. after a restore), composite runtimes
  // that GC from live sets, and cross-checks against erase_released.
  std::size_t retain_only(const std::unordered_set<NodeId>& live);

  // Drops in-memory copies homed on failed machines (called after failure
  // injection); persistent replicas on live machines keep serving.
  void drop_memory_on_failed();

  // --- real on-disk durability (src/durability, paper §6 made real) ----
  //
  // Without a durable tier the "persistent" copies above are simulated
  // (the put's table held in process memory, whose buffer is its
  // serialized form; costs charged by the model).
  // Attaching a DurableTier additionally mirrors every new entry into its
  // replicated segment logs, so a *process* restart can rebuild the store
  // with restore_from_durable(). Attach before the first put; entries
  // written earlier stay simulation-only. The tier is not owned.
  void attach_durable_tier(durability::DurableTier* tier) { durable_ = tier; }
  durability::DurableTier* durable_tier() const { return durable_; }

  // Rebuilds the index from the attached tier's logs (replica merge, torn
  // tails repaired). Entries keep their original write sequence numbers;
  // the memory tier starts cold and repopulates on reads. Returns the
  // number of entries installed (pre-existing ids are left untouched).
  // `recovery` (optional) receives the underlying scan/merge statistics,
  // including wall-clock recovery time.
  std::size_t restore_from_durable(
      durability::RecoveryStats* recovery = nullptr);

  // Uncharged, side-effect-free read used by checkpoint resolution: no
  // cost accounting, no LRU touch, no memory-tier install. Serves the
  // memory copy, else the persistent one if it passes its checksum.
  std::shared_ptr<const KVTable> peek(NodeId id) const;

  // True when `id` is currently backed by the durable log (i.e. a
  // checkpoint may reference it instead of inlining the payload).
  bool persisted_durably(NodeId id) const;

  // Flushes the attached tier's logs (no-op without one). If the store is
  // in degraded durable mode this first forces a drain attempt: failed
  // replica logs are reopened and the buffered writes are replayed in
  // order.
  void flush_durable();

  // DurableTier::sync under the durable mutex (no-op without a tier). A
  // checkpoint calls it before publishing a manifest that names nodes by
  // reference, so those records survive whatever the manifest survives.
  void sync_durable();

  // Degraded durable mode (§6 fault tolerance, made continuous): when a
  // durable-tier append is rejected by every replica (write error / fault
  // injection), the store does NOT abort or silently lose durability
  // intent. It buffers the write, flips the "durability.degraded" gauge,
  // and retries with exponential backoff (counted in subsequent durable
  // appends) — draining the buffer in order once the tier accepts writes
  // again. Entries whose writes are still buffered report
  // persisted_durably() == false, so checkpoints inline their payloads and
  // correctness never depends on the degraded buffer surviving.
  bool durable_degraded() const {
    return durable_degraded_.load(std::memory_order_relaxed);
  }
  std::size_t degraded_backlog() const;

  // --- online integrity scrubbing (durability/scrubber.h) ---------------
  //
  // Drives one budgeted scrub slice over the attached durable tier. The
  // scrubber shares segment files with appends, cleaning, and the
  // degraded drain, so the slice runs under the durable mutex. No-op
  // without a tier or with a zero budget (the disarmed case costs one
  // branch). Returns the slice's delta; lifetime totals via scrub_stats().
  durability::ScrubStats scrub_durable(std::uint64_t record_budget);
  durability::ScrubStats scrub_stats() const;

  // Test hooks simulating silent corruption, both leaving the stored
  // checksum stale: replace the persistent copy with one that has a bit
  // flipped / swap the in-memory copy for an arbitrary (wrong) table. Each
  // replaces only its own tier's pointer, so the hooks stay independent
  // even though a put stores one table in both tiers. Return false when
  // the entry (or the targeted copy) does not exist.
  bool debug_corrupt_persistent(NodeId id);
  bool debug_swap_memory(NodeId id, std::shared_ptr<const KVTable> table);

  // Test hook: entries in `tenant`'s write-order index (0 = untenanted).
  // Always equals tenant_usage(tenant).entries once concurrent writers
  // are quiescent.
  std::size_t debug_tenant_index_size(std::uint64_t tenant) const;

  // Opportunistic recovery probe, called at slide boundaries (and safe
  // from any cold path): when degraded, attempts a drain immediately,
  // ignoring the write-driven backoff countdown. Without this, a store
  // whose fault window healed but which receives no further durable
  // writes would stay degraded forever — /healthz would keep reporting
  // "degraded" with an empty fault. No-op when healthy; returns true when
  // the probe left the store healthy.
  bool poll_durable_recovery();

  // Snapshot of the internal counters (value, not reference: counters are
  // atomics updated by concurrent writers).
  MemoStoreStats stats() const;
  void reset_stats();

 private:
  static constexpr std::size_t kShards = 16;  // power of two

  // A put stores one table in both tiers: the table's buffer is its
  // serialized form (data/record.h), so the simulated replicas share the
  // memory copy's table.
  struct Entry {
    std::shared_ptr<const KVTable> memory;  // null if evicted / lost
    // The simulated replicas' copy; never null for an indexed entry.
    std::shared_ptr<const KVTable> persistent;
    MachineId home = 0;
    MachineId replica_homes[kReplicas] = {0, 0};
    std::uint64_t bytes = 0;  // bytes().size() of the table
    // crc32c of the table's bytes at write time. Every read checks the
    // copy it serves against it, memory hits included, so silent
    // corruption of either copy degrades to a miss.
    std::uint32_t payload_crc = 0;
    std::uint64_t tenant = 0;     // owner salt (0 = untenanted)
    std::uint64_t write_seq = 0;  // insertion order (whole-entry victims)
    std::uint64_t touch_seq = 0;  // global recency stamp (memory LRU)
    bool durable = false;  // mirrored into the attached DurableTier's logs
    std::list<NodeId>::iterator lru_position;  // valid iff memory != null
  };

  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<NodeId, Entry> index;
    // Front = most recently used *within this shard*; the per-entry
    // touch_seq stamps order tails across shards for global LRU eviction.
    std::list<NodeId> lru;
    // Ids whole-entry-dropped by the budget or a tenant quota policy, kept
    // so a later miss on them is classified as eviction-forced. Bounded:
    // when it overflows kEvictedSetCap the set is cleared (subsequent
    // misses on the forgotten ids degrade to plain misses — an
    // undercount, never an overcount). A re-put removes the id (the entry
    // is whole again). GC drops (retain_only) deliberately do NOT register
    // here: work the window no longer needs is not an eviction casualty.
    std::unordered_set<NodeId> evicted;
  };
  static constexpr std::size_t kEvictedSetCap = 1 << 16;

  static std::size_t shard_index(NodeId id) {
    // Node ids are already hash outputs; fold the high bits anyway so
    // shard choice is not the id's low bits alone.
    return static_cast<std::size_t>((id ^ (id >> 17)) & (kShards - 1));
  }
  Shard& shard_of(NodeId id) { return shards_[shard_index(id)]; }
  const Shard& shard_of(NodeId id) const { return shards_[shard_index(id)]; }

  // All three require the entry's shard mutex held.
  void install_memory(Shard& shard, NodeId id, Entry& entry,
                      std::shared_ptr<const KVTable> table);
  void drop_memory(Shard& shard, Entry& entry);
  void touch(Shard& shard, Entry& entry);

  // Removes the entry at `it` from its shard (memory copy, byte and entry
  // counts, owner accounting) and returns the next iterator. Requires the
  // shard mutex held.
  std::unordered_map<NodeId, Entry>::iterator remove_locked(
      Shard& shard, std::unordered_map<NodeId, Entry>::iterator it);

  // --- per-owner accounting --------------------------------------------
  // One cell per tenant salt ever seen, plus the untenanted cell (salt 0,
  // a member). Pointers are stable (unique_ptr values) so hot paths update
  // the atomics without tenant_mutex_ after the find-or-create lookup.
  struct TenantCell {
    std::atomic<std::uint64_t> bytes{0};
    std::atomic<std::uint64_t> entries{0};
    std::atomic<std::uint64_t> quota_evictions{0};
    std::atomic<std::uint64_t> quota_bytes{0};    // 0 = unbounded
    std::atomic<std::uint64_t> quota_entries{0};  // 0 = unbounded
    // The owner's entries as (write_seq, id), oldest first: the
    // whole-entry policies' victim order. Updated with the counters above,
    // under the entry's shard mutex; lock order is shard mutex, then
    // order_mutex.
    std::mutex order_mutex;
    std::set<std::pair<std::uint64_t, NodeId>> order;
  };
  // The owner's cell: the untenanted member for 0 (no lock taken), else
  // found or created under tenant_mutex_.
  TenantCell& tenant_cell(std::uint64_t tenant) const;
  // Attribute / release `entry` (stored under `id`) to its owner's cell:
  // counters and write-order index. Every path that installs or removes
  // an index entry goes through these. Require the entry's shard mutex
  // held.
  void account_insert(NodeId id, const Entry& entry);
  void account_erase(NodeId id, const Entry& entry);
  // The owner's oldest-written entry not in `pinned`, as (write_seq, id).
  static std::optional<std::pair<std::uint64_t, NodeId>> oldest_unpinned(
      TenantCell& cell, const std::unordered_set<NodeId>* pinned);
  std::shared_ptr<const std::unordered_set<NodeId>> pinned_snapshot() const;

  // Eviction policies. Must be called WITHOUT any shard mutex held; they
  // serialize on evict_mutex_ and lock shards one at a time.
  void evict_to_capacity();
  void enforce_entry_budget();
  void enforce_tenant_quota(std::uint64_t tenant);
  // The one whole-entry eviction loop, shared by the entry budget
  // (`quota` null: victims across every owner) and a tenant quota
  // (victims from `quota`'s cell only). While `over()` holds, it removes
  // the oldest unpinned entry, remembers it as eviction-forced and counts
  // it; durable victims are tombstoned after the locks are released.
  void evict_whole_entries(TenantCell* quota,
                           const std::function<bool()>& over);

  // Pushes the authoritative entry/byte counts into the stats gauges
  // ("memo.entries"/"memo.bytes"/"memo.memory_bytes"). Called after every
  // mutation so the gauges can never go stale.
  void refresh_gauges() const;

  const Cluster* cluster_;
  const CostModel* cost_;
  std::atomic<bool> memory_enabled_{true};
  std::array<Shard, kShards> shards_;
  std::atomic<std::uint64_t> total_bytes_{0};
  std::atomic<std::uint64_t> memory_bytes_{0};
  std::atomic<std::size_t> entry_count_{0};
  std::atomic<std::uint64_t> memory_capacity_bytes_{0};  // 0 = unbounded
  std::atomic<std::size_t> entry_budget_{0};             // 0 = unbounded
  std::atomic<std::uint64_t> next_write_seq_{0};
  std::atomic<std::uint64_t> next_touch_seq_{0};
  std::mutex evict_mutex_;  // serializes the eviction policies
  durability::DurableTier* durable_ = nullptr;  // optional; not owned
  // Created lazily by the first armed scrub_durable(); guarded by
  // durable_mutex_ like all other durable-tier I/O.
  std::unique_ptr<durability::IntegrityScrubber> scrubber_;

  mutable TenantCell untenanted_;    // owner of tenant-0 entries
  mutable std::mutex tenant_mutex_;  // guards the map shape, not the cells
  mutable std::unordered_map<std::uint64_t, std::unique_ptr<TenantCell>>
      tenants_;
  mutable std::mutex pinned_mutex_;
  std::shared_ptr<const std::unordered_set<NodeId>> pinned_;

  // --- degraded durable mode --------------------------------------------
  // All durable-tier I/O (put/tombstone/recover/clean/flush) serializes
  // on durable_mutex_: SegmentLog is not thread-safe and puts arrive from
  // parallel partition workers. Lock order: durable_mutex_ may take shard
  // mutexes (to set the durable flag after a drain); no path takes a shard
  // mutex and then durable_mutex_.
  // A buffered durable write; a null table is a tombstone.
  struct PendingDurableWrite {
    NodeId id = 0;
    std::uint64_t seq = 0;
    std::shared_ptr<const KVTable> table;
  };
  // The log half of both GC forms: cleans the durable tier down to the
  // store's live bytes, a put being live iff the index holds its id at its
  // seq. Takes durable_mutex_, then each record's shard mutex.
  void clean_durable();
  // Appends `table`'s bytes (a tombstone when null) via the durable tier,
  // entering/continuing degraded mode on rejection. Returns true iff the
  // record reached at least one replica log now (callers then mark the
  // entry durable).
  bool durable_append(NodeId id, std::uint64_t seq,
                      std::shared_ptr<const KVTable> table);
  // Writes one buffered or new record to the tier; returns the replicas
  // that accepted it. Requires durable_mutex_ held.
  std::size_t append_locked(const PendingDurableWrite& write);
  // Attempts to reopen failed replica logs and replay the buffer in order.
  // Requires durable_mutex_ held.
  void drain_degraded_locked();

  mutable std::mutex durable_mutex_;
  std::deque<PendingDurableWrite> degraded_pending_;
  std::uint64_t degraded_retry_countdown_ = 0;  // appends until next drain try
  std::uint64_t degraded_backoff_ = 1;          // next countdown, doubles to cap
  std::atomic<bool> durable_degraded_{false};

  struct AtomicStats {
    std::atomic<std::uint64_t> reads_memory{0};
    std::atomic<std::uint64_t> reads_disk{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> memory_evictions{0};
    std::atomic<std::uint64_t> budget_evictions{0};
    std::atomic<std::uint64_t> quota_evictions{0};
    std::atomic<std::uint64_t> eviction_forced_misses{0};
    std::atomic<std::uint64_t> persistent_writes{0};
    std::atomic<std::uint64_t> bytes_persisted{0};
    std::atomic<std::uint64_t> recovered_entries{0};
    std::atomic<std::uint64_t> failure_forced_misses{0};
    std::atomic<std::uint64_t> checksum_forced_misses{0};
    std::atomic<std::uint64_t> degraded_writes_buffered{0};
    std::atomic<std::uint64_t> degraded_intervals{0};
    std::atomic<std::uint64_t> gc_examined{0};
    std::atomic<double> read_time{0};
    std::atomic<double> write_time{0};
  };
  mutable AtomicStats stats_;
};

}  // namespace slider
