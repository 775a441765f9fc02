#include "storage/memo_store.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/crc32c.h"
#include "common/logging.h"
#include "data/serde.h"
#include "durability/durable_tier.h"
#include "durability/scrubber.h"
#include "observability/flight_recorder.h"
#include "observability/stats.h"
#include "observability/trace.h"

namespace slider {

// The cost model bills one persistent copy per durable replica log.
static_assert(MemoStore::kReplicas == durability::kDurableReplicas,
              "memo replicas and durable replica logs must agree");

namespace {

// Process-wide typed instruments for the memoization layer (Table 2's
// quantities). Looked up once; the registry owns the instruments.
struct MemoInstruments {
  obs::Counter& hits_memory;
  obs::Counter& hits_disk;
  obs::Counter& misses;
  obs::Counter& evictions_memory;
  obs::Counter& evictions_budget;
  obs::Counter& evictions_quota;
  obs::Counter& eviction_forced_misses;
  obs::Counter& failure_forced_misses;
  obs::Counter& checksum_failures;
  obs::Counter& replica_writes;
  // Entries restore_from_durable() installed, and their payload bytes.
  obs::Counter& restored_entries;
  obs::Counter& restored_bytes;
  // Times every durable replica rejected a write and the store entered
  // degraded mode.
  obs::Counter& degraded_intervals;
  obs::Gauge& entries;
  obs::Gauge& bytes;
  obs::Gauge& memory_bytes;
  // 1 while the durable tier is erroring and writes are being buffered.
  obs::Gauge& durable_degraded;
  obs::Gauge& degraded_backlog;
};

MemoInstruments& memo_instruments() {
  static MemoInstruments* instruments = [] {
    obs::StatsRegistry& stats = obs::StatsRegistry::global();
    return new MemoInstruments{
        stats.counter("memo.hits_memory"),
        stats.counter("memo.hits_disk"),
        stats.counter("memo.misses"),
        stats.counter("memo.evictions_memory"),
        stats.counter("memo.evictions_budget"),
        stats.counter("memo.evictions_quota"),
        stats.counter("memo.eviction_forced_misses"),
        stats.counter("memo.failure_forced_misses"),
        stats.counter("memo.checksum_failures"),
        stats.counter("memo.replica_writes"),
        stats.counter("memo.restored_entries"),
        stats.counter("memo.restored_bytes"),
        stats.counter("durability.degraded_intervals"),
        stats.gauge("memo.entries"),
        stats.gauge("memo.bytes"),
        stats.gauge("memo.memory_bytes"),
        stats.gauge("durability.degraded"),
        stats.gauge("durability.degraded_backlog"),
    };
  }();
  return *instruments;
}

// std::atomic<double>::fetch_add is C++20 but not universally lock-free;
// a CAS loop keeps us portable (same pattern as obs::Gauge::add).
void atomic_add(std::atomic<double>& target, double delta) {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace

MemoStore::MemoStore(const Cluster& cluster, const CostModel& cost)
    : cluster_(&cluster), cost_(&cost) {}

MemoStore::~MemoStore() = default;

void MemoStore::refresh_gauges() const {
  // Single source of truth for the gauge values: the atomic counters.
  // Every mutation path funnels through here, so the gauges can never go
  // stale the way the old put()/retain_only()-only updates could after
  // erase(), evict_to_capacity(), or enforce_entry_budget().
  const auto entries = static_cast<double>(size());
  const auto bytes = static_cast<double>(total_bytes());
  const auto mem_bytes = static_cast<double>(memory_bytes());
  MemoInstruments& instruments = memo_instruments();
  instruments.entries.set(entries);
  instruments.bytes.set(bytes);
  instruments.memory_bytes.set(mem_bytes);
  SLIDER_TRACE_COUNTER("memo", "memo.entries", entries);
  SLIDER_TRACE_COUNTER("memo", "memo.bytes", bytes);
  SLIDER_TRACE_COUNTER("memo", "memo.memory_bytes", mem_bytes);
}

void MemoStore::install_memory(Shard& shard, NodeId id, Entry& entry,
                               std::shared_ptr<const KVTable> table) {
  if (!memory_cache_enabled() || entry.memory != nullptr) return;
  entry.memory = std::move(table);
  shard.lru.push_front(id);
  entry.lru_position = shard.lru.begin();
  entry.touch_seq = next_touch_seq_.fetch_add(1, std::memory_order_relaxed);
  memory_bytes_.fetch_add(entry.bytes, std::memory_order_relaxed);
}

void MemoStore::drop_memory(Shard& shard, Entry& entry) {
  if (entry.memory == nullptr) return;
  entry.memory = nullptr;
  shard.lru.erase(entry.lru_position);
  memory_bytes_.fetch_sub(entry.bytes, std::memory_order_relaxed);
}

void MemoStore::touch(Shard& shard, Entry& entry) {
  if (entry.memory == nullptr) return;
  shard.lru.splice(shard.lru.begin(), shard.lru, entry.lru_position);
  entry.lru_position = shard.lru.begin();
  entry.touch_seq = next_touch_seq_.fetch_add(1, std::memory_order_relaxed);
}

std::unordered_map<NodeId, MemoStore::Entry>::iterator MemoStore::remove_locked(
    Shard& shard, std::unordered_map<NodeId, Entry>::iterator it) {
  drop_memory(shard, it->second);
  total_bytes_.fetch_sub(it->second.bytes, std::memory_order_relaxed);
  account_erase(it->first, it->second);
  entry_count_.fetch_sub(1, std::memory_order_relaxed);
  return shard.index.erase(it);
}

void MemoStore::evict_to_capacity() {
  const std::uint64_t capacity =
      memory_capacity_bytes_.load(std::memory_order_relaxed);
  if (capacity == 0) return;
  // Serialize evictors; shard mutexes are taken one at a time below, so
  // this never deadlocks with the single-shard public operations.
  std::lock_guard<std::mutex> evict_lock(evict_mutex_);
  while (memory_bytes_.load(std::memory_order_relaxed) > capacity) {
    // Plain LRU: the victim is the least recent of the per-shard LRU
    // tails, O(shards) per victim. Exact when writers are quiescent (the
    // single-threaded policy tests); LRU up to in-flight touches
    // otherwise. No owner preference is needed: put() runs the
    // whole-entry policies first, so a tenant is over its byte quota here
    // only transiently or when only pinned ids remain.
    NodeId victim = 0;
    std::size_t victim_shard = kShards;
    std::uint64_t victim_seq = 0;
    for (std::size_t s = 0; s < kShards; ++s) {
      std::lock_guard<std::mutex> lock(shards_[s].mutex);
      if (shards_[s].lru.empty()) continue;
      const NodeId tail = shards_[s].lru.back();
      const auto it = shards_[s].index.find(tail);
      SLIDER_CHECK(it != shards_[s].index.end()) << "LRU entry not in index";
      if (victim_shard == kShards || it->second.touch_seq < victim_seq) {
        victim = tail;
        victim_shard = s;
        victim_seq = it->second.touch_seq;
      }
    }
    if (victim_shard == kShards) break;  // nothing memory-resident

    Shard& shard = shards_[victim_shard];
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.index.find(victim);
    if (it == shard.index.end() || it->second.memory == nullptr) continue;
    drop_memory(shard, it->second);
    stats_.memory_evictions.fetch_add(1, std::memory_order_relaxed);
    [[maybe_unused]] const double evicted =
        static_cast<double>(memo_instruments().evictions_memory.add());
    SLIDER_TRACE_COUNTER("memo", "memo.evictions_memory", evicted);
  }
  refresh_gauges();
}

void MemoStore::enforce_entry_budget() {
  const std::size_t budget = entry_budget_.load(std::memory_order_relaxed);
  if (budget == 0 || size() <= budget) return;
  evict_whole_entries(nullptr, [&] { return size() > budget; });
}

void MemoStore::enforce_tenant_quota(std::uint64_t tenant) {
  if (tenant == 0) return;
  TenantCell& cell = tenant_cell(tenant);
  const std::uint64_t quota_bytes =
      cell.quota_bytes.load(std::memory_order_relaxed);
  const std::uint64_t quota_entries =
      cell.quota_entries.load(std::memory_order_relaxed);
  if (quota_bytes == 0 && quota_entries == 0) return;
  const auto over = [&] {
    return (quota_bytes != 0 &&
            cell.bytes.load(std::memory_order_relaxed) > quota_bytes) ||
           (quota_entries != 0 &&
            cell.entries.load(std::memory_order_relaxed) > quota_entries);
  };
  if (!over()) return;
  // Only the over-quota tenant's own entries go; its neighbours' are
  // untouched.
  evict_whole_entries(&cell, over);
}

void MemoStore::evict_whole_entries(TenantCell* quota,
                                    const std::function<bool()>& over) {
  const auto pinned = pinned_snapshot();
  std::atomic<std::uint64_t>& evictions =
      quota != nullptr ? stats_.quota_evictions : stats_.budget_evictions;
  obs::Counter& counter = quota != nullptr
                              ? memo_instruments().evictions_quota
                              : memo_instruments().evictions_budget;
  [[maybe_unused]] const char* counter_name =
      quota != nullptr ? "memo.evictions_quota" : "memo.evictions_budget";
  std::vector<NodeId> durable_victims;
  {
    std::lock_guard<std::mutex> evict_lock(evict_mutex_);
    std::vector<TenantCell*> owners;
    if (quota != nullptr) {
      owners.push_back(quota);
    } else {
      owners.push_back(&untenanted_);
      std::lock_guard<std::mutex> lock(tenant_mutex_);
      for (const auto& [salt, cell] : tenants_) owners.push_back(cell.get());
    }
    while (over()) {
      // Every entry sits in exactly one owner's write-order index, so the
      // oldest unpinned head across the owners is the oldest unpinned
      // entry: O(owners) per victim, plus one step per pinned entry passed
      // over. Each order mutex is taken alone, with no shard mutex held.
      std::optional<std::pair<std::uint64_t, NodeId>> victim;
      for (TenantCell* cell : owners) {
        const auto head = oldest_unpinned(*cell, pinned.get());
        if (head.has_value() &&
            (!victim.has_value() || head->first < victim->first)) {
          victim = head;
        }
      }
      if (!victim.has_value()) break;  // empty, or only pinned ids remain

      // An entry erased since the pick has also left its owner's index,
      // so the next pick moves on.
      const NodeId id = victim->second;
      Shard& shard = shard_of(id);
      std::lock_guard<std::mutex> lock(shard.mutex);
      const auto it = shard.index.find(id);
      if (it == shard.index.end()) continue;
      if (it->second.durable) durable_victims.push_back(id);
      remove_locked(shard, it);
      // Remember the id so a later miss on it is classified as
      // eviction-forced (bounded set; see Shard::evicted).
      if (shard.evicted.size() >= kEvictedSetCap) shard.evicted.clear();
      shard.evicted.insert(id);
      if (quota != nullptr) {
        quota->quota_evictions.fetch_add(1, std::memory_order_relaxed);
      }
      evictions.fetch_add(1, std::memory_order_relaxed);
      [[maybe_unused]] const double evicted =
          static_cast<double>(counter.add());
      SLIDER_TRACE_COUNTER("memo", counter_name, evicted);
    }
  }
  if (durable_ != nullptr) {
    // Whole-entry eviction is a deliberate forget: tombstone the victims
    // so a restart does not resurrect entries a policy discarded.
    for (const NodeId id : durable_victims) {
      durable_append(id, next_write_seq_.fetch_add(1, std::memory_order_relaxed),
                     nullptr);
    }
  }
  refresh_gauges();
}

MemoStore::TenantCell& MemoStore::tenant_cell(std::uint64_t tenant) const {
  if (tenant == 0) return untenanted_;
  std::lock_guard<std::mutex> lock(tenant_mutex_);
  auto& cell = tenants_[tenant];
  if (cell == nullptr) cell = std::make_unique<TenantCell>();
  return *cell;
}

void MemoStore::account_insert(NodeId id, const Entry& entry) {
  TenantCell& cell = tenant_cell(entry.tenant);
  cell.bytes.fetch_add(entry.bytes, std::memory_order_relaxed);
  cell.entries.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(cell.order_mutex);
  cell.order.emplace(entry.write_seq, id);
}

void MemoStore::account_erase(NodeId id, const Entry& entry) {
  TenantCell& cell = tenant_cell(entry.tenant);
  cell.bytes.fetch_sub(entry.bytes, std::memory_order_relaxed);
  cell.entries.fetch_sub(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(cell.order_mutex);
  cell.order.erase(std::pair(entry.write_seq, id));
}

std::optional<std::pair<std::uint64_t, NodeId>> MemoStore::oldest_unpinned(
    TenantCell& cell, const std::unordered_set<NodeId>* pinned) {
  std::lock_guard<std::mutex> lock(cell.order_mutex);
  for (const auto& [seq, id] : cell.order) {
    if (pinned == nullptr || pinned->count(id) == 0) return std::pair(seq, id);
  }
  return std::nullopt;
}

std::size_t MemoStore::debug_tenant_index_size(std::uint64_t tenant) const {
  TenantCell& cell = tenant_cell(tenant);
  std::lock_guard<std::mutex> lock(cell.order_mutex);
  return cell.order.size();
}

std::shared_ptr<const std::unordered_set<NodeId>> MemoStore::pinned_snapshot()
    const {
  std::lock_guard<std::mutex> lock(pinned_mutex_);
  return pinned_;
}

void MemoStore::set_pinned_ids(
    std::shared_ptr<const std::unordered_set<NodeId>> pinned) {
  std::lock_guard<std::mutex> lock(pinned_mutex_);
  pinned_ = std::move(pinned);
}

void MemoStore::set_tenant_quota(std::uint64_t tenant, TenantQuota quota) {
  if (tenant == 0) return;
  TenantCell& cell = tenant_cell(tenant);
  cell.quota_bytes.store(quota.max_bytes, std::memory_order_relaxed);
  cell.quota_entries.store(quota.max_entries, std::memory_order_relaxed);
  enforce_tenant_quota(tenant);
}

TenantUsage MemoStore::tenant_usage(std::uint64_t tenant) const {
  TenantUsage usage;
  usage.tenant = tenant;
  const TenantCell& cell = tenant_cell(tenant);
  usage.bytes = cell.bytes.load(std::memory_order_relaxed);
  usage.entries = cell.entries.load(std::memory_order_relaxed);
  usage.quota_evictions = cell.quota_evictions.load(std::memory_order_relaxed);
  usage.quota_max_bytes = cell.quota_bytes.load(std::memory_order_relaxed);
  usage.quota_max_entries = cell.quota_entries.load(std::memory_order_relaxed);
  return usage;
}

std::vector<TenantUsage> MemoStore::tenant_usage_snapshot() const {
  std::vector<std::uint64_t> salts;
  {
    std::lock_guard<std::mutex> lock(tenant_mutex_);
    salts.reserve(tenants_.size());
    for (const auto& [salt, cell] : tenants_) salts.push_back(salt);
  }
  std::sort(salts.begin(), salts.end());
  std::vector<TenantUsage> usages;
  usages.reserve(salts.size());
  for (const std::uint64_t salt : salts) usages.push_back(tenant_usage(salt));
  return usages;
}

void MemoStore::set_memory_capacity_bytes(std::uint64_t capacity) {
  memory_capacity_bytes_.store(capacity, std::memory_order_relaxed);
  evict_to_capacity();
}

void MemoStore::set_entry_budget(std::size_t budget) {
  entry_budget_.store(budget, std::memory_order_relaxed);
  enforce_entry_budget();
}

bool MemoStore::contains(NodeId id) const {
  const Shard& shard = shard_of(id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  return shard.index.count(id) != 0;
}

MemoWriteResult MemoStore::put(NodeId id, std::shared_ptr<const KVTable> table,
                               std::uint64_t tenant) {
  SLIDER_CHECK(table != nullptr) << "memoizing a null table";
  SLIDER_TRACE_SPAN("memo", "memo.write");
  MemoWriteResult result;
  bool installed_memory = false;
  std::shared_ptr<const KVTable> durable_table;
  std::uint64_t durable_seq = 0;
  {
    Shard& shard = shard_of(id);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto [it, inserted] = shard.index.try_emplace(id);
    Entry& entry = it->second;
    if (!inserted) {
      if (entry.tenant == 0 && tenant != 0) {
        // Adoption: the entry predates tenant attribution (recovered from
        // the durable log, or written untenanted); the first tenanted
        // re-put moves it from the untenanted cell to the writer's, at
        // its original age.
        account_erase(id, entry);
        entry.tenant = tenant;
        account_insert(id, entry);
      }
      // Content-addressed: a re-put of the same id pays no persistent
      // write. It refreshes the memory tier on the entry's home machine:
      //   * home failed — the stale in-memory copy (if any) is unusable
      //     and must stop counting against memory_bytes_;
      //   * already resident — the node was just recomputed, i.e. it is
      //     hot: refresh its LRU recency so it is not evicted first;
      //   * not resident — re-install the copy (e.g. after a failure).
      if (cluster_->machine(entry.home).failed) {
        drop_memory(shard, entry);
      } else if (entry.memory != nullptr) {
        touch(shard, entry);
      } else if (memory_cache_enabled()) {
        install_memory(shard, id, entry, std::move(table));
        result.cost = cost_->mem_read(entry.bytes);  // repopulate cache
        installed_memory = true;
      }
    } else {
      shard.evicted.erase(id);  // re-memoized: no longer an eviction hole
      entry.persistent = table;
      entry.payload_crc = crc32c(table->bytes());
      entry.bytes = table->bytes().size();
      entry.tenant = tenant;
      entry.home = home_of(id);
      entry.write_seq = next_write_seq_.fetch_add(1, std::memory_order_relaxed);
      account_insert(id, entry);
      for (int r = 0; r < kReplicas; ++r) {
        entry.replica_homes[r] = static_cast<MachineId>(
            (entry.home + 1 + r) % cluster_->num_machines());
      }
      install_memory(shard, id, entry, std::move(table));
      installed_memory = true;
      total_bytes_.fetch_add(entry.bytes, std::memory_order_relaxed);
      entry_count_.fetch_add(1, std::memory_order_relaxed);

      // One memory install + a pipelined replica chain (HDFS-style): the
      // writer streams the bytes once over the network and the replicas
      // write to disk in parallel, so the charged critical path is one
      // disk write plus one network transfer, not kReplicas of each.
      result.bytes_written = entry.bytes;
      result.cost = estimate_write_cost(entry.bytes);
      atomic_add(stats_.write_time, result.cost);
      memo_instruments().replica_writes.add(kReplicas);

      if (durable_ != nullptr) {
        // The file I/O happens after the shard mutex is released (locking
        // discipline: durable I/O never runs under a shard lock).
        durable_table = entry.persistent;
        durable_seq = entry.write_seq;
      }
    }
  }
  if (durable_table != nullptr) {
    if (durable_append(id, durable_seq, std::move(durable_table))) {
      Shard& shard = shard_of(id);
      std::lock_guard<std::mutex> lock(shard.mutex);
      const auto it = shard.index.find(id);
      if (it != shard.index.end()) it->second.durable = true;
    }
  }
  // Policies run without the shard mutex held (locking discipline). The
  // whole-entry policies run first, so the memory tier's LRU never has to
  // choose between owners.
  enforce_entry_budget();
  if (tenant != 0) enforce_tenant_quota(tenant);
  if (installed_memory) evict_to_capacity();
  refresh_gauges();
  return result;
}

MemoReadResult MemoStore::get(NodeId id, MachineId reader) {
  SLIDER_TRACE_SPAN("memo", "memo.read");
  MemoReadResult result;
  bool installed_memory = false;
  {
    Shard& shard = shard_of(id);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.index.find(id);
    if (it == shard.index.end()) {
      stats_.misses.fetch_add(1, std::memory_order_relaxed);
      if (shard.evicted.count(id) != 0) {
        // The budget or a tenant's quota policy dropped this entry whole;
        // the recompute this miss forces is eviction-induced, not
        // window-induced.
        stats_.eviction_forced_misses.fetch_add(1, std::memory_order_relaxed);
        memo_instruments().eviction_forced_misses.add();
      }
      [[maybe_unused]] const double misses =
          static_cast<double>(memo_instruments().misses.add());
      SLIDER_TRACE_COUNTER("memo", "memo.misses", misses);
      return result;
    }
    Entry& entry = it->second;

    const bool home_alive = !cluster_->machine(entry.home).failed;
    if (memory_cache_enabled() && entry.memory != nullptr && home_alive) {
      if (crc32c(entry.memory->bytes()) != entry.payload_crc) {
        // Silent in-memory corruption: drop the poisoned copy and fall
        // through to the persistent tier (itself verified below) — the
        // worst case is a recompute, never a wrong answer.
        drop_memory(shard, entry);
        stats_.checksum_forced_misses.fetch_add(1, std::memory_order_relaxed);
        memo_instruments().checksum_failures.add();
        obs::FlightRecorder::global().note_fault(
            "memo_checksum_mismatch",
            "memory copy of entry " + std::to_string(id));
      } else {
        result.found = true;
        result.table = entry.memory;
        if (reader == entry.home) {
          result.tier = ReadTier::kLocalMemory;
          result.cost = cost_->mem_read(entry.bytes);
        } else {
          result.tier = ReadTier::kRemoteMemory;
          result.cost =
              cost_->mem_read(entry.bytes) + cost_->net_transfer(entry.bytes);
        }
        touch(shard, entry);
        stats_.reads_memory.fetch_add(1, std::memory_order_relaxed);
        atomic_add(stats_.read_time, result.cost);
        [[maybe_unused]] const double hits =
            static_cast<double>(memo_instruments().hits_memory.add());
        SLIDER_TRACE_COUNTER("memo", "memo.hits_memory", hits);
        return result;
      }
    }

    // Fall back to the persistent tier: nearest live replica.
    MachineId source = -1;
    for (const MachineId replica : entry.replica_homes) {
      if (cluster_->machine(replica).failed) continue;
      if (replica == reader) {
        source = replica;
        break;
      }
      if (source < 0) source = replica;
    }
    if (source < 0) {
      stats_.misses.fetch_add(1, std::memory_order_relaxed);
      // All replicas down: behaves like a miss (the caller degrades to
      // recompute — never a wrong answer or an abort), but the miss is
      // failure-forced: the recompute it triggers bills to the ledger's
      // failure_reexec cause.
      result.failure_miss = true;
      stats_.failure_forced_misses.fetch_add(1, std::memory_order_relaxed);
      memo_instruments().failure_forced_misses.add();
      [[maybe_unused]] const double misses =
          static_cast<double>(memo_instruments().misses.add());
      SLIDER_TRACE_COUNTER("memo", "memo.misses", misses);
      return result;
    }

    if (crc32c(entry.persistent->bytes()) != entry.payload_crc) {
      // Corrupt persistent copy (stored checksum mismatch): degrade to a
      // failure-forced miss so the caller recomputes — §6's Δ-proportional
      // cost — instead of crashing or propagating a wrong table.
      stats_.misses.fetch_add(1, std::memory_order_relaxed);
      result.failure_miss = true;
      stats_.failure_forced_misses.fetch_add(1, std::memory_order_relaxed);
      stats_.checksum_forced_misses.fetch_add(1, std::memory_order_relaxed);
      memo_instruments().failure_forced_misses.add();
      memo_instruments().checksum_failures.add();
      obs::FlightRecorder::global().note_fault(
          "memo_checksum_mismatch",
          "persistent copy of entry " + std::to_string(id));
      [[maybe_unused]] const double misses =
          static_cast<double>(memo_instruments().misses.add());
      SLIDER_TRACE_COUNTER("memo", "memo.misses", misses);
      return result;
    }
    result.found = true;
    result.table = entry.persistent;
    result.cost = cost_->disk_read(entry.bytes);
    if (source != reader) {
      result.cost += cost_->net_transfer(entry.bytes);
      result.tier = ReadTier::kRemoteDisk;
    } else {
      result.tier = ReadTier::kLocalDisk;
    }
    stats_.reads_disk.fetch_add(1, std::memory_order_relaxed);
    atomic_add(stats_.read_time, result.cost);
    [[maybe_unused]] const double disk_hits =
        static_cast<double>(memo_instruments().hits_disk.add());
    SLIDER_TRACE_COUNTER("memo", "memo.hits_disk", disk_hits);

    // Re-populate the memory tier on the home machine if it is alive again.
    if (home_alive && memory_cache_enabled() && entry.memory == nullptr) {
      install_memory(shard, id, entry, result.table);
      installed_memory = true;
    }
  }
  if (installed_memory) {
    evict_to_capacity();
    refresh_gauges();
  }
  return result;
}

void MemoStore::erase(NodeId id) {
  bool was_durable = false;
  {
    Shard& shard = shard_of(id);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.index.find(id);
    if (it == shard.index.end()) return;
    was_durable = it->second.durable;
    remove_locked(shard, it);
  }
  if (was_durable && durable_ != nullptr) {
    durable_append(id, next_write_seq_.fetch_add(1, std::memory_order_relaxed),
                   nullptr);
  }
  refresh_gauges();
}

std::size_t MemoStore::erase_released(std::span<const NodeId> ids) {
  std::size_t collected = 0;
  for (const NodeId id : ids) {
    Shard& shard = shard_of(id);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.index.find(id);
    if (it == shard.index.end()) continue;
    remove_locked(shard, it);
    ++collected;
  }
  stats_.gc_examined.fetch_add(ids.size(), std::memory_order_relaxed);
  clean_durable();
  refresh_gauges();
  return collected;
}

std::size_t MemoStore::retain_only(const std::unordered_set<NodeId>& live) {
  std::size_t collected = 0;
  std::size_t examined = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    examined += shard.index.size();
    for (auto it = shard.index.begin(); it != shard.index.end();) {
      if (live.count(it->first) == 0) {
        it = remove_locked(shard, it);
        ++collected;
      } else {
        ++it;
      }
    }
  }
  stats_.gc_examined.fetch_add(examined, std::memory_order_relaxed);
  clean_durable();
  refresh_gauges();
  return collected;
}

void MemoStore::clean_durable() {
  if (durable_ == nullptr) return;
  // GC does not tombstone (a tombstone per collected node would flood the
  // log every slide); the cleaner drops the collected puts instead.
  // Consequence: recovery may resurrect entries the GC dropped whose
  // segments were not cleaned yet — the first GC of a session restored
  // over them sweeps them again (docs/durability.md).
  std::lock_guard<std::mutex> dlock(durable_mutex_);
  durable_->clean(total_bytes(), [this](durability::LogKey id,
                                        std::uint64_t seq) {
    const Shard& shard = shard_of(id);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.index.find(id);
    return it != shard.index.end() && it->second.write_seq == seq;
  });
}

void MemoStore::drop_memory_on_failed() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (auto& [id, entry] : shard.index) {
      if (cluster_->machine(entry.home).failed) drop_memory(shard, entry);
    }
  }
  refresh_gauges();
}

std::size_t MemoStore::restore_from_durable(
    durability::RecoveryStats* recovery) {
  if (durable_ == nullptr) return 0;
  durability::RecoveryStats recovery_stats;
  std::unordered_map<durability::LogKey, durability::RecoveredEntry> recovered;
  {
    std::lock_guard<std::mutex> dlock(durable_mutex_);
    recovered = durable_->recover(&recovery_stats);
  }
  if (recovery != nullptr) *recovery = recovery_stats;

  // Install in ascending write-seq order so iteration-order noise from the
  // recovery map never changes which entry wins a (theoretical) id clash
  // and the budget policy's age ordering survives the restart.
  std::vector<std::pair<std::uint64_t, NodeId>> order;
  order.reserve(recovered.size());
  for (const auto& [id, entry] : recovered) order.emplace_back(entry.seq, id);
  std::sort(order.begin(), order.end());

  std::size_t installed = 0;
  std::uint64_t installed_bytes = 0;
  std::uint64_t max_seq = 0;
  for (const auto& [seq, id] : order) {
    std::optional<KVTable> table =
        deserialize_table(std::move(recovered.at(id).payload));
    if (!table.has_value()) {
      // Both replicas of this record decayed (or a stale-format log):
      // recovery serves what it can and recomputation covers the rest.
      SLIDER_LOG(Warning) << "memo restore: dropping undecodable entry "
                          << id;
      continue;
    }
    max_seq = std::max(max_seq, seq);
    Shard& shard = shard_of(id);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto [it, inserted] = shard.index.try_emplace(id);
    if (!inserted) continue;  // already re-put by this process
    Entry& entry = it->second;
    entry.persistent = std::make_shared<const KVTable>(*std::move(table));
    entry.payload_crc = crc32c(entry.persistent->bytes());
    entry.bytes = entry.persistent->bytes().size();
    entry.home = home_of(id);
    for (int r = 0; r < kReplicas; ++r) {
      entry.replica_homes[r] = static_cast<MachineId>(
          (entry.home + 1 + r) % cluster_->num_machines());
    }
    entry.write_seq = seq;  // preserve pre-crash age ordering
    entry.durable = true;
    account_insert(id, entry);  // untenanted until a tenanted re-put adopts it
    // Memory tier starts cold; reads repopulate it lazily.
    total_bytes_.fetch_add(entry.bytes, std::memory_order_relaxed);
    entry_count_.fetch_add(1, std::memory_order_relaxed);
    installed_bytes += entry.bytes;
    ++installed;
  }

  // Future appends must outrank every recovered record.
  std::uint64_t expected =
      next_write_seq_.load(std::memory_order_relaxed);
  while (expected <= max_seq && !next_write_seq_.compare_exchange_weak(
                                    expected, max_seq + 1,
                                    std::memory_order_relaxed)) {
  }

  stats_.recovered_entries.fetch_add(installed, std::memory_order_relaxed);
  memo_instruments().restored_entries.add(installed);
  memo_instruments().restored_bytes.add(installed_bytes);
  refresh_gauges();
  return installed;
}

std::shared_ptr<const KVTable> MemoStore::peek(NodeId id) const {
  const Shard& shard = shard_of(id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.index.find(id);
  if (it == shard.index.end()) return nullptr;
  const Entry& entry = it->second;
  if (entry.memory != nullptr) return entry.memory;
  if (crc32c(entry.persistent->bytes()) != entry.payload_crc) return nullptr;
  return entry.persistent;
}

bool MemoStore::persisted_durably(NodeId id) const {
  if (durable_ == nullptr) return false;
  const Shard& shard = shard_of(id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.index.find(id);
  return it != shard.index.end() && it->second.durable;
}

void MemoStore::flush_durable() {
  if (durable_ == nullptr) return;
  std::lock_guard<std::mutex> dlock(durable_mutex_);
  if (durable_degraded_.load(std::memory_order_relaxed)) {
    // Forced drain attempt: reopen failed replica logs and replay the
    // buffer now, regardless of where the backoff countdown stands.
    degraded_retry_countdown_ = 0;
    drain_degraded_locked();
  }
  durable_->flush();
}

void MemoStore::sync_durable() {
  if (durable_ == nullptr) return;
  std::lock_guard<std::mutex> dlock(durable_mutex_);
  durable_->sync();
}

std::size_t MemoStore::degraded_backlog() const {
  std::lock_guard<std::mutex> dlock(durable_mutex_);
  return degraded_pending_.size();
}

bool MemoStore::poll_durable_recovery() {
  if (!durable_degraded_.load(std::memory_order_relaxed)) return true;
  if (durable_ == nullptr) return false;
  std::lock_guard<std::mutex> dlock(durable_mutex_);
  degraded_retry_countdown_ = 0;
  drain_degraded_locked();
  return !durable_degraded_.load(std::memory_order_relaxed);
}

std::size_t MemoStore::append_locked(const PendingDurableWrite& write) {
  if (write.table == nullptr) return durable_->tombstone(write.id, write.seq);
  const std::string& bytes = write.table->bytes();
  const std::size_t accepted = durable_->put(write.id, write.seq, bytes);
  if (accepted > 0) {
    stats_.persistent_writes.fetch_add(1, std::memory_order_relaxed);
    stats_.bytes_persisted.fetch_add(bytes.size(), std::memory_order_relaxed);
  }
  return accepted;
}

bool MemoStore::durable_append(NodeId id, std::uint64_t seq,
                               std::shared_ptr<const KVTable> table) {
  if (durable_ == nullptr) return false;
  std::lock_guard<std::mutex> dlock(durable_mutex_);
  PendingDurableWrite write{id, seq, std::move(table)};
  if (durable_degraded_.load(std::memory_order_relaxed)) {
    // Already degraded: preserve append order by buffering behind the
    // backlog, then maybe attempt a drain per the backoff countdown.
    degraded_pending_.push_back(std::move(write));
    stats_.degraded_writes_buffered.fetch_add(1, std::memory_order_relaxed);
    memo_instruments().degraded_backlog.set(
        static_cast<double>(degraded_pending_.size()));
    if (degraded_retry_countdown_ > 0) --degraded_retry_countdown_;
    if (degraded_retry_countdown_ == 0) drain_degraded_locked();
    // Whether the drain flushed this record or not, its durable flag is
    // managed by the drain path; report "not durable yet" here.
    return false;
  }
  if (append_locked(write) > 0) return true;
  // Every replica rejected the record: enter degraded mode. The write is
  // buffered (not lost) and will be replayed once the tier heals; until
  // then the entry stays durable=false so checkpoints inline it.
  durable_degraded_.store(true, std::memory_order_relaxed);
  degraded_backoff_ = 1;
  degraded_retry_countdown_ = 1;
  degraded_pending_.push_back(std::move(write));
  stats_.degraded_writes_buffered.fetch_add(1, std::memory_order_relaxed);
  stats_.degraded_intervals.fetch_add(1, std::memory_order_relaxed);
  memo_instruments().degraded_intervals.add();
  // Black-box note only: the recorder defers the actual dump to the next
  // slide boundary, so nothing heavy runs under durable_mutex_.
  obs::FlightRecorder::global().note_fault(
      "durable_degraded", "all durable replicas rejecting writes");
  memo_instruments().durable_degraded.set(1);
  memo_instruments().degraded_backlog.set(
      static_cast<double>(degraded_pending_.size()));
  SLIDER_LOG(Warning) << "durable tier degraded: buffering writes ("
                      << degraded_pending_.size() << " pending)";
  return false;
}

void MemoStore::drain_degraded_locked() {
  if (!durable_degraded_.load(std::memory_order_relaxed)) return;
  // Give failed replica logs a fresh segment to append into; recovery
  // already tolerates the torn tails they leave behind.
  durable_->reopen_failed();
  std::vector<NodeId> drained_puts;
  while (!degraded_pending_.empty()) {
    const PendingDurableWrite& write = degraded_pending_.front();
    if (append_locked(write) == 0) break;  // still erroring; keep the rest
    if (write.table != nullptr) drained_puts.push_back(write.id);
    degraded_pending_.pop_front();
  }
  memo_instruments().degraded_backlog.set(
      static_cast<double>(degraded_pending_.size()));
  if (degraded_pending_.empty() && !durable_->all_failed()) {
    durable_degraded_.store(false, std::memory_order_relaxed);
    degraded_backoff_ = 1;
    degraded_retry_countdown_ = 0;
    memo_instruments().durable_degraded.set(0);
    SLIDER_LOG(Info) << "durable tier recovered: degraded buffer drained";
  } else {
    // Exponential backoff, measured in subsequent durable appends (the
    // store has no wall clock of its own), capped so a long outage still
    // probes regularly.
    degraded_backoff_ = std::min<std::uint64_t>(degraded_backoff_ * 2, 64);
    degraded_retry_countdown_ = degraded_backoff_;
  }
  // Mark drained puts durable (shard mutexes taken one at a time; see the
  // lock-order note on durable_mutex_).
  for (const NodeId id : drained_puts) {
    Shard& shard = shard_of(id);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.index.find(id);
    if (it != shard.index.end()) it->second.durable = true;
  }
}

durability::ScrubStats MemoStore::scrub_durable(std::uint64_t record_budget) {
  if (durable_ == nullptr || record_budget == 0) return {};
  std::lock_guard<std::mutex> dlock(durable_mutex_);
  if (scrubber_ == nullptr) {
    scrubber_ = std::make_unique<durability::IntegrityScrubber>(*durable_);
  }
  return scrubber_->scrub_slice(record_budget);
}

durability::ScrubStats MemoStore::scrub_stats() const {
  std::lock_guard<std::mutex> dlock(durable_mutex_);
  if (scrubber_ == nullptr) return {};
  return scrubber_->stats();
}

bool MemoStore::debug_corrupt_persistent(NodeId id) {
  Shard& shard = shard_of(id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.index.find(id);
  if (it == shard.index.end()) return false;
  const KVTable& table = *it->second.persistent;
  it->second.persistent = std::make_shared<const KVTable>(
      table.debug_flip_bits(table.bytes().size() / 2, 0x10));
  return true;
}

bool MemoStore::debug_swap_memory(NodeId id,
                                  std::shared_ptr<const KVTable> table) {
  Shard& shard = shard_of(id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.index.find(id);
  if (it == shard.index.end() || it->second.memory == nullptr) return false;
  it->second.memory = std::move(table);
  return true;
}

MemoStoreStats MemoStore::stats() const {
  MemoStoreStats snapshot;
  snapshot.reads_memory = stats_.reads_memory.load(std::memory_order_relaxed);
  snapshot.reads_disk = stats_.reads_disk.load(std::memory_order_relaxed);
  snapshot.misses = stats_.misses.load(std::memory_order_relaxed);
  snapshot.memory_evictions =
      stats_.memory_evictions.load(std::memory_order_relaxed);
  snapshot.budget_evictions =
      stats_.budget_evictions.load(std::memory_order_relaxed);
  snapshot.quota_evictions =
      stats_.quota_evictions.load(std::memory_order_relaxed);
  snapshot.eviction_forced_misses =
      stats_.eviction_forced_misses.load(std::memory_order_relaxed);
  snapshot.persistent_writes =
      stats_.persistent_writes.load(std::memory_order_relaxed);
  snapshot.bytes_persisted =
      stats_.bytes_persisted.load(std::memory_order_relaxed);
  snapshot.recovered_entries =
      stats_.recovered_entries.load(std::memory_order_relaxed);
  snapshot.failure_forced_misses =
      stats_.failure_forced_misses.load(std::memory_order_relaxed);
  snapshot.checksum_forced_misses =
      stats_.checksum_forced_misses.load(std::memory_order_relaxed);
  snapshot.degraded_writes_buffered =
      stats_.degraded_writes_buffered.load(std::memory_order_relaxed);
  snapshot.degraded_intervals =
      stats_.degraded_intervals.load(std::memory_order_relaxed);
  snapshot.gc_examined = stats_.gc_examined.load(std::memory_order_relaxed);
  snapshot.read_time = stats_.read_time.load(std::memory_order_relaxed);
  snapshot.write_time = stats_.write_time.load(std::memory_order_relaxed);
  return snapshot;
}

void MemoStore::reset_stats() {
  stats_.reads_memory.store(0, std::memory_order_relaxed);
  stats_.reads_disk.store(0, std::memory_order_relaxed);
  stats_.misses.store(0, std::memory_order_relaxed);
  stats_.memory_evictions.store(0, std::memory_order_relaxed);
  stats_.budget_evictions.store(0, std::memory_order_relaxed);
  stats_.quota_evictions.store(0, std::memory_order_relaxed);
  stats_.eviction_forced_misses.store(0, std::memory_order_relaxed);
  stats_.persistent_writes.store(0, std::memory_order_relaxed);
  stats_.bytes_persisted.store(0, std::memory_order_relaxed);
  stats_.recovered_entries.store(0, std::memory_order_relaxed);
  stats_.failure_forced_misses.store(0, std::memory_order_relaxed);
  stats_.checksum_forced_misses.store(0, std::memory_order_relaxed);
  stats_.degraded_writes_buffered.store(0, std::memory_order_relaxed);
  stats_.degraded_intervals.store(0, std::memory_order_relaxed);
  stats_.gc_examined.store(0, std::memory_order_relaxed);
  stats_.read_time.store(0, std::memory_order_relaxed);
  stats_.write_time.store(0, std::memory_order_relaxed);
}

}  // namespace slider
