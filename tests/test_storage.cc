// Unit tests for the storage layer: input store locality, memoization
// tiers, replication-backed failure handling, garbage collection, and the
// order in which per-tenant quotas pick their victims.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <deque>
#include <filesystem>
#include <map>
#include <string>
#include <system_error>
#include <thread>
#include <unordered_set>

#include "common/rng.h"
#include "data/serde.h"
#include "durability/durable_tier.h"
#include "durability/fault_injector.h"
#include "storage/input_store.h"
#include "storage/memo_store.h"
#include "tests/test_util.h"

namespace slider {
namespace {

using testing::sum_combiner;

struct StorageHarness {
  StorageHarness()
      : cluster(ClusterConfig{.num_machines = 4, .slots_per_machine = 2}),
        memo(cluster, cost) {}

  CostModel cost{};
  Cluster cluster;
  MemoStore memo;
};

std::shared_ptr<const KVTable> table_of(std::initializer_list<Record> rows) {
  return std::make_shared<const KVTable>(
      KVTable::from_records(rows, sum_combiner()));
}

TEST(InputStore, AddGetRemove) {
  Cluster cluster(ClusterConfig{.num_machines = 3, .slots_per_machine = 1});
  InputStore store(cluster);
  store.add(make_split(7, {{"k", "v"}}));
  EXPECT_TRUE(store.contains(7));
  ASSERT_TRUE(store.get(7).has_value());
  EXPECT_EQ((*store.get(7))->records[0].key, "k");
  EXPECT_EQ(store.home_of(7), cluster.place(7));
  store.remove(7);
  EXPECT_FALSE(store.contains(7));
  EXPECT_FALSE(store.get(7).has_value());
}

TEST(MemoStore, PutThenLocalMemoryRead) {
  StorageHarness h;
  auto t = table_of({{"a", "1"}});
  const NodeId id = 1234;
  const MemoWriteResult w = h.memo.put(id, t);
  EXPECT_GT(w.bytes_written, 0u);
  EXPECT_GT(w.cost, 0.0);

  const MachineId home = h.memo.home_of(id);
  const MemoReadResult local = h.memo.get(id, home);
  ASSERT_TRUE(local.found);
  EXPECT_EQ(*local.table, *t);
  EXPECT_EQ(local.tier, ReadTier::kLocalMemory);

  const MemoReadResult remote = h.memo.get(id, (home + 1) % 4);
  ASSERT_TRUE(remote.found);
  EXPECT_EQ(remote.tier, ReadTier::kRemoteMemory);
  EXPECT_GT(remote.cost, local.cost);
}

TEST(MemoStore, MissingEntryIsAMiss) {
  StorageHarness h;
  const MemoReadResult r = h.memo.get(999, 0);
  EXPECT_FALSE(r.found);
  EXPECT_EQ(h.memo.stats().misses, 1u);
}

TEST(MemoStore, RepeatedPutIsIdempotent) {
  StorageHarness h;
  auto t = table_of({{"a", "1"}});
  h.memo.put(42, t);
  const std::uint64_t bytes = h.memo.total_bytes();
  const MemoWriteResult again = h.memo.put(42, t);
  EXPECT_EQ(again.bytes_written, 0u);
  EXPECT_EQ(h.memo.total_bytes(), bytes);
  EXPECT_EQ(h.memo.size(), 1u);
}

TEST(MemoStore, DisabledMemoryCacheServesFromDisk) {
  StorageHarness h;
  h.memo.set_memory_cache_enabled(false);
  auto t = table_of({{"a", "1"}, {"b", "2"}});
  h.memo.put(7, t);
  const MemoReadResult r = h.memo.get(7, h.memo.home_of(7));
  ASSERT_TRUE(r.found);
  EXPECT_EQ(*r.table, *t);
  EXPECT_TRUE(r.tier == ReadTier::kLocalDisk || r.tier == ReadTier::kRemoteDisk);
  EXPECT_EQ(h.memo.stats().reads_disk, 1u);
  EXPECT_EQ(h.memo.stats().reads_memory, 0u);
}

TEST(MemoStore, DiskReadsCostMoreThanMemoryReads) {
  StorageHarness h;
  auto t = table_of({{"key", std::string(4000, 'x')}});

  h.memo.put(1, t);
  const SimDuration mem_cost = h.memo.get(1, h.memo.home_of(1)).cost;

  h.memo.set_memory_cache_enabled(false);
  h.memo.put(2, t);
  const SimDuration disk_cost = h.memo.get(2, h.memo.home_of(2)).cost;
  EXPECT_GT(disk_cost, mem_cost * 5);
}

TEST(MemoStore, FailureFallsBackToReplicaAndRepopulates) {
  StorageHarness h;
  auto t = table_of({{"a", "1"}});
  const NodeId id = 55;
  h.memo.put(id, t);
  const MachineId home = h.memo.home_of(id);

  h.cluster.fail_machine(home);
  h.memo.drop_memory_on_failed();
  const MemoReadResult r = h.memo.get(id, home == 0 ? 1 : 0);
  ASSERT_TRUE(r.found);  // served by a persistent replica
  EXPECT_EQ(*r.table, *t);
  EXPECT_TRUE(r.tier == ReadTier::kLocalDisk || r.tier == ReadTier::kRemoteDisk);

  // After recovery, the next read re-installs the memory copy.
  h.cluster.recover_machine(home);
  (void)h.memo.get(id, home);
  const MemoReadResult back = h.memo.get(id, home);
  EXPECT_EQ(back.tier, ReadTier::kLocalMemory);
}

TEST(MemoStore, AllReplicasDownBehavesAsMiss) {
  // A 3-machine cluster: home + 2 replicas covers every machine.
  CostModel cost;
  Cluster cluster(ClusterConfig{.num_machines = 3, .slots_per_machine = 1});
  MemoStore memo(cluster, cost);
  auto t = table_of({{"a", "1"}});
  memo.put(9, t);
  for (MachineId m = 0; m < 3; ++m) cluster.fail_machine(m);
  memo.drop_memory_on_failed();
  const MemoReadResult r = memo.get(9, 0);
  EXPECT_FALSE(r.found);
  // ...and the miss is classified as failure-forced: the entry exists in
  // the index but zero intact copies survive, so the recompute this
  // triggers bills to the ledger's failure_reexec cause.
  EXPECT_TRUE(r.failure_miss);
  EXPECT_EQ(memo.stats().failure_forced_misses, 1u);
}

TEST(MemoStore, PlainMissIsNotAFailureMiss) {
  StorageHarness h;
  const MemoReadResult r = h.memo.get(4242, 0);  // never stored
  EXPECT_FALSE(r.found);
  EXPECT_FALSE(r.failure_miss);
  EXPECT_EQ(h.memo.stats().failure_forced_misses, 0u);
}

TEST(MemoStore, RetainOnlyCollectsGarbage) {
  StorageHarness h;
  for (NodeId id = 0; id < 10; ++id) {
    h.memo.put(id, table_of({{"k" + std::to_string(id), "1"}}));
  }
  EXPECT_EQ(h.memo.size(), 10u);
  const std::uint64_t bytes_before = h.memo.total_bytes();

  std::unordered_set<NodeId> live = {1, 3, 5};
  EXPECT_EQ(h.memo.retain_only(live), 7u);
  EXPECT_EQ(h.memo.size(), 3u);
  EXPECT_LT(h.memo.total_bytes(), bytes_before);
  EXPECT_TRUE(h.memo.contains(3));
  EXPECT_FALSE(h.memo.contains(2));
}

TEST(MemoStore, EraseRemovesEntry) {
  StorageHarness h;
  h.memo.put(77, table_of({{"a", "1"}}));
  h.memo.erase(77);
  EXPECT_FALSE(h.memo.contains(77));
  EXPECT_EQ(h.memo.total_bytes(), 0u);
  h.memo.erase(77);  // idempotent
}

TEST(MemoStore, EraseReleasedErasesPresentIdsAndIgnoresAbsentOnes) {
  StorageHarness h;
  for (NodeId id = 0; id < 10; ++id) {
    h.memo.put(id, table_of({{"k" + std::to_string(id), "1"}}));
  }
  const std::uint64_t bytes_before = h.memo.total_bytes();
  const std::vector<NodeId> released = {2, 4, 99, 4, 7};
  EXPECT_EQ(h.memo.erase_released(released), 3u);
  EXPECT_EQ(h.memo.size(), 7u);
  EXPECT_LT(h.memo.total_bytes(), bytes_before);
  for (const NodeId id : {2, 4, 7}) EXPECT_FALSE(h.memo.contains(id)) << id;
  for (const NodeId id : {0, 1, 3, 5, 6, 8, 9}) {
    EXPECT_TRUE(h.memo.contains(id)) << id;
  }
  EXPECT_EQ(h.memo.erase_released({}), 0u);
  EXPECT_EQ(h.memo.size(), 7u);
}

// GC examines what it is handed: the batch erase its ids, a full sweep the
// whole index.
TEST(MemoStore, GcExaminedCountsBatchIdsAndSweptIndex) {
  StorageHarness h;
  for (NodeId id = 0; id < 10; ++id) {
    h.memo.put(id, table_of({{"k" + std::to_string(id), "1"}}));
  }
  const std::vector<NodeId> released = {1, 2, 50};
  h.memo.erase_released(released);
  EXPECT_EQ(h.memo.stats().gc_examined, 3u);
  h.memo.retain_only({0, 3});
  EXPECT_EQ(h.memo.stats().gc_examined, 3u + 8u);
  h.memo.reset_stats();
  EXPECT_EQ(h.memo.stats().gc_examined, 0u);
}

TEST(MemoStore, StatsAccumulateReadTime) {
  StorageHarness h;
  h.memo.put(5, table_of({{"a", "1"}}));
  h.memo.reset_stats();
  (void)h.memo.get(5, 0);
  (void)h.memo.get(5, 1);
  EXPECT_EQ(h.memo.stats().reads_memory, 2u);
  EXPECT_GT(h.memo.stats().read_time, 0.0);
}

// --- degraded durable mode ---------------------------------------------------

// Rejects every byte of every write: the durable-tier equivalent of a full
// disk or an I/O error window.
struct RejectAllWrites final : durability::FaultInjector {
  std::size_t admit(std::size_t) override { return 0; }
};

struct DurableHarness {
  DurableHarness()
      : dir(std::filesystem::temp_directory_path() /
            ("slider_storage_degraded_" + std::to_string(::getpid()))),
        cluster(ClusterConfig{.num_machines = 3, .slots_per_machine = 1}),
        tier((std::filesystem::remove_all(dir),
              std::filesystem::create_directories(dir), dir.string())),
        memo(cluster, cost) {
    memo.attach_durable_tier(&tier);
  }
  ~DurableHarness() {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }

  void reject_writes(bool on) {
    for (std::size_t r = 0; r < tier.replicas(); ++r) {
      tier.set_fault_injector(r, on ? &reject : nullptr);
    }
  }

  std::filesystem::path dir;
  CostModel cost{};
  Cluster cluster;
  durability::DurableTier tier;
  MemoStore memo;
  RejectAllWrites reject;
};

TEST(MemoStore, DegradedDurableModeBuffersThenFlushDrains) {
  DurableHarness h;
  h.memo.put(1, table_of({{"pre", "1"}}));
  EXPECT_TRUE(h.memo.persisted_durably(1));
  EXPECT_FALSE(h.memo.durable_degraded());

  h.reject_writes(true);
  h.memo.put(2, table_of({{"during", "2"}}));
  EXPECT_TRUE(h.memo.durable_degraded());
  EXPECT_GE(h.memo.degraded_backlog(), 1u);
  // The entry is fully readable from memory — only durability lags.
  EXPECT_TRUE(h.memo.get(2, 0).found);
  EXPECT_FALSE(h.memo.persisted_durably(2));

  h.reject_writes(false);
  h.memo.flush_durable();
  EXPECT_FALSE(h.memo.durable_degraded());
  EXPECT_EQ(h.memo.degraded_backlog(), 0u);
  EXPECT_TRUE(h.memo.persisted_durably(2));
  const MemoStoreStats stats = h.memo.stats();
  EXPECT_EQ(stats.degraded_intervals, 1u);
  EXPECT_GE(stats.degraded_writes_buffered, 1u);
}

TEST(MemoStore, DegradedDurableModeDrainsViaBackoffWithoutFlush) {
  DurableHarness h;
  h.reject_writes(true);
  h.memo.put(10, table_of({{"a", "1"}}));
  ASSERT_TRUE(h.memo.durable_degraded());

  // Condition clears, but nobody calls flush_durable(): subsequent puts
  // tick the exponential backoff down until a drain attempt succeeds.
  h.reject_writes(false);
  for (NodeId id = 11; id < 80 && h.memo.durable_degraded(); ++id) {
    h.memo.put(id, table_of({{"k" + std::to_string(id), "1"}}));
  }
  EXPECT_FALSE(h.memo.durable_degraded());
  EXPECT_EQ(h.memo.degraded_backlog(), 0u);
  EXPECT_TRUE(h.memo.persisted_durably(10));
}

TEST(MemoStore, DegradedBufferedEntriesSurviveRestoreAfterDrain) {
  DurableHarness h;
  h.reject_writes(true);
  auto t = table_of({{"payload", "42"}});
  h.memo.put(33, t);
  h.reject_writes(false);
  h.memo.flush_durable();
  ASSERT_TRUE(h.memo.persisted_durably(33));

  // A fresh store recovering from the same directory sees the entry: the
  // drain really did reach the log, in order.
  Cluster cluster2(ClusterConfig{.num_machines = 3, .slots_per_machine = 1});
  CostModel cost2;
  durability::DurableTier tier2(h.dir.string());
  MemoStore memo2(cluster2, cost2);
  memo2.attach_durable_tier(&tier2);
  const std::size_t restored = memo2.restore_from_durable();
  EXPECT_GE(restored, 1u);
  const MemoReadResult r = memo2.get(33, 0);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(*r.table, *t);
}

// GC never tombstones: a tombstone per released node would flood the log
// every slide. The batch erase appends nothing (erase() does, for
// contrast), so recovery may resurrect what it dropped.
TEST(MemoStoreDurable, EraseReleasedAppendsNoTombstone) {
  DurableHarness h;
  for (NodeId id = 1; id <= 4; ++id) {
    h.memo.put(id, table_of({{"k" + std::to_string(id), "1"}}));
  }
  const std::uint64_t appended = h.tier.records_appended();
  ASSERT_GT(appended, 0u);
  const std::vector<NodeId> released = {1, 2};
  EXPECT_EQ(h.memo.erase_released(released), 2u);
  EXPECT_EQ(h.tier.records_appended(), appended);
  h.memo.erase(3);
  EXPECT_GT(h.tier.records_appended(), appended);
  h.memo.flush_durable();

  Cluster cluster2(ClusterConfig{.num_machines = 3, .slots_per_machine = 1});
  CostModel cost2;
  durability::DurableTier tier2(h.dir.string());
  MemoStore memo2(cluster2, cost2);
  memo2.attach_durable_tier(&tier2);
  memo2.restore_from_durable();
  EXPECT_TRUE(memo2.contains(1)) << "GC'd entries resurrect on recovery";
  EXPECT_TRUE(memo2.contains(2));
  EXPECT_FALSE(memo2.contains(3)) << "erase() tombstoned its entry";
  EXPECT_TRUE(memo2.contains(4));
}

// --- per-tenant quota victims ------------------------------------------------

constexpr std::uint64_t kTenantA = 0xA1;
constexpr std::uint64_t kTenantB = 0xB2;
constexpr std::uint64_t kTenantC = 0xC3;

std::shared_ptr<const KVTable> sized_table(NodeId id, std::size_t value_size) {
  return table_of({{"k" + std::to_string(id), std::string(value_size, 'v')}});
}

// Each tenant's quota-victim index must hold exactly its accounted entries.
::testing::AssertionResult index_matches_usage(
    const MemoStore& memo, std::initializer_list<std::uint64_t> tenants) {
  for (const std::uint64_t tenant : tenants) {
    const std::size_t indexed = memo.debug_tenant_index_size(tenant);
    const std::uint64_t entries = memo.tenant_usage(tenant).entries;
    if (indexed != entries) {
      return ::testing::AssertionFailure()
             << "tenant " << tenant << ": " << indexed << " indexed, "
             << entries << " accounted";
    }
  }
  return ::testing::AssertionSuccess();
}

// Three tenants interleave puts under entry and byte quotas. A reference
// model keeps each tenant's entries in write order and predicts every
// victim: the over-quota tenant's oldest entry that is not pinned. The
// store must evict exactly those ids, put by put, and no other tenant's.
TEST(MemoStoreQuotaVictims, EvictsOldestNonPinnedInWriteOrder) {
  StorageHarness h;
  struct ModelEntry {
    NodeId id;
    std::uint64_t bytes;
  };
  struct Model {
    TenantQuota quota;
    std::deque<ModelEntry> entries;  // write order, oldest first
    std::uint64_t bytes = 0;
    std::uint64_t evictions = 0;
    bool over() const {
      return (quota.max_entries != 0 && entries.size() > quota.max_entries) ||
             (quota.max_bytes != 0 && bytes > quota.max_bytes);
    }
  };
  std::map<std::uint64_t, Model> model;
  model[kTenantA].quota = TenantQuota{.max_entries = 3};
  model[kTenantB].quota = TenantQuota{.max_bytes = 400};
  model[kTenantC].quota = TenantQuota{.max_bytes = 600, .max_entries = 5};
  for (const auto& [tenant, m] : model) {
    h.memo.set_tenant_quota(tenant, m.quota);
  }

  std::unordered_set<NodeId> pinned;
  const auto pin = [&](std::unordered_set<NodeId> ids) {
    pinned = std::move(ids);
    h.memo.set_pinned_ids(
        std::make_shared<const std::unordered_set<NodeId>>(pinned));
  };

  Rng rng(2014);
  const std::uint64_t order[] = {kTenantA, kTenantB, kTenantC};
  NodeId next_id = 1;
  std::size_t victims = 0;
  std::size_t pinned_skips = 0;  // evictions that passed over a pinned id
  bool pinned_once = false;
  for (int step = 0; step < 90; ++step) {
    if (!pinned_once && !model[kTenantA].entries.empty() &&
        !model[kTenantB].entries.empty()) {
      // Pin A's and B's oldest entries: later evictions must skip them.
      pin({model[kTenantA].entries.front().id,
           model[kTenantB].entries.front().id});
      pinned_once = true;
    }
    if (step == 60) pin({});  // unpinned, they are the oldest again
    const std::uint64_t tenant = order[rng.next_below(3)];
    const NodeId id = next_id++;
    const auto table = sized_table(id, 20 + rng.next_below(100));
    h.memo.put(id, table, tenant);

    Model& m = model[tenant];
    m.entries.push_back({id, serialize_table(*table).size()});
    m.bytes += m.entries.back().bytes;
    while (m.over()) {
      auto victim = m.entries.begin();
      while (victim != m.entries.end() && pinned.count(victim->id) != 0) {
        ++victim;
      }
      if (victim == m.entries.end()) break;
      if (victim != m.entries.begin()) ++pinned_skips;
      ASSERT_FALSE(h.memo.contains(victim->id))
          << "step " << step << ": expected victim " << victim->id;
      m.bytes -= victim->bytes;
      ++m.evictions;
      ++victims;
      m.entries.erase(victim);
    }

    // Nothing else left the store: not the tenant's newer entries, not a
    // pinned one, not a neighbour's.
    for (const auto& [owner, om] : model) {
      for (const ModelEntry& e : om.entries) {
        ASSERT_TRUE(h.memo.contains(e.id))
            << "step " << step << ": tenant " << owner << " lost " << e.id;
      }
    }
    for (const auto& [owner, om] : model) {
      const TenantUsage usage = h.memo.tenant_usage(owner);
      EXPECT_EQ(usage.entries, om.entries.size()) << "step " << step;
      EXPECT_EQ(usage.bytes, om.bytes) << "step " << step;
      EXPECT_EQ(usage.quota_evictions, om.evictions) << "step " << step;
    }
  }
  for (const auto& [tenant, m] : model) EXPECT_GT(m.evictions, 0u) << tenant;
  EXPECT_EQ(h.memo.stats().quota_evictions, victims);
  EXPECT_GT(pinned_skips, 0u);
  ASSERT_TRUE(index_matches_usage(h.memo, {kTenantA, kTenantB, kTenantC}));
}

// An entry recovered from the durable log comes back untenanted; the first
// tenanted re-put adopts it. It keeps its original write_seq, so it is
// older than every entry the tenant wrote after the restart and goes first.
TEST(MemoStoreQuotaVictims, AdoptedRecoveredEntryKeepsItsAge) {
  DurableHarness h;
  for (NodeId id = 1; id <= 3; ++id) {
    h.memo.put(id, sized_table(id, 16), kTenantA);
  }
  h.memo.flush_durable();

  Cluster cluster2(ClusterConfig{.num_machines = 3, .slots_per_machine = 1});
  CostModel cost2;
  durability::DurableTier tier2(h.dir.string());
  MemoStore memo2(cluster2, cost2);
  memo2.attach_durable_tier(&tier2);
  ASSERT_EQ(memo2.restore_from_durable(), 3u);
  EXPECT_EQ(memo2.tenant_usage(kTenantA).entries, 0u);

  memo2.put(10, sized_table(10, 16), kTenantA);
  memo2.put(11, sized_table(11, 16), kTenantA);
  memo2.put(2, sized_table(2, 16), kTenantA);  // adopts recovered id 2
  EXPECT_EQ(memo2.tenant_usage(kTenantA).entries, 3u);
  ASSERT_TRUE(index_matches_usage(memo2, {kTenantA}));

  memo2.set_tenant_quota(kTenantA, TenantQuota{.max_entries = 2});
  EXPECT_FALSE(memo2.contains(2)) << "adopted entry keeps its pre-crash age";
  EXPECT_TRUE(memo2.contains(10));
  EXPECT_TRUE(memo2.contains(11));
  memo2.set_tenant_quota(kTenantA, TenantQuota{.max_entries = 1});
  EXPECT_FALSE(memo2.contains(10));
  EXPECT_TRUE(memo2.contains(11));
  // Recovered ids nobody re-put stay untenanted and untouched.
  EXPECT_TRUE(memo2.contains(1));
  EXPECT_TRUE(memo2.contains(3));
  EXPECT_EQ(memo2.tenant_usage(kTenantA).quota_evictions, 2u);
  ASSERT_TRUE(index_matches_usage(memo2, {kTenantA}));
}

// Every path that drops an entry releases it from its tenant's index.
TEST(MemoStoreQuotaVictims, IndexTracksUsageAcrossEraseRetainAndBudget) {
  StorageHarness h;
  const std::uint64_t tenants[] = {kTenantA, kTenantB, kTenantC, 0};
  for (NodeId id = 1; id <= 40; ++id) {
    h.memo.put(id, sized_table(id, 24), tenants[id % 4]);
  }
  ASSERT_TRUE(index_matches_usage(h.memo, {kTenantA, kTenantB, kTenantC}));
  EXPECT_EQ(h.memo.tenant_usage(kTenantA).entries, 10u);

  for (NodeId id = 1; id <= 8; ++id) h.memo.erase(id);
  ASSERT_TRUE(index_matches_usage(h.memo, {kTenantA, kTenantB, kTenantC}));
  EXPECT_EQ(h.memo.tenant_usage(kTenantA).entries, 8u);

  std::unordered_set<NodeId> live;
  for (NodeId id = 1; id <= 40; ++id) {
    if (id % 3 != 0) live.insert(id);
  }
  h.memo.retain_only(live);
  ASSERT_TRUE(index_matches_usage(h.memo, {kTenantA, kTenantB, kTenantC}));

  std::vector<NodeId> released;
  for (NodeId id = 1; id <= 40; id += 5) released.push_back(id);
  released.push_back(1000);  // absent
  const std::uint64_t entries_before = h.memo.size();
  const std::size_t erased = h.memo.erase_released(released);
  EXPECT_EQ(h.memo.size(), entries_before - erased);
  ASSERT_TRUE(index_matches_usage(h.memo, {kTenantA, kTenantB, kTenantC}));
  std::uint64_t accounted = 0;
  std::uint64_t accounted_bytes = 0;
  for (const std::uint64_t tenant : {kTenantA, kTenantB, kTenantC}) {
    accounted += h.memo.tenant_usage(tenant).entries;
    accounted_bytes += h.memo.tenant_usage(tenant).bytes;
  }
  EXPECT_LE(accounted, h.memo.size());  // the rest are untenanted
  EXPECT_LE(accounted_bytes, h.memo.total_bytes());

  h.memo.set_entry_budget(10);
  EXPECT_EQ(h.memo.size(), 10u);
  EXPECT_GT(h.memo.stats().budget_evictions, 0u);
  ASSERT_TRUE(index_matches_usage(h.memo, {kTenantA, kTenantB, kTenantC}));

  // The index still serves the quota policy after all of the above.
  h.memo.set_entry_budget(0);
  h.memo.set_tenant_quota(kTenantB, TenantQuota{.max_entries = 1});
  EXPECT_LE(h.memo.tenant_usage(kTenantB).entries, 1u);
  ASSERT_TRUE(index_matches_usage(h.memo, {kTenantA, kTenantB, kTenantC}));
}

// Two tenants put under quotas while a third thread garbage-collects with
// retain_only. Lock order is shard mutex, then a tenant's order mutex, on
// every path; afterwards the counters and indexes must agree exactly.
TEST(MemoStoreQuotaConcurrency, QuotaPutsRaceRetainOnly) {
  StorageHarness h;
  h.memo.set_tenant_quota(kTenantA, TenantQuota{.max_entries = 12});
  h.memo.set_tenant_quota(kTenantB, TenantQuota{.max_bytes = 1500});
  constexpr NodeId kPerTenant = 300;

  std::atomic<bool> done{false};
  const auto writer = [&](std::uint64_t tenant, NodeId base) {
    for (NodeId i = 0; i < kPerTenant; ++i) {
      h.memo.put(base + i, sized_table(base + i, 8 + i % 50), tenant);
    }
  };
  std::unordered_set<NodeId> live;
  for (NodeId i = 0; i < kPerTenant; ++i) {
    if (i % 4 != 0) {
      live.insert(1000 + i);
      live.insert(5000 + i);
    }
  }
  std::thread a(writer, kTenantA, 1000);
  std::thread b(writer, kTenantB, 5000);
  std::thread gc([&] {
    while (!done.load()) h.memo.retain_only(live);
  });
  a.join();
  b.join();
  done.store(true);
  gc.join();

  ASSERT_TRUE(index_matches_usage(h.memo, {kTenantA, kTenantB}));
  const TenantUsage usage_a = h.memo.tenant_usage(kTenantA);
  const TenantUsage usage_b = h.memo.tenant_usage(kTenantB);
  EXPECT_LE(usage_a.entries, 12u);
  EXPECT_LE(usage_b.bytes, 1500u);
  EXPECT_EQ(usage_a.entries + usage_b.entries, h.memo.size());
  EXPECT_EQ(usage_a.bytes + usage_b.bytes, h.memo.total_bytes());
  EXPECT_GT(usage_a.quota_evictions + usage_b.quota_evictions, 0u);
}

// The same race against the batch erase the per-run GC uses: it takes the
// same shard-then-order-mutex path as the quota policy it races.
TEST(MemoStoreQuotaConcurrency, QuotaPutsRaceBatchErase) {
  StorageHarness h;
  h.memo.set_tenant_quota(kTenantA, TenantQuota{.max_entries = 12});
  h.memo.set_tenant_quota(kTenantB, TenantQuota{.max_bytes = 1500});
  constexpr NodeId kPerTenant = 300;

  std::atomic<bool> done{false};
  const auto writer = [&](std::uint64_t tenant, NodeId base) {
    for (NodeId i = 0; i < kPerTenant; ++i) {
      h.memo.put(base + i, sized_table(base + i, 8 + i % 50), tenant);
    }
  };
  std::vector<NodeId> released;
  for (NodeId i = 0; i < kPerTenant; i += 4) {
    released.push_back(1000 + i);
    released.push_back(5000 + i);
  }
  std::thread a(writer, kTenantA, 1000);
  std::thread b(writer, kTenantB, 5000);
  std::thread gc([&] {
    while (!done.load()) h.memo.erase_released(released);
  });
  a.join();
  b.join();
  done.store(true);
  gc.join();
  h.memo.erase_released(released);

  ASSERT_TRUE(index_matches_usage(h.memo, {kTenantA, kTenantB}));
  const TenantUsage usage_a = h.memo.tenant_usage(kTenantA);
  const TenantUsage usage_b = h.memo.tenant_usage(kTenantB);
  EXPECT_LE(usage_a.entries, 12u);
  EXPECT_LE(usage_b.bytes, 1500u);
  EXPECT_EQ(usage_a.entries + usage_b.entries, h.memo.size());
  EXPECT_EQ(usage_a.bytes + usage_b.bytes, h.memo.total_bytes());
  for (const NodeId id : released) EXPECT_FALSE(h.memo.contains(id)) << id;
  EXPECT_GT(usage_a.quota_evictions + usage_b.quota_evictions, 0u);
}

}  // namespace
}  // namespace slider
