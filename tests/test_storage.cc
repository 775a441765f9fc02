// Unit tests for the storage layer: memoization tiers, replication-backed
// failure handling, garbage collection, and the order in which the entry
// budget and per-tenant quotas pick their victims.

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

// Reference model of the whole-entry policies. Ids are handed out in write
// order, so id order is age order. Like put(), a write runs the entry
// budget over every owner first, then the writer's quota over its own
// entries; each victim is the oldest entry the pins leave. The model
// predicts every victim the store must pick.
struct VictimModel {
  struct ModelEntry {
    NodeId id;
    std::uint64_t bytes;
  };
  struct Owner {
    TenantQuota quota;
    std::deque<ModelEntry> entries;  // write order, oldest first
    std::uint64_t bytes = 0;
    std::uint64_t quota_evictions = 0;
    std::uint64_t budget_evictions = 0;
    bool over() const {
      return (quota.max_entries != 0 && entries.size() > quota.max_entries) ||
             (quota.max_bytes != 0 && bytes > quota.max_bytes);
    }
  };

  std::map<std::uint64_t, Owner> owners;  // 0 = untenanted
  std::unordered_set<NodeId> pinned;
  std::size_t budget = 0;
  std::vector<NodeId> dropped;  // victims since the last check
  std::size_t pinned_skips = 0;  // victims picked past an older pinned id

  std::size_t size() const {
    std::size_t n = 0;
    for (const auto& [owner, o] : owners) n += o.entries.size();
    return n;
  }

  // Drops the oldest unpinned entry of `only` (every owner when null) and
  // returns its owner; nullopt when the pins leave nothing.
  std::optional<std::uint64_t> evict_oldest(const std::uint64_t* only) {
    std::optional<std::pair<NodeId, std::uint64_t>> victim;  // (id, owner)
    NodeId oldest_any = 0;
    for (const auto& [owner, o] : owners) {
      if (only != nullptr && owner != *only) continue;
      for (const ModelEntry& e : o.entries) {
        if (oldest_any == 0 || e.id < oldest_any) oldest_any = e.id;
        if (pinned.count(e.id) != 0) continue;
        if (!victim || e.id < victim->first) victim = std::pair(e.id, owner);
        break;
      }
    }
    if (!victim) return std::nullopt;
    if (victim->first != oldest_any) ++pinned_skips;
    Owner& o = owners[victim->second];
    for (auto it = o.entries.begin(); it != o.entries.end(); ++it) {
      if (it->id != victim->first) continue;
      o.bytes -= it->bytes;
      o.entries.erase(it);
      break;
    }
    dropped.push_back(victim->first);
    return victim->second;
  }

  void enforce_budget() {
    while (budget != 0 && size() > budget) {
      const auto owner = evict_oldest(nullptr);
      if (!owner) break;
      ++owners[*owner].budget_evictions;
    }
  }

  void put(NodeId id, std::uint64_t bytes, std::uint64_t owner) {
    Owner& o = owners[owner];
    o.entries.push_back({id, bytes});
    o.bytes += bytes;
    enforce_budget();
    while (owner != 0 && owners[owner].over()) {
      if (!evict_oldest(&owner)) break;
      ++owners[owner].quota_evictions;
    }
  }

  // The predicted victims are gone, every modelled entry is present, and
  // each owner's usage and write-order index agree with the model.
  ::testing::AssertionResult matches(const MemoStore& memo) {
    for (const NodeId id : dropped) {
      if (memo.contains(id)) {
        return ::testing::AssertionFailure() << "expected victim " << id;
      }
    }
    dropped.clear();
    std::uint64_t quota_evictions = 0;
    std::uint64_t budget_evictions = 0;
    for (const auto& [owner, o] : owners) {
      for (const ModelEntry& e : o.entries) {
        if (!memo.contains(e.id)) {
          return ::testing::AssertionFailure()
                 << "owner " << owner << " lost " << e.id;
        }
      }
      const TenantUsage usage = memo.tenant_usage(owner);
      if (usage.entries != o.entries.size() || usage.bytes != o.bytes ||
          usage.quota_evictions != o.quota_evictions ||
          memo.debug_tenant_index_size(owner) != o.entries.size()) {
        return ::testing::AssertionFailure()
               << "owner " << owner << ": " << usage.entries << " entries, "
               << usage.bytes << " bytes, " << usage.quota_evictions
               << " quota evictions, "
               << memo.debug_tenant_index_size(owner) << " indexed; model "
               << o.entries.size() << ", " << o.bytes << ", "
               << o.quota_evictions;
      }
      quota_evictions += o.quota_evictions;
      budget_evictions += o.budget_evictions;
    }
    if (memo.size() != size() ||
        memo.stats().quota_evictions != quota_evictions ||
        memo.stats().budget_evictions != budget_evictions) {
      return ::testing::AssertionFailure()
             << memo.size() << " entries, " << memo.stats().quota_evictions
             << " quota and " << memo.stats().budget_evictions
             << " budget evictions; model " << size() << ", "
             << quota_evictions << ", " << budget_evictions;
    }
    return ::testing::AssertionSuccess();
  }
};

// Three tenants interleave puts under entry and byte quotas. The store must
// evict exactly the model's victims, put by put: the over-quota tenant's
// oldest entry that is not pinned, and no other tenant's.
TEST(MemoStoreQuotaVictims, EvictsOldestNonPinnedInWriteOrder) {
  StorageHarness h;
  VictimModel model;
  model.owners[kTenantA].quota = TenantQuota{.max_entries = 3};
  model.owners[kTenantB].quota = TenantQuota{.max_bytes = 400};
  model.owners[kTenantC].quota = TenantQuota{.max_bytes = 600, .max_entries = 5};
  for (const auto& [tenant, o] : model.owners) {
    h.memo.set_tenant_quota(tenant, o.quota);
  }
  const auto pin = [&](std::unordered_set<NodeId> ids) {
    model.pinned = std::move(ids);
    h.memo.set_pinned_ids(
        std::make_shared<const std::unordered_set<NodeId>>(model.pinned));
  };

  Rng rng(2014);
  const std::uint64_t order[] = {kTenantA, kTenantB, kTenantC};
  bool pinned_once = false;
  for (NodeId id = 1; id <= 90; ++id) {
    auto& a = model.owners[kTenantA].entries;
    auto& b = model.owners[kTenantB].entries;
    if (!pinned_once && !a.empty() && !b.empty()) {
      // Pin A's and B's oldest entries: later evictions must skip them.
      pin({a.front().id, b.front().id});
      pinned_once = true;
    }
    if (id == 61) pin({});  // unpinned, they are the oldest again
    const std::uint64_t tenant = order[rng.next_below(3)];
    const auto table = sized_table(id, 20 + rng.next_below(100));
    h.memo.put(id, table, tenant);
    model.put(id, serialize_table(*table).size(), tenant);
    ASSERT_TRUE(model.matches(h.memo)) << "put " << id;
  }
  for (const auto& [tenant, o] : model.owners) {
    EXPECT_GT(o.quota_evictions, 0u) << tenant;
  }
  EXPECT_GT(model.pinned_skips, 0u);
}

// Untenanted writes join the three tenants, and an entry budget arrives
// mid-run and is then lowered. Every budget victim must be the oldest
// unpinned entry across all owners, untenanted ones included, and each
// quota still evicts only its own tenant's entries.
TEST(MemoStoreQuotaVictims, BudgetEvictsOldestUnpinnedAcrossOwners) {
  StorageHarness h;
  VictimModel model;
  model.owners[0];
  model.owners[kTenantA].quota = TenantQuota{.max_entries = 4};
  model.owners[kTenantB].quota = TenantQuota{.max_bytes = 500};
  model.owners[kTenantC];
  for (const auto& [tenant, o] : model.owners) {
    h.memo.set_tenant_quota(tenant, o.quota);
  }
  const auto set_budget = [&](std::size_t budget) {
    model.budget = budget;
    h.memo.set_entry_budget(budget);
    model.enforce_budget();
  };
  const auto pin = [&](std::unordered_set<NodeId> ids) {
    model.pinned = std::move(ids);
    h.memo.set_pinned_ids(
        std::make_shared<const std::unordered_set<NodeId>>(model.pinned));
  };

  Rng rng(21);
  const std::uint64_t order[] = {0, kTenantA, kTenantB, kTenantC};
  for (NodeId id = 1; id <= 120; ++id) {
    if (id == 9) {
      // Pin the oldest untenanted and the oldest C entry: budget victims
      // must pass over them.
      ASSERT_FALSE(model.owners[0].entries.empty());
      ASSERT_FALSE(model.owners[kTenantC].entries.empty());
      pin({model.owners[0].entries.front().id,
           model.owners[kTenantC].entries.front().id});
    }
    if (id == 31 || id == 71) {
      // Set, then lowered: each call evicts at once, with no put.
      set_budget(id == 31 ? 24 : 12);
      ASSERT_TRUE(model.matches(h.memo)) << "budget set before put " << id;
    }
    if (id == 101) pin({});
    const std::uint64_t owner = order[rng.next_below(4)];
    const auto table = sized_table(id, 20 + rng.next_below(100));
    h.memo.put(id, table, owner);
    model.put(id, serialize_table(*table).size(), owner);
    ASSERT_TRUE(model.matches(h.memo)) << "put " << id;
    if (id > 31) {
      ASSERT_LE(h.memo.size(), id > 71 ? 12u : 24u);
    }
  }
  for (const auto& [owner, o] : model.owners) {
    EXPECT_GT(o.budget_evictions, 0u) << owner;
  }
  EXPECT_GT(model.owners[kTenantA].quota_evictions, 0u);
  EXPECT_GT(model.owners[kTenantB].quota_evictions, 0u);
  EXPECT_GT(model.pinned_skips, 0u);
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

// Every index entry has exactly one owner, untenanted ones included:
// restore installs into the untenanted cell, adoption moves an entry to its
// tenant at its original age, and GC releases from whichever cell holds
// it. The untenanted counters never underflow, so the owners' usage sums
// to the store's.
TEST(MemoStoreQuotaVictims, UntenantedCellTracksRestoreAdoptionAndGc) {
  DurableHarness h;
  for (NodeId id = 1; id <= 6; ++id) {
    h.memo.put(id, sized_table(id, 16), id % 2 == 0 ? kTenantA : 0);
  }
  h.memo.flush_durable();

  Cluster cluster2(ClusterConfig{.num_machines = 3, .slots_per_machine = 1});
  CostModel cost2;
  durability::DurableTier tier2(h.dir.string());
  MemoStore memo2(cluster2, cost2);
  memo2.attach_durable_tier(&tier2);
  const auto owners_sum_to_store = [&]() -> ::testing::AssertionResult {
    const TenantUsage untenanted = memo2.tenant_usage(0);
    const TenantUsage a = memo2.tenant_usage(kTenantA);
    if (untenanted.entries + a.entries != memo2.size() ||
        untenanted.bytes + a.bytes != memo2.total_bytes()) {
      return ::testing::AssertionFailure()
             << untenanted.entries << " + " << a.entries << " entries, "
             << untenanted.bytes << " + " << a.bytes << " bytes; store "
             << memo2.size() << ", " << memo2.total_bytes();
    }
    return index_matches_usage(memo2, {0, kTenantA});
  };

  ASSERT_EQ(memo2.restore_from_durable(), 6u);
  EXPECT_EQ(memo2.tenant_usage(0).entries, 6u);
  EXPECT_EQ(memo2.tenant_usage(kTenantA).entries, 0u);
  ASSERT_TRUE(owners_sum_to_store());

  memo2.put(2, sized_table(2, 16), kTenantA);  // adopts recovered id 2
  memo2.put(20, sized_table(20, 16));          // a new untenanted write
  EXPECT_EQ(memo2.tenant_usage(0).entries, 6u);
  EXPECT_EQ(memo2.tenant_usage(kTenantA).entries, 1u);
  ASSERT_TRUE(owners_sum_to_store());

  const std::vector<NodeId> released = {1, 2, 99};
  EXPECT_EQ(memo2.erase_released(released), 2u);
  ASSERT_TRUE(owners_sum_to_store());
  memo2.retain_only({3, 20});
  EXPECT_EQ(memo2.tenant_usage(0).entries, 2u);
  EXPECT_EQ(memo2.tenant_usage(kTenantA).entries, 0u);
  ASSERT_TRUE(owners_sum_to_store());

  // The budget evicts the recovered entry first: it keeps its old age.
  memo2.set_entry_budget(1);
  EXPECT_FALSE(memo2.contains(3));
  EXPECT_TRUE(memo2.contains(20));
  ASSERT_TRUE(owners_sum_to_store());
  memo2.erase(20);
  EXPECT_EQ(memo2.tenant_usage(0).entries, 0u);
  EXPECT_EQ(memo2.tenant_usage(0).bytes, 0u);
  ASSERT_TRUE(owners_sum_to_store());
}

// A memory capacity together with a byte-capped tenant. The tenant's
// overage evicts its own oldest whole entry before the memory tier's LRU
// runs, and that makes room: the neighbour's memory copies, the least
// recent of all, stay resident and the LRU drops nothing.
TEST(MemoStoreQuotaVictims, QuotaMakesRoomBeforeTheMemoryLru) {
  StorageHarness h;
  std::uint64_t each = 0;
  for (NodeId id = 10; id < 13; ++id) {
    each = h.memo.put(id, sized_table(id, 100), kTenantB).bytes_written;
  }
  h.memo.set_tenant_quota(kTenantA, TenantQuota{.max_bytes = 3 * each});
  h.memo.set_memory_capacity_bytes(6 * each);
  for (NodeId id = 20; id < 24; ++id) {
    ASSERT_EQ(h.memo.put(id, sized_table(id, 100), kTenantA).bytes_written,
              each);
  }
  EXPECT_FALSE(h.memo.contains(20)) << "the tenant's oldest entry goes whole";
  EXPECT_EQ(h.memo.tenant_usage(kTenantA).quota_evictions, 1u);
  EXPECT_EQ(h.memo.stats().memory_evictions, 0u);
  EXPECT_EQ(h.memo.memory_bytes(), 6 * each);
  for (NodeId id = 10; id < 13; ++id) {
    EXPECT_EQ(h.memo.get(id, h.memo.home_of(id)).tier,
              ReadTier::kLocalMemory)
        << "neighbour " << id << " lost its memory copy";
  }
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

// Untenanted writers join two quota-capped tenants under an entry budget
// while a GC thread batch-erases. Every write lands in one owner's
// write-order index, untenanted ones in the untenanted cell, and the
// budget picks across all of them; afterwards the counters and indexes
// must agree exactly and sum to the store.
TEST(MemoStoreQuotaConcurrency, UntenantedWritersRaceQuotasUnderBudget) {
  StorageHarness h;
  h.memo.set_tenant_quota(kTenantA, TenantQuota{.max_entries = 12});
  h.memo.set_tenant_quota(kTenantB, TenantQuota{.max_bytes = 1500});
  h.memo.set_entry_budget(40);
  constexpr NodeId kPerWriter = 300;

  std::atomic<bool> done{false};
  const auto writer = [&](std::uint64_t tenant, NodeId base) {
    for (NodeId i = 0; i < kPerWriter; ++i) {
      h.memo.put(base + i, sized_table(base + i, 8 + i % 50), tenant);
    }
  };
  std::vector<NodeId> released;
  for (NodeId i = 0; i < kPerWriter; i += 4) {
    released.push_back(1000 + i);
    released.push_back(5000 + i);
    released.push_back(9000 + i);
  }
  std::thread a(writer, kTenantA, 1000);
  std::thread b(writer, kTenantB, 5000);
  std::thread u1(writer, 0, 9000);
  std::thread u2(writer, 0, 13000);
  std::thread gc([&] {
    while (!done.load()) h.memo.erase_released(released);
  });
  a.join();
  b.join();
  u1.join();
  u2.join();
  done.store(true);
  gc.join();

  ASSERT_TRUE(index_matches_usage(h.memo, {0, kTenantA, kTenantB}));
  const TenantUsage usage_0 = h.memo.tenant_usage(0);
  const TenantUsage usage_a = h.memo.tenant_usage(kTenantA);
  const TenantUsage usage_b = h.memo.tenant_usage(kTenantB);
  EXPECT_LE(h.memo.size(), 40u);
  EXPECT_LE(usage_a.entries, 12u);
  EXPECT_LE(usage_b.bytes, 1500u);
  EXPECT_EQ(usage_0.entries + usage_a.entries + usage_b.entries,
            h.memo.size());
  EXPECT_EQ(usage_0.bytes + usage_a.bytes + usage_b.bytes,
            h.memo.total_bytes());
  EXPECT_GT(h.memo.stats().budget_evictions, 0u);
}

// Tenanted durable puts (their quota evictions append tombstones) race a
// GC thread whose batch erases run the segment cleaner over a tier with
// small segments. The cleaner reads the index under the durable mutex,
// one shard at a time; afterwards every entry the store holds must
// recover from the logs with its payload.
TEST(MemoStoreQuotaConcurrency, TenantedDurablePutsRaceCleaningGcs) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("slider_test_cleaning_race_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  const std::uint64_t cleaned_before =
      testing::registry_counter("durability.segments_compacted");
  {
    durability::DurableTierOptions options;
    options.log.segment_bytes = 4 << 10;
    durability::DurableTier tier(dir.string(), options);
    StorageHarness h;
    h.memo.attach_durable_tier(&tier);
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
    EXPECT_GT(h.memo.tenant_usage(kTenantA).quota_evictions, 0u);
    h.memo.flush_durable();
    const auto recovered = tier.recover();
    std::size_t held = 0;
    for (const NodeId base : {NodeId{1000}, NodeId{5000}}) {
      for (NodeId i = 0; i < kPerTenant; ++i) {
        const NodeId id = base + i;
        const auto table = h.memo.peek(id);
        if (table == nullptr) continue;
        ++held;
        const auto it = recovered.find(id);
        ASSERT_NE(it, recovered.end()) << "lost live id " << id;
        EXPECT_EQ(it->second.payload, serialize_table(*table)) << id;
      }
    }
    EXPECT_EQ(held, h.memo.size());
  }
  EXPECT_GT(testing::registry_counter("durability.segments_compacted"),
            cleaned_before);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace slider
