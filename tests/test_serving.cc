// Multi-tenant serving runtime tests (src/serving/session_manager.h).
//
// The load-bearing properties:
//   * tenant-salted memo keys: two tenants running IDENTICAL jobs over one
//     shared MemoStore must never alias — each owns a disjoint slice of the
//     store and both stay byte-identical to an isolated control;
//   * quota isolation: a tenant's quota eviction only ever touches that
//     tenant's own entries, and the evicted tenant's outputs survive via
//     fallback recompute;
//   * concurrent checkpoint()/restore() of many sessions sharing one
//     MemoStore + durable tier — including a restore racing another
//     tenant's quota eviction — keeps every tenant byte-identical to its
//     single-tenant control;
//   * checkpoint identity covers the tenant: one tenant's manifest cannot
//     restore into another tenant's session;
//   * admission, idle-checkpoint/hydrate lifecycle, and the fleet
//     endpoints behave as documented.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "apps/microbench.h"
#include "common/hash.h"
#include "data/serde.h"
#include "durability/durable_tier.h"
#include "serving/session_manager.h"
#include "slider/session.h"
#include "tests/test_util.h"

namespace slider {
namespace {

namespace fs = std::filesystem;
using apps::MicroApp;
using serving::AdmitResult;
using serving::SessionManager;
using serving::SessionManagerOptions;
using serving::TenantSpec;
using serving::TenantStatus;

struct Harness {
  Harness()
      : cluster(ClusterConfig{.num_machines = 6, .slots_per_machine = 2}),
        engine(cluster, cost),
        memo(cluster, cost) {}

  CostModel cost{};
  Cluster cluster;
  VanillaEngine engine;
  MemoStore memo;
};

constexpr std::size_t kWindowSplits = 8;
constexpr std::size_t kRecordsPerSplit = 10;
constexpr std::size_t kSlide = 2;

// Batch contents are a pure function of the split ids (same convention as
// the soak), so fleet tenants and their isolated controls see identical
// bytes.
std::vector<SplitPtr> batch_for(MicroApp app, std::size_t splits,
                                SplitId first_id) {
  Rng rng(777 + first_id);
  auto records =
      apps::generate_input(app, splits * kRecordsPerSplit, rng,
                           first_id * 1'000'000);
  return make_splits(std::move(records), kRecordsPerSplit, first_id);
}

SliderConfig base_config() {
  SliderConfig config;
  config.mode = WindowMode::kVariableWidth;
  config.tree_kind = TreeKind::kFolding;
  config.bucket_width = kSlide;
  return config;
}

std::vector<std::string> output_bytes(const SliderSession& session) {
  std::vector<std::string> out;
  out.reserve(session.output().size());
  for (const KVTable& table : session.output()) {
    out.push_back(serialize_table(table));
  }
  return out;
}

// Isolated single-tenant control: private store, no tenant salt. Returns
// serialized outputs after the initial build and after each slide.
std::vector<std::vector<std::string>> run_control(MicroApp app,
                                                  std::size_t runs) {
  Harness h;
  const auto bench = apps::make_microbenchmark(app);
  SliderSession session(h.engine, h.memo, bench.job, base_config());
  std::vector<std::vector<std::string>> outputs;
  session.initial_run(batch_for(app, kWindowSplits, 0));
  outputs.push_back(output_bytes(session));
  SplitId next_id = kWindowSplits;
  for (std::size_t s = 1; s < runs; ++s) {
    session.slide(kSlide, batch_for(app, kSlide, next_id));
    next_id += kSlide;
    outputs.push_back(output_bytes(session));
  }
  return outputs;
}

TenantSpec make_spec(const std::string& name, MicroApp app) {
  TenantSpec spec;
  spec.name = name;
  spec.job = apps::make_microbenchmark(app).job;
  spec.config = base_config();
  return spec;
}

// Minimal blocking HTTP/1.0 GET against 127.0.0.1:`port`.
std::string http_get(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buffer[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

// --- basic lifecycle --------------------------------------------------------

TEST(SessionManagerBasic, RegistrationSubmitAndStatus) {
  Harness h;
  SessionManager manager(h.engine, h.memo, SessionManagerOptions{});

  EXPECT_FALSE(manager.add_tenant(make_spec("", MicroApp::kHct),
                                  batch_for(MicroApp::kHct, kWindowSplits, 0)));
  ASSERT_TRUE(manager.add_tenant(make_spec("alpha", MicroApp::kHct),
                                 batch_for(MicroApp::kHct, kWindowSplits, 0)));
  EXPECT_FALSE(manager.add_tenant(
      make_spec("alpha", MicroApp::kHct),
      batch_for(MicroApp::kHct, kWindowSplits, 0)));  // duplicate
  ASSERT_TRUE(manager.add_tenant(make_spec("beta", MicroApp::kSubStr),
                                 batch_for(MicroApp::kSubStr, kWindowSplits,
                                           0)));
  EXPECT_EQ(manager.tenant_count(), 2u);
  EXPECT_EQ(manager.total_pending(), 2u);  // the two initial builds

  EXPECT_EQ(manager.submit("nope", kSlide,
                           batch_for(MicroApp::kHct, kSlide, kWindowSplits)),
            AdmitResult::kUnknownTenant);
  EXPECT_EQ(manager.submit("alpha", kSlide,
                           batch_for(MicroApp::kHct, kSlide, kWindowSplits)),
            AdmitResult::kAccepted);

  EXPECT_EQ(manager.run_pending(), 3u);
  EXPECT_EQ(manager.total_pending(), 0u);

  const TenantStatus alpha = manager.status("alpha");
  EXPECT_EQ(alpha.name, "alpha");
  EXPECT_FALSE(alpha.cold);
  EXPECT_EQ(alpha.pending, 0u);
  EXPECT_EQ(alpha.counters.submitted, 2u);
  EXPECT_EQ(alpha.counters.executed, 2u);
  EXPECT_EQ(alpha.window_splits, kWindowSplits);  // slide kept the width
  EXPECT_GT(alpha.usage.entries, 0u);

  EXPECT_TRUE(manager.status("nope").name.empty());

  const std::vector<TenantStatus> fleet = manager.fleet_status();
  ASSERT_EQ(fleet.size(), 2u);
  EXPECT_EQ(fleet[0].name, "alpha");  // sorted by name
  EXPECT_EQ(fleet[1].name, "beta");
}

// --- tenant-salted memo keys (aliasing regression) --------------------------

// Two tenants running the IDENTICAL job over one shared MemoStore: if the
// tenant salt were ever dropped from a memo key, the second tenant would
// adopt (and then mutate) the first tenant's entries. Each tenant must own
// its full, disjoint working set and match the isolated control
// byte-for-byte after every run.
TEST(SessionManagerIsolation, IdenticalTenantsSharingAStoreNeverAlias) {
  constexpr std::size_t kRuns = 4;
  const auto control = run_control(MicroApp::kHct, kRuns);

  Harness h;
  SessionManager manager(h.engine, h.memo, SessionManagerOptions{});
  for (const char* name : {"twin-a", "twin-b"}) {
    ASSERT_TRUE(manager.add_tenant(
        make_spec(name, MicroApp::kHct),
        batch_for(MicroApp::kHct, kWindowSplits, 0)));
  }

  SplitId next_id = kWindowSplits;
  for (std::size_t run = 0; run < kRuns; ++run) {
    if (run > 0) {
      for (const char* name : {"twin-a", "twin-b"}) {
        ASSERT_EQ(manager.submit(name, kSlide,
                                 batch_for(MicroApp::kHct, kSlide, next_id)),
                  AdmitResult::kAccepted);
      }
      next_id += kSlide;
    }
    manager.run_pending();
    for (const char* name : {"twin-a", "twin-b"}) {
      EXPECT_EQ(manager.last_outputs(name), control[run])
          << name << " diverged at run " << run;
    }
  }

  // Disjoint ownership: both tenants hold a same-sized, non-empty slice,
  // and together they account for the whole store — nothing untenanted,
  // nothing shared.
  const TenantUsage a = h.memo.tenant_usage(hash_string("twin-a"));
  const TenantUsage b = h.memo.tenant_usage(hash_string("twin-b"));
  EXPECT_GT(a.entries, 0u);
  EXPECT_EQ(a.entries, b.entries);  // identical jobs, identical footprint
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.entries + b.entries, h.memo.size());
  EXPECT_EQ(a.bytes + b.bytes, h.memo.total_bytes());
}

// --- per-tenant quotas ------------------------------------------------------

TEST(SessionManagerQuota, EvictionTouchesOnlyTheOwnerAndPreservesOutputs) {
  constexpr std::size_t kRuns = 5;
  const auto control = run_control(MicroApp::kHct, kRuns);

  Harness h;
  SessionManager manager(h.engine, h.memo, SessionManagerOptions{});
  TenantSpec tight = make_spec("tight", MicroApp::kHct);
  tight.quota.max_entries = 6;  // far below the working set
  ASSERT_TRUE(manager.add_tenant(std::move(tight),
                                 batch_for(MicroApp::kHct, kWindowSplits, 0)));
  ASSERT_TRUE(manager.add_tenant(make_spec("roomy", MicroApp::kHct),
                                 batch_for(MicroApp::kHct, kWindowSplits, 0)));

  SplitId next_id = kWindowSplits;
  for (std::size_t run = 0; run < kRuns; ++run) {
    if (run > 0) {
      for (const char* name : {"tight", "roomy"}) {
        ASSERT_EQ(manager.submit(name, kSlide,
                                 batch_for(MicroApp::kHct, kSlide, next_id)),
                  AdmitResult::kAccepted);
      }
      next_id += kSlide;
    }
    manager.run_pending();
    // The quota costs the tight tenant recompute latency, never bytes.
    for (const char* name : {"tight", "roomy"}) {
      EXPECT_EQ(manager.last_outputs(name), control[run])
          << name << " diverged at run " << run;
    }
  }

  const TenantUsage tight_usage = h.memo.tenant_usage(hash_string("tight"));
  const TenantUsage roomy_usage = h.memo.tenant_usage(hash_string("roomy"));
  EXPECT_GT(tight_usage.quota_evictions, 0u);
  EXPECT_LE(tight_usage.entries, 6u);
  EXPECT_EQ(roomy_usage.quota_evictions, 0u);  // never collateral damage
  EXPECT_GT(roomy_usage.entries, tight_usage.entries);
  EXPECT_EQ(h.memo.stats().quota_evictions, tight_usage.quota_evictions);
}

// --- admission control ------------------------------------------------------

TEST(SessionManagerAdmission, WatermarksQueueThenShed) {
  Harness h;
  SessionManagerOptions options;
  options.queue_watermark = 3;
  options.shed_watermark = 4;
  SessionManager manager(h.engine, h.memo, options);
  ASSERT_TRUE(manager.add_tenant(make_spec("bursty", MicroApp::kHct),
                                 batch_for(MicroApp::kHct, kWindowSplits, 0)));

  // The initial build occupies one queue slot; pending is 1 already.
  SplitId next_id = kWindowSplits;
  std::vector<AdmitResult> results;
  std::size_t accepted_slides = 0;
  for (int i = 0; i < 6; ++i) {
    const AdmitResult r = manager.submit(
        "bursty", kSlide, batch_for(MicroApp::kHct, kSlide, next_id));
    results.push_back(r);
    if (r != AdmitResult::kShed) {
      ++accepted_slides;
      next_id += kSlide;  // shed batches are replayed, not consumed
    }
  }
  EXPECT_EQ(results[0], AdmitResult::kAccepted);   // pending 1 -> 2
  EXPECT_EQ(results[1], AdmitResult::kQueued);     // pending 2 -> 3
  EXPECT_EQ(results[2], AdmitResult::kQueued);     // pending 3 -> 4
  EXPECT_EQ(results[3], AdmitResult::kShed);       // at shed watermark
  EXPECT_EQ(results[4], AdmitResult::kShed);
  EXPECT_EQ(results[5], AdmitResult::kShed);
  EXPECT_EQ(accepted_slides, 3u);

  const TenantStatus before = manager.status("bursty");
  EXPECT_EQ(before.counters.shed, 3u);
  EXPECT_EQ(before.counters.queued_over_watermark, 2u);
  EXPECT_EQ(before.pending, 4u);

  // The accepted prefix still matches the control run of the same length.
  EXPECT_EQ(manager.run_pending(), 1u + accepted_slides);
  const auto control = run_control(MicroApp::kHct, 1 + accepted_slides);
  EXPECT_EQ(manager.last_outputs("bursty"), control.back());
}

// --- idle-checkpoint / hydrate-on-slide lifecycle ---------------------------

TEST(SessionManagerIdleHydrate, ColdSessionRehydratesTransparently) {
  constexpr std::size_t kRuns = 3;
  const auto control = run_control(MicroApp::kHct, kRuns);

  Harness h;
  const testing::TempDir tier_dir("slider_test_serving_idle_tier");
  durability::DurableTier tier(tier_dir.path.string());
  h.memo.attach_durable_tier(&tier);

  SessionManagerOptions options;
  options.idle_checkpoint_rounds = 2;
  SessionManager manager(h.engine, h.memo, options);
  ASSERT_TRUE(manager.add_tenant(make_spec("napper", MicroApp::kHct),
                                 batch_for(MicroApp::kHct, kWindowSplits, 0)));
  ASSERT_TRUE(manager.add_tenant(make_spec("steady", MicroApp::kHct),
                                 batch_for(MicroApp::kHct, kWindowSplits, 0)));
  EXPECT_EQ(manager.run_pending(), 2u);
  SplitId next_id = kWindowSplits;

  // Two idle drains push the napper past the threshold; "steady" keeps
  // sliding, so the shared store stays hot (and the fleet GC keeps
  // running) while the napper is cold.
  for (int idle = 0; idle < 2; ++idle) {
    ASSERT_EQ(manager.submit("steady", kSlide,
                             batch_for(MicroApp::kHct, kSlide, next_id)),
              AdmitResult::kAccepted);
    next_id += kSlide;
    manager.run_pending();
  }
  EXPECT_TRUE(manager.is_cold("napper"));
  EXPECT_FALSE(manager.is_cold("steady"));
  EXPECT_EQ(manager.status("napper").counters.checkpoints, 1u);
  // Cold tenants still serve their last outputs.
  EXPECT_EQ(manager.last_outputs("napper"), control[0]);

  // The next slide transparently re-hydrates. The napper slid fewer times
  // than "steady": its first two slides use the ids steady consumed, which
  // is exactly the point — batch bytes depend only on the ids, and the
  // two tenants' salted keys cannot collide.
  SplitId napper_next = kWindowSplits;
  for (std::size_t run = 1; run < kRuns; ++run) {
    ASSERT_EQ(manager.submit("napper", kSlide,
                             batch_for(MicroApp::kHct, kSlide, napper_next)),
              AdmitResult::kAccepted);
    napper_next += kSlide;
    manager.run_pending();
    EXPECT_EQ(manager.last_outputs("napper"), control[run]);
  }
  EXPECT_FALSE(manager.is_cold("napper"));
  const TenantStatus napper = manager.status("napper");
  EXPECT_EQ(napper.counters.hydrations, 1u);
  EXPECT_EQ(napper.counters.hydrate_failures, 0u);
  EXPECT_EQ(manager.last_outputs("steady"), control[kRuns - 1]);
}

// --- fleet GC ----------------------------------------------------------------

// Fleet GC erases the ids the tenants' sessions released, including those
// a napper's session released before its idle checkpoint destroyed it,
// under quota eviction and durable segment cleaning. After every GC a full
// sweep over the store must find nothing left to collect, and no uncapped
// tenant may have lost a live id.
TEST(SessionManagerGc, ReleasedIdsLeaveExactlyTheLiveAndPinnedSets) {
  Harness h;
  const fs::path tier_dir =
      fs::temp_directory_path() /
      ("slider_test_serving_gc_tier_" + std::to_string(::getpid()));
  fs::remove_all(tier_dir);
  fs::create_directories(tier_dir);
  durability::DurableTierOptions tier_options;
  tier_options.log.segment_bytes = 16 << 10;  // GCs clean segments
  durability::DurableTier tier(tier_dir.string(), tier_options);
  const std::uint64_t cleaned_before =
      testing::registry_counter("durability.segments_compacted");
  h.memo.attach_durable_tier(&tier);

  SessionManagerOptions options;
  options.idle_checkpoint_rounds = 2;
  options.auto_gc = false;
  SessionManager manager(h.engine, h.memo, options);

  struct Tenant {
    const char* name;
    MicroApp app;
    WindowMode mode;
    std::optional<TreeKind> kind;  // unset: the flat tier
    bool capped;
    bool napper;
  };
  const Tenant tenants[] = {
      {"fold", MicroApp::kHct, WindowMode::kVariableWidth, TreeKind::kFolding,
       false, false},
      {"flat", MicroApp::kSubStr, WindowMode::kVariableWidth, std::nullopt,
       false, false},
      {"rotating", MicroApp::kKMeans, WindowMode::kFixedWidth,
       TreeKind::kRotating, false, false},
      {"randomized", MicroApp::kMatrix, WindowMode::kVariableWidth,
       TreeKind::kRandomizedFolding, false, true},
      {"capped", MicroApp::kHct, WindowMode::kVariableWidth,
       TreeKind::kFolding, true, false},
      {"napper", MicroApp::kHct, WindowMode::kVariableWidth,
       TreeKind::kFolding, false, true},
  };
  for (const Tenant& t : tenants) {
    TenantSpec spec = make_spec(t.name, t.app);
    spec.config.mode = t.mode;
    spec.config.tree_kind = t.kind;
    spec.config.split_processing = t.mode == WindowMode::kFixedWidth;
    if (t.capped) spec.quota.max_entries = 6;
    ASSERT_TRUE(manager.add_tenant(std::move(spec),
                                   batch_for(t.app, kWindowSplits, 0)));
  }

  const auto check = [&](std::size_t round) {
    std::unordered_set<NodeId> fleet_live;
    for (const Tenant& t : tenants) {
      std::unordered_set<NodeId> live;
      manager.collect_live_ids(t.name, live);
      if (!t.capped) {
        for (const NodeId id : live) {
          ASSERT_TRUE(h.memo.contains(id))
              << t.name << " lost " << id << " in round " << round;
        }
      }
      fleet_live.insert(live.begin(), live.end());
    }
    EXPECT_EQ(h.memo.retain_only(fleet_live), 0u) << "round " << round;
  };

  std::vector<SplitId> next_id(std::size(tenants), kWindowSplits);
  std::size_t checkpoints = 0;
  for (std::size_t round = 0; round < 12; ++round) {
    if (round > 0) {
      for (std::size_t i = 0; i < std::size(tenants); ++i) {
        const Tenant& t = tenants[i];
        // Nappers idle two rounds of four: checkpointed out, then
        // hydrated by their next slide.
        if (t.napper && round % 4 >= 2) continue;
        ASSERT_NE(manager.submit(t.name, kSlide,
                                 batch_for(t.app, kSlide, next_id[i])),
                  AdmitResult::kShed);
        next_id[i] += kSlide;
      }
    }
    manager.run_pending();
    // GC skips the drains in between, so released ids accumulate across
    // runs, and a napper's pending ids ride through its idle checkpoint
    // (taken in the drain of round 3, two rounds after its last slide).
    if (round % 4 == 1 || round % 4 == 2) continue;
    manager.garbage_collect();
    check(round);
    checkpoints = manager.status("napper").counters.checkpoints;
  }
  EXPECT_GT(checkpoints, 0u);
  EXPECT_GT(manager.status("napper").counters.hydrations, 0u);
  EXPECT_GT(h.memo.tenant_usage(hash_string("capped")).quota_evictions, 0u);
  EXPECT_GT(testing::registry_counter("durability.segments_compacted"),
            cleaned_before);
  fs::remove_all(tier_dir);
}

// --- checkpoint identity ----------------------------------------------------

// The checkpoint manifest's identity word is job_hash ^ tenant_salt: one
// tenant's checkpoint must refuse to restore into another tenant's
// session, even for the identical job.
TEST(SessionManagerCheckpointIdentity, CrossTenantRestoreIsRejected) {
  Harness h;
  const auto bench = apps::make_microbenchmark(MicroApp::kHct);
  const testing::TempDir temp("slider_test_serving_identity");
  const fs::path& dir = temp.path;

  SliderConfig config_a = base_config();
  config_a.tenant = "tenant-a";
  config_a.run_gc = false;  // shared store: per-session GC would cross-collect
  SliderSession a(h.engine, h.memo, bench.job, config_a);
  a.initial_run(batch_for(MicroApp::kHct, kWindowSplits, 0));
  ASSERT_TRUE(a.checkpoint(dir.string()));

  SliderConfig config_b = base_config();
  config_b.tenant = "tenant-b";
  SliderSession b(h.engine, h.memo, bench.job, config_b);
  EXPECT_FALSE(b.restore(dir.string()));  // wrong tenant

  SliderConfig config_a2 = config_a;
  SliderSession a2(h.engine, h.memo, bench.job, config_a2);
  EXPECT_TRUE(a2.restore(dir.string()));  // right tenant
  EXPECT_EQ(output_bytes(a2), output_bytes(a));
}

// --- concurrent checkpoint/restore over a shared store ----------------------

// Many tenant sessions sharing one MemoStore + durable tier checkpoint
// concurrently, tear down, then restore concurrently — while one
// quota-tight tenant keeps sliding, so restores race that tenant's quota
// evictions against the shared store. Quota eviction only ever removes the
// evicting tenant's own salted entries, so the race must be benign: every
// restored session stays byte-identical to its single-tenant control.
TEST(SessionManagerConcurrent, CheckpointRestoreSharedStoreStaysByteIdentical) {
  constexpr std::size_t kTenants = 6;
  constexpr std::size_t kWarmRuns = 3;
  constexpr MicroApp kApps[] = {MicroApp::kHct, MicroApp::kSubStr};
  const auto control_hct = run_control(MicroApp::kHct, kWarmRuns + 1);
  const auto control_substr = run_control(MicroApp::kSubStr, kWarmRuns + 1);
  const auto control_of = [&](std::size_t i)
      -> const std::vector<std::vector<std::string>>& {
    return i % 2 == 0 ? control_hct : control_substr;
  };

  Harness h;
  const testing::TempDir temp("slider_test_serving_concurrent");
  const fs::path& root = temp.path;
  durability::DurableTier tier((root / "tier").string());
  h.memo.attach_durable_tier(&tier);

  // Warm phase: build every session and slide it kWarmRuns - 1 times.
  std::vector<std::unique_ptr<SliderSession>> sessions;
  std::vector<std::string> names;
  for (std::size_t i = 0; i < kTenants; ++i) {
    const MicroApp app = kApps[i % 2];
    names.push_back("ckpt-" + std::to_string(i));
    SliderConfig config = base_config();
    config.tenant = names.back();
    config.run_gc = false;  // shared store: per-session GC would cross-collect
    sessions.push_back(std::make_unique<SliderSession>(
        h.engine, h.memo, apps::make_microbenchmark(app).job, config));
    sessions.back()->initial_run(batch_for(app, kWindowSplits, 0));
    SplitId next_id = kWindowSplits;
    for (std::size_t run = 1; run < kWarmRuns; ++run) {
      sessions.back()->slide(kSlide, batch_for(app, kSlide, next_id));
      next_id += kSlide;
    }
    ASSERT_EQ(output_bytes(*sessions.back()),
              control_of(i)[kWarmRuns - 1]);
  }

  // One more tenant with a tiny quota, kept live across the whole test to
  // generate quota evictions concurrently with the restores below.
  SliderConfig churn_config = base_config();
  churn_config.tenant = "churn";
  churn_config.run_gc = false;
  h.memo.set_tenant_quota(hash_string("churn"), TenantQuota{.max_entries = 6});
  SliderSession churn(h.engine, h.memo,
                      apps::make_microbenchmark(MicroApp::kHct).job,
                      churn_config);
  churn.initial_run(batch_for(MicroApp::kHct, kWindowSplits, 0));

  // Concurrent checkpoint of all sessions into per-tenant spool dirs.
  std::vector<std::string> dirs;
  for (std::size_t i = 0; i < kTenants; ++i) {
    dirs.push_back((root / names[i]).string());
  }
  std::atomic<int> checkpoint_failures{0};
  {
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < kTenants; ++i) {
      threads.emplace_back([&, i] {
        if (!sessions[i]->checkpoint(dirs[i])) ++checkpoint_failures;
      });
    }
    for (auto& t : threads) t.join();
  }
  ASSERT_EQ(checkpoint_failures.load(), 0);
  sessions.clear();  // tear every warm session down

  // Concurrent restore, racing the churn tenant's quota evictions.
  std::atomic<bool> stop_churn{false};
  std::thread churner([&] {
    SplitId next_id = kWindowSplits;
    while (!stop_churn.load(std::memory_order_relaxed)) {
      churn.slide(kSlide, batch_for(MicroApp::kHct, kSlide, next_id));
      next_id += kSlide;
    }
  });
  std::vector<std::unique_ptr<SliderSession>> restored(kTenants);
  std::atomic<int> restore_failures{0};
  {
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < kTenants; ++i) {
      threads.emplace_back([&, i] {
        const MicroApp app = kApps[i % 2];
        SliderConfig config = base_config();
        config.tenant = names[i];
        config.run_gc = false;
        auto session = std::make_unique<SliderSession>(
            h.engine, h.memo, apps::make_microbenchmark(app).job, config);
        if (!session->restore(dirs[i])) {
          ++restore_failures;
          return;
        }
        restored[i] = std::move(session);
      });
    }
    for (auto& t : threads) t.join();
  }
  stop_churn.store(true);
  churner.join();
  ASSERT_EQ(restore_failures.load(), 0);

  // Every restored session serves the checkpoint-time bytes and its next
  // slide matches the control — the churn tenant's evictions never bled
  // into another tenant's state.
  EXPECT_GT(h.memo.tenant_usage(hash_string("churn")).quota_evictions, 0u)
      << "the race never actually exercised quota eviction";
  for (std::size_t i = 0; i < kTenants; ++i) {
    const MicroApp app = kApps[i % 2];
    ASSERT_NE(restored[i], nullptr);
    EXPECT_EQ(output_bytes(*restored[i]), control_of(i)[kWarmRuns - 1])
        << names[i] << " checkpoint bytes diverged";
    SplitId next_id = kWindowSplits + (kWarmRuns - 1) * kSlide;
    restored[i]->slide(kSlide, batch_for(app, kSlide, next_id));
    EXPECT_EQ(output_bytes(*restored[i]), control_of(i)[kWarmRuns])
        << names[i] << " post-restore slide diverged";
  }
}

// --- fleet endpoints --------------------------------------------------------

TEST(SessionManagerFleetEndpoints, HealthzTenantsMetricsAndTimeseries) {
  Harness h;
  SessionManagerOptions options;
  options.introspect_port = 0;  // ephemeral
  SessionManager manager(h.engine, h.memo, options);
  ASSERT_TRUE(manager.add_tenant(make_spec("fleet-a", MicroApp::kHct),
                                 batch_for(MicroApp::kHct, kWindowSplits, 0)));
  ASSERT_TRUE(manager.add_tenant(make_spec("fleet-b", MicroApp::kSubStr),
                                 batch_for(MicroApp::kSubStr, kWindowSplits,
                                           0)));
  manager.run_pending();

  ASSERT_TRUE(manager.start_introspection());
  const auto* server = manager.introspection();
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(server->running());
  const int port = server->port();
  ASSERT_GT(port, 0);

  const std::string health = http_get(port, "/healthz");
  EXPECT_NE(health.find("200"), std::string::npos);
  EXPECT_NE(health.find("\"status\""), std::string::npos);
  EXPECT_NE(health.find("\"ok\""), std::string::npos);  // no SLOs -> healthy
  EXPECT_NE(health.find("fleet-a"), std::string::npos);
  EXPECT_NE(health.find("fleet-b"), std::string::npos);

  const std::string tenants = http_get(port, "/tenants.json");
  EXPECT_NE(tenants.find("200"), std::string::npos);
  EXPECT_NE(tenants.find("fleet-a"), std::string::npos);
  EXPECT_NE(tenants.find("\"executed\""), std::string::npos);
  EXPECT_NE(tenants.find("\"memo_entries\""), std::string::npos);

  // The global /metrics exposition carries per-tenant ledger series.
  const std::string metrics = http_get(port, "/metrics");
  EXPECT_NE(metrics.find("200"), std::string::npos);
  EXPECT_NE(
      metrics.find("slider_tenant_runs_committed_total{tenant=\"fleet-a\"}"),
      std::string::npos);
  EXPECT_NE(metrics.find(
                "slider_tenant_work_combiner_invocations_total{"
                "tenant=\"fleet-b\",cause=\"initial_build\"}"),
            std::string::npos);

  // Per-tenant time-series routing: each tenant's private sink holds only
  // its own samples.
  const std::string series_a = http_get(port, "/timeseries.json?tenant=fleet-a");
  EXPECT_NE(series_a.find("200"), std::string::npos);
  EXPECT_NE(series_a.find("\"fleet-a\""), std::string::npos);
  EXPECT_EQ(series_a.find("\"fleet-b\""), std::string::npos);
  const std::string series_missing =
      http_get(port, "/timeseries.json?tenant=ghost");
  EXPECT_NE(series_missing.find("404"), std::string::npos);

  // The in-process probe agrees with the endpoint.
  const obs::TimeSeriesSnapshot snap = manager.tenant_series("fleet-a");
  ASSERT_FALSE(snap.raw.empty());
  for (const obs::SlideSample& sample : snap.raw) {
    EXPECT_EQ(sample.tenant_view(), "fleet-a");
  }
  EXPECT_TRUE(manager.tenant_series("ghost").raw.empty());
}

}  // namespace
}  // namespace slider
