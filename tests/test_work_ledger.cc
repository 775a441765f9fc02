// Causal work ledger + live introspection endpoint tests.
//
// The load-bearing property is *conservation*: every combiner invocation
// the trees count in aggregate must be attributed to exactly one cause in
// the ledger — Σ per-cause invocations == the aggregate counters, across
// all five tree variants, with and without split processing. A ledger that
// double-counts or leaks work would make every §7-style breakdown built on
// it a lie.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "apps/microbench.h"
#include "common/thread_pool.h"
#include "contraction/describe.h"
#include "durability/durable_tier.h"
#include "observability/introspection_server.h"
#include "observability/postmortem.h"
#include "observability/work_ledger.h"
#include "slider/session.h"
#include "tests/test_util.h"

namespace slider {
namespace {

namespace fs = std::filesystem;
using apps::MicroApp;
using obs::WorkCause;
using obs::WorkLedger;
using testing::registry_counter;

struct Harness {
  Harness()
      : cluster(ClusterConfig{.num_machines = 8, .slots_per_machine = 2}),
        engine(cluster, cost),
        memo(cluster, cost) {}

  CostModel cost{};
  Cluster cluster;
  VanillaEngine engine;
  MemoStore memo;
};

std::vector<SplitPtr> make_app_splits(MicroApp app, Rng& rng,
                                      std::size_t splits,
                                      std::size_t records_per_split,
                                      SplitId first_id) {
  auto records = apps::generate_input(app, splits * records_per_split, rng,
                                      first_id * 1'000'000);
  return make_splits(std::move(records), records_per_split, first_id);
}

std::uint64_t aggregate_invocations_counter() {
  return registry_counter("tree.combiner_invocations");
}

// --- conservation across all variants ----------------------------------------

struct VariantCase {
  WindowMode mode;
  TreeKind kind;
  bool split_processing;
};

std::string variant_name(const ::testing::TestParamInfo<VariantCase>& info) {
  std::string name;
  switch (info.param.kind) {
    case TreeKind::kStrawman: name = "strawman"; break;
    case TreeKind::kFolding: name = "folding"; break;
    case TreeKind::kRandomizedFolding: name = "randomized"; break;
    case TreeKind::kRotating: name = "rotating"; break;
    case TreeKind::kCoalescing: name = "coalescing"; break;
  }
  switch (info.param.mode) {
    case WindowMode::kAppendOnly: name += "_append"; break;
    case WindowMode::kFixedWidth: name += "_fixed"; break;
    case WindowMode::kVariableWidth: name += "_variable"; break;
  }
  if (info.param.split_processing) name += "_split";
  return name;
}

class WorkLedgerConservation : public ::testing::TestWithParam<VariantCase> {};

TEST_P(WorkLedgerConservation, PerCauseSumsMatchAggregateCounters) {
  const VariantCase c = GetParam();
  Harness h;
  const auto bench = apps::make_microbenchmark(MicroApp::kHct);
  Rng rng(42);

  constexpr std::size_t kWindowSplits = 16;
  constexpr std::size_t kRecordsPerSplit = 20;
  constexpr std::size_t kSlide = 4;

  SliderConfig config;
  config.mode = c.mode;
  config.tree_kind = c.kind;
  config.split_processing = c.split_processing;
  config.bucket_width = kSlide;
  SliderSession session(h.engine, h.memo, bench.job, config);

  const obs::LedgerSnapshot before = WorkLedger::global().snapshot();
  const std::uint64_t counter_before = aggregate_invocations_counter();
  std::uint64_t foreground_invocations = 0;

  RunMetrics m = session.initial_run(
      make_app_splits(MicroApp::kHct, rng, kWindowSplits, kRecordsPerSplit, 0));
  foreground_invocations += m.combiner_invocations;

  SplitId next_id = kWindowSplits;
  const std::size_t remove =
      c.mode == WindowMode::kAppendOnly ? 0 : kSlide;
  for (int slide = 0; slide < 3; ++slide) {
    m = session.slide(remove, make_app_splits(MicroApp::kHct, rng, kSlide,
                                              kRecordsPerSplit, next_id));
    next_id += kSlide;
    foreground_invocations += m.combiner_invocations;
    if (c.split_processing) session.run_background();
  }

  const obs::LedgerSnapshot after = WorkLedger::global().snapshot();
  const std::uint64_t counter_after = aggregate_invocations_counter();

  // Conservation: the per-cause invocation totals committed to the ledger
  // during this session sum exactly to the aggregate stats counter the
  // trees have always maintained — no double count, no leak.
  EXPECT_EQ(after.total_invocations() - before.total_invocations(),
            counter_after - counter_before);

  // And the ledger never under-covers the foreground RunMetrics (the
  // background phase adds more on top for ±split configs).
  EXPECT_GE(after.total_invocations() - before.total_invocations(),
            foreground_invocations);
  if (!c.split_processing) {
    EXPECT_EQ(after.total_invocations() - before.total_invocations(),
              foreground_invocations);
  } else {
    // Background preprocessing must be attributed to its own cause.
    EXPECT_GT(after.total_for(WorkCause::kBackgroundPreprocess)
                      .combiner_invocations -
                  before.total_for(WorkCause::kBackgroundPreprocess)
                      .combiner_invocations,
              0u);
  }

  // The initial build and the slides were attributed where they belong.
  EXPECT_GT(after.total_for(WorkCause::kInitialBuild).combiner_invocations -
                before.total_for(WorkCause::kInitialBuild).combiner_invocations,
            0u);
  EXPECT_GT(after.total_for(WorkCause::kWindowAdd).combiner_invocations -
                before.total_for(WorkCause::kWindowAdd).combiner_invocations,
            0u);
  EXPECT_GE(after.runs_committed, before.runs_committed + 4);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, WorkLedgerConservation,
    ::testing::Values(
        VariantCase{WindowMode::kVariableWidth, TreeKind::kFolding, false},
        VariantCase{WindowMode::kVariableWidth, TreeKind::kRandomizedFolding,
                    false},
        VariantCase{WindowMode::kVariableWidth, TreeKind::kStrawman, false},
        VariantCase{WindowMode::kFixedWidth, TreeKind::kRotating, false},
        VariantCase{WindowMode::kFixedWidth, TreeKind::kRotating, true},
        VariantCase{WindowMode::kAppendOnly, TreeKind::kCoalescing, false},
        VariantCase{WindowMode::kAppendOnly, TreeKind::kCoalescing, true}),
    variant_name);

// --- conservation with the flat aggregation tier ------------------------------

// A partition that bypasses the tree must not leave the observability
// stack reading stale zeros: conservation has to hold, the reuse gauges
// that feed memo hit-rate have to move, and tree.run_invocations has to
// keep sampling runs. Parameterized on the tier switch so the identical
// assertions pass with the tier engaged and disengaged.
class WorkLedgerFlatTier : public ::testing::TestWithParam<bool> {};

TEST_P(WorkLedgerFlatTier, ConservationAndGaugesWithTierToggled) {
  const bool tier_enabled = GetParam();
  Harness h;
  // substr's count-sum combiner is flat-eligible; with the tier disabled
  // the same job takes the folding-tree path.
  const auto bench = apps::make_microbenchmark(MicroApp::kSubStr);
  ASSERT_TRUE(bench.job.traits.flat_eligible());
  Rng rng(42);

  constexpr std::size_t kWindowSplits = 16;
  constexpr std::size_t kRecordsPerSplit = 20;
  constexpr std::size_t kSlide = 4;

  SliderConfig config;
  config.mode = WindowMode::kVariableWidth;
  config.enable_flat_tier = tier_enabled;
  SliderSession session(h.engine, h.memo, bench.job, config);
  ASSERT_EQ(session.describe_tree(0).kind, tier_enabled ? "flat" : "folding");

  obs::StatsRegistry& stats = obs::StatsRegistry::global();
  const obs::LedgerSnapshot before = WorkLedger::global().snapshot();
  const std::uint64_t counter_before = aggregate_invocations_counter();
  const std::uint64_t reused_before =
      stats.counter("tree.combiner_reused").value();
  const std::uint64_t runs_sampled_before =
      stats.histogram("tree.run_invocations").count();
  std::uint64_t foreground_invocations = 0;

  RunMetrics m = session.initial_run(make_app_splits(
      MicroApp::kSubStr, rng, kWindowSplits, kRecordsPerSplit, 0));
  foreground_invocations += m.combiner_invocations;

  SplitId next_id = kWindowSplits;
  for (int slide = 0; slide < 3; ++slide) {
    m = session.slide(kSlide, make_app_splits(MicroApp::kSubStr, rng, kSlide,
                                              kRecordsPerSplit, next_id));
    next_id += kSlide;
    foreground_invocations += m.combiner_invocations;
  }

  const obs::LedgerSnapshot after = WorkLedger::global().snapshot();
  const std::uint64_t counter_after = aggregate_invocations_counter();

  // Conservation holds with the tier in either position.
  EXPECT_EQ(after.total_invocations() - before.total_invocations(),
            counter_after - counter_before);
  EXPECT_EQ(after.total_invocations() - before.total_invocations(),
            foreground_invocations);

  // Per-cause cells: builds bill to initial_build, inserts to window_add,
  // evictions (lane subtracts) to window_remove.
  EXPECT_GT(after.total_for(WorkCause::kInitialBuild).combiner_invocations -
                before.total_for(WorkCause::kInitialBuild).combiner_invocations,
            0u);
  EXPECT_GT(after.total_for(WorkCause::kWindowAdd).combiner_invocations -
                before.total_for(WorkCause::kWindowAdd).combiner_invocations,
            0u);
  EXPECT_GT(after.total_for(WorkCause::kWindowRemove).combiner_invocations -
                before.total_for(WorkCause::kWindowRemove).combiner_invocations,
            0u);

  // The reuse gauge that feeds memo hit-rate must move: the flat tier's
  // standing aggregate is a reuse per slide, just like a memoized subtree.
  EXPECT_GT(stats.counter("tree.combiner_reused").value() - reused_before, 0u);
  // And every run still lands a tree.run_invocations sample.
  EXPECT_GE(stats.histogram("tree.run_invocations").count() -
                runs_sampled_before,
            4u);
  EXPECT_GE(after.runs_committed, before.runs_committed + 4);
}

INSTANTIATE_TEST_SUITE_P(TierOnOff, WorkLedgerFlatTier, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? std::string("flat_enabled")
                                             : std::string("flat_disabled");
                         });

// --- cause attribution: memo eviction ----------------------------------------

TEST(WorkLedgerCauses, MemoBudgetEvictionsSurfaceAsEvictionRecompute) {
  Harness h;
  const auto bench = apps::make_microbenchmark(MicroApp::kHct);
  Rng rng(7);

  // A tight entry budget whole-entry-drops memoized nodes the trees still
  // reference; the forced recomputes must bill to memo_eviction_recompute,
  // not to the window delta.
  h.memo.set_entry_budget(8);

  SliderConfig config;
  config.mode = WindowMode::kVariableWidth;
  SliderSession session(h.engine, h.memo, bench.job, config);

  const MemoStoreStats store_before = h.memo.stats();
  const std::uint64_t budget_before = registry_counter("memo.evictions_budget");
  const std::uint64_t forced_before =
      registry_counter("memo.eviction_forced_misses");
  const obs::LedgerSnapshot before = WorkLedger::global().snapshot();
  session.initial_run(make_app_splits(MicroApp::kHct, rng, 16, 20, 0));
  SplitId next_id = 16;
  for (int slide = 0; slide < 3; ++slide) {
    session.slide(4, make_app_splits(MicroApp::kHct, rng, 4, 20, next_id));
    next_id += 4;
  }
  const obs::LedgerSnapshot after = WorkLedger::global().snapshot();

  EXPECT_GT(
      after.total_for(WorkCause::kMemoEvictionRecompute).combiner_invocations,
      before.total_for(WorkCause::kMemoEvictionRecompute).combiner_invocations);
  // The recompute re-memoizes what it rebuilt: those bytes bill to the
  // same cause as its invocation.
  EXPECT_GT(
      after.total_for(WorkCause::kMemoEvictionRecompute).memo_bytes_written,
      before.total_for(WorkCause::kMemoEvictionRecompute).memo_bytes_written);

  // Each eviction and each miss it forces counts once: the process-wide
  // counters move by exactly the store's own tallies.
  const MemoStoreStats store = h.memo.stats();
  const std::uint64_t evictions =
      store.budget_evictions - store_before.budget_evictions;
  const std::uint64_t forced =
      store.eviction_forced_misses - store_before.eviction_forced_misses;
  EXPECT_GT(evictions, 0u);
  EXPECT_GT(forced, 0u);
  EXPECT_EQ(registry_counter("memo.evictions_budget") - budget_before,
            evictions);
  EXPECT_EQ(registry_counter("memo.eviction_forced_misses") - forced_before,
            forced);
}

// --- cause attribution: recovery replay --------------------------------------

TEST(WorkLedgerCauses, PostRestoreSlidesBillToRecoveryReplay) {
  const auto bench = apps::make_microbenchmark(MicroApp::kHct);
  const testing::TempDir temp("slider_ledger_recovery_test");
  const fs::path& dir = temp.path;
  const std::string ckpt_dir = (dir / "checkpoint").string();
  const std::string tier_dir = (dir / "memo").string();

  ClusterConfig cluster_config{.num_machines = 8, .slots_per_machine = 2};
  CostModel cost;
  Cluster cluster(cluster_config);
  VanillaEngine engine(cluster, cost);

  SliderConfig config;
  config.mode = WindowMode::kVariableWidth;

  auto make_batch = [&](std::size_t count, SplitId first_id) {
    Rng rng(300 + first_id);
    auto records = apps::generate_input(MicroApp::kHct, count * 20, rng,
                                        first_id * 1'000'000);
    return make_splits(std::move(records), 20, first_id);
  };

  {
    durability::DurableTier tier(tier_dir);
    MemoStore memo(cluster, cost);
    memo.attach_durable_tier(&tier);
    SliderSession session(engine, memo, bench.job, config);
    session.initial_run(make_batch(12, 0));
    session.slide(3, make_batch(3, 12));
    ASSERT_TRUE(session.checkpoint(ckpt_dir));
    memo.flush_durable();
    tier.close();
  }

  durability::DurableTier tier(tier_dir);
  MemoStore memo(cluster, cost);
  memo.attach_durable_tier(&tier);
  const std::uint64_t entries_before =
      registry_counter("memo.restored_entries");
  const std::uint64_t bytes_before = registry_counter("memo.restored_bytes");
  const std::size_t installed = memo.restore_from_durable();
  ASSERT_GT(installed, 0u);
  // The store is fresh: everything it holds now is what restore installed.
  EXPECT_EQ(registry_counter("memo.restored_entries") - entries_before,
            installed);
  EXPECT_EQ(registry_counter("memo.restored_bytes") - bytes_before,
            memo.total_bytes());
  EXPECT_EQ(memo.stats().recovered_entries, installed);
  SliderSession restored(engine, memo, bench.job, config);
  ASSERT_TRUE(restored.restore(ckpt_dir));
  ASSERT_TRUE(restored.recovery_replay_active());

  // Catch-up slides after a restore re-execute work the pre-crash process
  // already did: they bill to recovery_replay, not window_add.
  const obs::LedgerSnapshot before = WorkLedger::global().snapshot();
  restored.slide(3, make_batch(3, 15));
  const obs::LedgerSnapshot mid = WorkLedger::global().snapshot();
  EXPECT_GT(mid.total_for(WorkCause::kRecoveryReplay).combiner_invocations,
            before.total_for(WorkCause::kRecoveryReplay).combiner_invocations);
  EXPECT_EQ(mid.total_for(WorkCause::kWindowAdd).combiner_invocations,
            before.total_for(WorkCause::kWindowAdd).combiner_invocations);

  // Once the caller declares catch-up finished, attribution is normal.
  restored.end_recovery_replay();
  ASSERT_FALSE(restored.recovery_replay_active());
  restored.slide(3, make_batch(3, 18));
  const obs::LedgerSnapshot after = WorkLedger::global().snapshot();
  EXPECT_EQ(after.total_for(WorkCause::kRecoveryReplay).combiner_invocations,
            mid.total_for(WorkCause::kRecoveryReplay).combiner_invocations);
  EXPECT_GT(after.total_for(WorkCause::kWindowAdd).combiner_invocations,
            mid.total_for(WorkCause::kWindowAdd).combiner_invocations);
}

// --- introspection endpoint ---------------------------------------------------

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

// A session with the endpoint live on an ephemeral port.
struct LiveSession {
  LiveSession() {
    config.mode = WindowMode::kFixedWidth;
    config.bucket_width = 2;
    config.introspect_port = 0;
    session = std::make_unique<SliderSession>(h.engine, h.memo,
                                              apps::make_microbenchmark(
                                                  MicroApp::kHct)
                                                  .job,
                                              config);
    Rng rng(11);
    session->initial_run(make_app_splits(MicroApp::kHct, rng, 8, 15, 0));
  }

  Harness h;
  SliderConfig config;
  std::unique_ptr<SliderSession> session;
};

TEST(IntrospectionEndpoint, ServesEveryRouteOverARealSocket) {
  LiveSession live;
  const auto* server = live.session->introspection();
  ASSERT_NE(server, nullptr);
  ASSERT_TRUE(server->running());
  const int port = server->port();
  ASSERT_GT(port, 0);

  const std::string health = http_get(port, "/healthz");
  EXPECT_NE(health.find("200"), std::string::npos);
  // The session's /healthz body is one compact JSON document (the
  // degrade-drain tests match its "status":"ok" byte for byte); its fault
  // counters are the process-wide registry counters.
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos);
  const std::size_t body_at = health.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const auto doc =
      obs::parse_json(std::string_view(health).substr(body_at + 4));
  ASSERT_TRUE(doc.has_value()) << health;
  const obs::JsonValue& root = *doc;
  EXPECT_EQ(root["status"].as_string(), "ok");
  EXPECT_EQ(root["machines"]["total"].as_u64(0), 8u);
  EXPECT_EQ(root["machines"]["failed"].as_u64(1), 0u);
  EXPECT_FALSE(root["durable"]["degraded"].as_bool(true));
  EXPECT_EQ(root["durable"]["backlog"].as_u64(1), 0u);
  const obs::JsonValue& faults = root["faults"];
  const std::uint64_t kMissing = ~std::uint64_t{0};
  EXPECT_EQ(faults["failures_injected"].as_u64(kMissing),
            registry_counter("failures.injected"));
  EXPECT_EQ(faults["task_retries"].as_u64(kMissing),
            registry_counter("task.retries"));
  EXPECT_EQ(faults["machines_blacklisted"].as_u64(kMissing),
            registry_counter("machines.blacklisted"));
  EXPECT_EQ(faults["failure_forced_misses"].as_u64(kMissing),
            registry_counter("memo.failure_forced_misses"));
  const obs::JsonValue& slo = root["slo"];
  EXPECT_EQ(slo["configured"].as_u64(kMissing), 0u);
  EXPECT_EQ(slo["breached"].as_u64(kMissing), 0u);
  EXPECT_EQ(slo["burning"].as_u64(kMissing), 0u);
  EXPECT_TRUE(slo["verdicts"].is_array());

  const std::string metrics = http_get(port, "/metrics");
  EXPECT_NE(metrics.find("200"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("# TYPE"), std::string::npos);
  // Prometheus exposition: counters carry _total, histograms end at +Inf.
  EXPECT_NE(metrics.find("_total"), std::string::npos);
  EXPECT_NE(metrics.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(metrics.find("slider_work_combiner_invocations_total{cause=\"initial_build\"}"),
            std::string::npos);
  // The scheduler runs no backup copies, so no cause exports one.
  EXPECT_EQ(metrics.find("cause=\"speculative_reexec\""), std::string::npos);

  const std::string ledger = http_get(port, "/ledger.json");
  EXPECT_NE(ledger.find("200"), std::string::npos);
  EXPECT_NE(ledger.find("\"totals_by_cause\""), std::string::npos);
  // Event counters live in the registry (/metrics), not in the ledger.
  EXPECT_EQ(ledger.find("\"counters\""), std::string::npos);

  const std::string tree = http_get(port, "/tree?partition=0");
  EXPECT_NE(tree.find("200"), std::string::npos);
  EXPECT_NE(tree.find("\"nodes\""), std::string::npos);

  const std::string dot = http_get(port, "/tree?partition=0&format=dot");
  EXPECT_NE(dot.find("200"), std::string::npos);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);

  const std::string trace = http_get(port, "/trace");
  EXPECT_NE(trace.find("200"), std::string::npos);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);

  const std::string index = http_get(port, "/");
  EXPECT_NE(index.find("200"), std::string::npos);

  const std::string missing = http_get(port, "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);

  const std::string bad_partition = http_get(port, "/tree?partition=zzz");
  EXPECT_NE(bad_partition.find("400"), std::string::npos);
}

TEST(IntrospectionEndpoint, RejectsMalformedAndNonGetRequests) {
  obs::IntrospectionServer server({.port = 0});
  EXPECT_EQ(server.handle_raw_request("GARBAGE\r\n\r\n").find("HTTP/1.0 400"),
            0u);
  EXPECT_EQ(server.handle_raw_request("").find("HTTP/1.0 400"), 0u);
  EXPECT_EQ(
      server.handle_raw_request("POST /healthz HTTP/1.0\r\n\r\n").find("405"),
      9u);
  // HEAD is allowed and returns headers only.
  const std::string head =
      server.handle_raw_request("HEAD /healthz HTTP/1.0\r\n\r\n");
  EXPECT_NE(head.find("200"), std::string::npos);
  EXPECT_EQ(head.find("ok\n"), std::string::npos);
}

TEST(IntrospectionEndpoint, FallsBackToEphemeralWhenPortBusy) {
  obs::IntrospectionServer first({.port = 0});
  ASSERT_TRUE(first.start());
  const int taken = first.port();

  obs::IntrospectionServer second(
      {.port = static_cast<std::uint16_t>(taken),
       .fallback_to_ephemeral = true});
  ASSERT_TRUE(second.start());
  EXPECT_NE(second.port(), taken);
  EXPECT_GT(second.port(), 0);

  // Without fallback, binding the same port must fail cleanly.
  obs::IntrospectionServer third(
      {.port = static_cast<std::uint16_t>(taken),
       .fallback_to_ephemeral = false});
  EXPECT_FALSE(third.start());

  second.stop();
  first.stop();
}

TEST(IntrospectionEndpoint, DisabledByDefaultWithNoServerObject) {
  Harness h;
  SliderConfig config;  // introspect_port = -1
  SliderSession session(h.engine, h.memo,
                        apps::make_microbenchmark(MicroApp::kHct).job, config);
  EXPECT_EQ(session.introspection(), nullptr);
}

// --- concurrent scrape during a threaded slide (tsan) ------------------------

TEST(WorkLedgerConcurrency, MetricsScrapeDuringThreadedSlide) {
  struct GlobalThreadsGuard {
    explicit GlobalThreadsGuard(int threads) {
      ThreadPool::set_global_threads(threads);
    }
    ~GlobalThreadsGuard() { ThreadPool::set_global_threads(0); }
  } guard(4);

  LiveSession live;
  const int port = live.session->introspection()->port();

  std::atomic<bool> done{false};
  std::atomic<int> scrapes{0};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const std::string metrics = http_get(port, "/metrics");
      const std::string ledger = http_get(port, "/ledger.json");
      const std::string tree = http_get(port, "/tree?partition=0");
      if (metrics.find("200") != std::string::npos &&
          ledger.find("200") != std::string::npos &&
          tree.find("200") != std::string::npos) {
        scrapes.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  Rng rng(23);
  SplitId next_id = 8;
  for (int slide = 0; slide < 6; ++slide) {
    live.session->slide(2,
                        make_app_splits(MicroApp::kHct, rng, 2, 15, next_id));
    next_id += 2;
  }
  done.store(true, std::memory_order_relaxed);
  scraper.join();
  EXPECT_GT(scrapes.load(), 0);
}

}  // namespace
}  // namespace slider
