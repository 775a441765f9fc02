// SliderSession integration tests: for every window mode and application,
// the incremental output must be bit-identical to recomputing from scratch
// with the vanilla engine, while doing asymptotically less work.

#include <gtest/gtest.h>

#include <unordered_set>

#include "apps/microbench.h"
#include "slider/session.h"

namespace slider {
namespace {

using apps::MicroApp;

struct Harness {
  Harness() : cluster(ClusterConfig{.num_machines = 8, .slots_per_machine = 2}),
              engine(cluster, cost),
              memo(cluster, cost) {}

  ClusterConfig unused{};
  CostModel cost{};
  Cluster cluster;
  VanillaEngine engine;
  MemoStore memo;
};

std::vector<SplitPtr> make_app_splits(MicroApp app, Rng& rng,
                                      std::size_t splits,
                                      std::size_t records_per_split,
                                      SplitId first_id) {
  auto records =
      apps::generate_input(app, splits * records_per_split, rng,
                           first_id * 1'000'000);
  return make_splits(std::move(records), records_per_split, first_id);
}

void expect_same_output(const std::vector<KVTable>& a,
                        const std::vector<KVTable>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t p = 0; p < a.size(); ++p) {
    ASSERT_EQ(a[p], b[p]) << "partition " << p;
  }
}

// --- parameterized across apps × modes -------------------------------------

struct Case {
  MicroApp app;
  WindowMode mode;
  bool split_processing;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  const auto bench = apps::make_microbenchmark(info.param.app);
  std::string name = bench.job.name;
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  switch (info.param.mode) {
    case WindowMode::kAppendOnly: name += "_append"; break;
    case WindowMode::kFixedWidth: name += "_fixed"; break;
    case WindowMode::kVariableWidth: name += "_variable"; break;
  }
  if (info.param.split_processing) name += "_split";
  return name;
}

class SessionMatchesVanilla : public ::testing::TestWithParam<Case> {};

TEST_P(SessionMatchesVanilla, AcrossSlides) {
  const Case c = GetParam();
  Harness h;
  const auto bench = apps::make_microbenchmark(c.app);
  Rng rng(1234);

  constexpr std::size_t kWindowSplits = 20;
  constexpr std::size_t kRecordsPerSplit = 30;
  constexpr std::size_t kSlide = 4;

  SliderConfig config;
  config.mode = c.mode;
  config.split_processing = c.split_processing;
  config.bucket_width = kSlide;
  SliderSession session(h.engine, h.memo, bench.job, config);

  auto splits =
      make_app_splits(c.app, rng, kWindowSplits, kRecordsPerSplit, 0);
  std::vector<SplitPtr> window = splits;
  session.initial_run(splits);
  {
    const JobResult vanilla = h.engine.run(bench.job, window);
    expect_same_output(session.output(), vanilla.partition_outputs);
  }

  SplitId next_id = kWindowSplits;
  for (int slide = 0; slide < 4; ++slide) {
    const std::size_t remove =
        c.mode == WindowMode::kAppendOnly ? 0 : kSlide;
    auto added =
        make_app_splits(c.app, rng, kSlide, kRecordsPerSplit, next_id);
    next_id += kSlide;

    session.slide(remove, added);
    window.erase(window.begin(),
                 window.begin() + static_cast<std::ptrdiff_t>(remove));
    for (const auto& s : added) window.push_back(s);

    const JobResult vanilla = h.engine.run(bench.job, window);
    expect_same_output(session.output(), vanilla.partition_outputs);

    if (c.split_processing) session.run_background();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAppsAllModes, SessionMatchesVanilla,
    ::testing::Values(
        Case{MicroApp::kKMeans, WindowMode::kAppendOnly, false},
        Case{MicroApp::kKMeans, WindowMode::kFixedWidth, false},
        Case{MicroApp::kKMeans, WindowMode::kVariableWidth, false},
        Case{MicroApp::kHct, WindowMode::kAppendOnly, false},
        Case{MicroApp::kHct, WindowMode::kFixedWidth, false},
        Case{MicroApp::kHct, WindowMode::kVariableWidth, false},
        Case{MicroApp::kKnn, WindowMode::kAppendOnly, false},
        Case{MicroApp::kKnn, WindowMode::kFixedWidth, false},
        Case{MicroApp::kKnn, WindowMode::kVariableWidth, false},
        Case{MicroApp::kMatrix, WindowMode::kAppendOnly, false},
        Case{MicroApp::kMatrix, WindowMode::kFixedWidth, false},
        Case{MicroApp::kMatrix, WindowMode::kVariableWidth, false},
        Case{MicroApp::kSubStr, WindowMode::kAppendOnly, false},
        Case{MicroApp::kSubStr, WindowMode::kFixedWidth, false},
        Case{MicroApp::kSubStr, WindowMode::kVariableWidth, false},
        Case{MicroApp::kHct, WindowMode::kAppendOnly, true},
        Case{MicroApp::kHct, WindowMode::kFixedWidth, true},
        Case{MicroApp::kKMeans, WindowMode::kAppendOnly, true},
        Case{MicroApp::kKMeans, WindowMode::kFixedWidth, true}),
    case_name);

// --- behavioural properties --------------------------------------------------

TEST(SliderSession, IncrementalWorkBeatsRecompute) {
  Harness h;
  const auto bench = apps::make_microbenchmark(MicroApp::kKMeans);
  Rng rng(7);

  SliderConfig config;
  config.mode = WindowMode::kFixedWidth;
  config.bucket_width = 2;
  SliderSession session(h.engine, h.memo, bench.job, config);

  auto splits = make_app_splits(MicroApp::kKMeans, rng, 40, 50, 0);
  std::vector<SplitPtr> window = splits;
  session.initial_run(splits);

  auto added = make_app_splits(MicroApp::kKMeans, rng, 2, 50, 40);
  const RunMetrics incremental = session.slide(2, added);
  window.erase(window.begin(), window.begin() + 2);
  for (const auto& s : added) window.push_back(s);
  const JobResult vanilla = h.engine.run(bench.job, window);

  // 5% change on a compute-intensive app: work must be far below scratch.
  EXPECT_LT(incremental.work(), vanilla.metrics.work() / 5);
  EXPECT_LT(incremental.time, vanilla.metrics.time);
}

TEST(SliderSession, StrawmanDoesMoreContractionWorkThanSlider) {
  const auto bench = apps::make_microbenchmark(MicroApp::kHct);
  Rng rng(11);
  auto splits = make_app_splits(MicroApp::kHct, rng, 32, 40, 0);
  auto added = make_app_splits(MicroApp::kHct, rng, 2, 40, 32);

  auto run_mode = [&](std::optional<TreeKind> kind) {
    Harness h;
    SliderConfig config;
    config.mode = WindowMode::kFixedWidth;
    config.bucket_width = 2;
    config.tree_kind = kind;
    SliderSession session(h.engine, h.memo, bench.job, config);
    session.initial_run(splits);
    return session.slide(2, added);
  };

  const RunMetrics slider_metrics = run_mode(std::nullopt);  // rotating
  const RunMetrics strawman_metrics = run_mode(TreeKind::kStrawman);
  EXPECT_LT(slider_metrics.contraction_work,
            strawman_metrics.contraction_work);
}

// GC erases exactly the ids each run released, so after every run the
// store must hold the session's live ids: no more (a leak), no fewer (an
// over-release).
void expect_store_holds_live_set(const SliderSession& session,
                                 const MemoStore& memo) {
  std::unordered_set<NodeId> live;
  session.collect_live_ids(live);
  ASSERT_EQ(memo.size(), live.size());
  for (const NodeId id : live) ASSERT_TRUE(memo.contains(id)) << id;
}

TEST(SliderSession, GarbageCollectionBoundsMemoState) {
  struct GcCase {
    const char* name;
    WindowMode mode;
    TreeKind kind;
    bool split_processing;
  };
  const GcCase cases[] = {
      {"folding", WindowMode::kVariableWidth, TreeKind::kFolding, false},
      {"randomized", WindowMode::kVariableWidth,
       TreeKind::kRandomizedFolding, false},
      {"strawman", WindowMode::kVariableWidth, TreeKind::kStrawman, false},
      {"rotating", WindowMode::kFixedWidth, TreeKind::kRotating, false},
      {"rotating_split", WindowMode::kFixedWidth, TreeKind::kRotating, true},
      {"coalescing", WindowMode::kAppendOnly, TreeKind::kCoalescing, false},
      {"coalescing_split", WindowMode::kAppendOnly, TreeKind::kCoalescing,
       true},
  };
  const auto bench = apps::make_microbenchmark(MicroApp::kHct);
  for (const GcCase& c : cases) {
    SCOPED_TRACE(c.name);
    Harness h;
    Rng rng(3);
    SliderConfig config;
    config.mode = c.mode;
    config.tree_kind = c.kind;
    config.split_processing = c.split_processing;
    config.bucket_width = 2;
    SliderSession session(h.engine, h.memo, bench.job, config);

    std::size_t window = 16;
    session.initial_run(make_app_splits(MicroApp::kHct, rng, window, 30, 0));
    expect_store_holds_live_set(session, h.memo);
    const std::size_t entries_after_initial = h.memo.size();
    const std::uint64_t bytes_after_initial = h.memo.total_bytes();

    SplitId next_id = 16;
    for (int slide = 0; slide < 10; ++slide) {
      std::size_t remove = 2;
      std::size_t add = 2;
      if (c.mode == WindowMode::kAppendOnly) {
        remove = 0;
      } else if (c.mode == WindowMode::kVariableWidth) {
        // Uneven slides fold and unfold the tree; the last one drops the
        // whole window.
        remove = slide == 9 ? window : 1 + slide % 4;
        add = 1 + (slide * 3) % 4;
      }
      session.slide(remove,
                    make_app_splits(MicroApp::kHct, rng, add, 30, next_id));
      next_id += add;
      window += add - remove;
      expect_store_holds_live_set(session, h.memo);
      if (c.split_processing && slide % 3 != 2) {
        // Background every third slide skipped: the next slide catches up
        // in the foreground.
        session.run_background();
        expect_store_holds_live_set(session, h.memo);
      }
    }
    if (c.mode == WindowMode::kFixedWidth) {
      // Steady state: one window's worth of nodes, not ten.
      EXPECT_LT(h.memo.size(), entries_after_initial * 2);
      EXPECT_LT(h.memo.total_bytes(), bytes_after_initial * 2);
    }
  }
}

// Pass-through mapper: the poison test below needs the map output to carry
// a value verbatim.
class PassThroughMapper final : public Mapper {
 public:
  void map(const Record& input, Emitter& out) const override {
    out.emit(input.key, input.value);
  }
};

// The flat tier releases evicted elements; a mid-stream poison hands the
// window to its fallback tree, which takes over the element ids without
// releasing them. The store tracks the live set across the demotion.
TEST(SliderSession, GarbageCollectionTracksFlatTierAcrossPoison) {
  Harness h;
  JobSpec job;
  job.name = "gc-flat-poison";
  job.mapper = std::make_shared<PassThroughMapper>();
  job.combiner = [](const std::string&, const std::string& a,
                    const std::string& b) {
    return std::to_string(std::stoull(a) + std::stoull(b));
  };
  job.reducer = [](const std::string&,
                   const std::string& v) -> std::optional<std::string> {
    return v;
  };
  job.num_partitions = 2;
  job.traits.commutative = true;
  job.traits.exactly_associative = true;
  job.traits.flat_kernel = FlatKernel::kSumU64;
  SliderSession session(h.engine, h.memo, job, SliderConfig{});

  const auto split = [](SplitId id, std::string value) {
    return make_split(id, {{"k" + std::to_string(id % 5), std::move(value)},
                           {"shared", "1"}});
  };
  std::vector<SplitPtr> initial;
  for (SplitId id = 0; id < 8; ++id) initial.push_back(split(id, "3"));
  session.initial_run(std::move(initial));
  expect_store_holds_live_set(session, h.memo);
  ASSERT_EQ(session.describe_tree(0).kind, "flat");

  for (SplitId id = 8; id < 20; ++id) {
    // "007" decodes as 7 but is not canonical: it demotes the tier.
    session.slide(id % 3, {split(id, id == 12 ? "007" : "2")});
    expect_store_holds_live_set(session, h.memo);
  }
  EXPECT_NE(session.describe_tree(0).kind, "flat");
}

TEST(SliderSession, SurvivesMachineFailureWithIdenticalOutput) {
  Harness h;
  const auto bench = apps::make_microbenchmark(MicroApp::kHct);
  Rng rng(5);

  SliderConfig config;
  config.mode = WindowMode::kFixedWidth;
  config.bucket_width = 2;
  SliderSession session(h.engine, h.memo, bench.job, config);

  auto splits = make_app_splits(MicroApp::kHct, rng, 16, 30, 0);
  std::vector<SplitPtr> window = splits;
  session.initial_run(splits);

  // Kill a machine: its in-memory memo copies are gone; persistent
  // replicas keep the session correct (at higher read cost).
  h.cluster.fail_machine(2);
  h.memo.drop_memory_on_failed();

  auto added = make_app_splits(MicroApp::kHct, rng, 2, 30, 16);
  const RunMetrics metrics = session.slide(2, added);
  window.erase(window.begin(), window.begin() + 2);
  for (const auto& s : added) window.push_back(s);

  h.cluster.recover_machine(2);
  const JobResult vanilla = h.engine.run(bench.job, window);
  expect_same_output(session.output(), vanilla.partition_outputs);
  EXPECT_GT(metrics.memo_read_work, 0.0);
}

TEST(SliderSession, SplitProcessingShiftsWorkToBackground) {
  const auto bench = apps::make_microbenchmark(MicroApp::kHct);
  Rng rng(17);
  auto splits = make_app_splits(MicroApp::kHct, rng, 32, 40, 0);

  auto run_with = [&](bool split) {
    Harness h;
    SliderConfig config;
    config.mode = WindowMode::kFixedWidth;
    config.bucket_width = 4;
    config.split_processing = split;
    SliderSession session(h.engine, h.memo, bench.job, config);
    session.initial_run(splits);
    session.run_background();
    Rng rng2(18);
    auto added = make_app_splits(MicroApp::kHct, rng2, 4, 40, 32);
    const RunMetrics fg = session.slide(4, added);
    const RunMetrics bg = session.run_background();
    return std::pair{fg, bg};
  };

  const auto [fg_split, bg_split] = run_with(true);
  const auto [fg_plain, bg_plain] = run_with(false);

  // Foreground latency improves; background absorbs pre-processing work.
  EXPECT_LT(fg_split.time, fg_plain.time);
  EXPECT_GT(bg_split.background_work, 0.0);
  EXPECT_EQ(bg_plain.background_work, 0.0);
  // The split makes extra total work (the merge duplication of Fig 11).
  EXPECT_GT(fg_split.work() + bg_split.background_work, fg_plain.work());
}

TEST(SliderSession, AppendOnlyModeRejectsRemovals) {
  Harness h;
  const auto bench = apps::make_microbenchmark(MicroApp::kHct);
  Rng rng(23);
  SliderConfig config;
  config.mode = WindowMode::kAppendOnly;
  SliderSession session(h.engine, h.memo, bench.job, config);
  auto splits = make_app_splits(MicroApp::kHct, rng, 4, 20, 0);
  session.initial_run(splits);
  auto added = make_app_splits(MicroApp::kHct, rng, 1, 20, 4);
  EXPECT_DEATH(session.slide(1, added), "append-only");
}

}  // namespace
}  // namespace slider
