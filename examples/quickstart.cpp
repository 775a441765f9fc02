// Quickstart: incremental word count over a sliding window.
//
// Shows the whole public API surface in one file:
//   1. write a plain (non-incremental) MapReduce job — Mapper, an
//      associative Combiner, and a Reducer;
//   2. stand up the simulated cluster substrate;
//   3. open a SliderSession in fixed-width mode and slide the window,
//      comparing incremental cost against recomputing from scratch.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "common/string_util.h"
#include "data/text_gen.h"
#include "slider/session.h"

namespace {

using namespace slider;

// Step 1 — the application, written exactly as for vanilla MapReduce.
class WordCountMapper final : public Mapper {
 public:
  void map(const Record& input, Emitter& out) const override {
    for (const auto word : split_view(input.value, ' ')) {
      if (!word.empty()) out.emit(std::string(word), "1");
    }
  }
};

JobSpec word_count_job() {
  JobSpec job;
  job.name = "quickstart-wordcount";
  job.mapper = std::make_shared<WordCountMapper>();
  job.combiner = [](const std::string&, const std::string& a,
                    const std::string& b) {
    std::uint64_t x = 0, y = 0;
    parse_u64(a, &x);
    parse_u64(b, &y);
    return std::to_string(x + y);
  };
  job.reducer = [](const std::string&,
                   const std::string& v) -> std::optional<std::string> {
    return v;
  };
  job.num_partitions = 4;
  return job;
}

}  // namespace

int main() {
  // Step 2 — the substrate: a 24-machine simulated cluster (the paper's
  // testbed shape), a cost model, and the fault-tolerant memo store.
  CostModel cost;
  Cluster cluster(ClusterConfig{.num_machines = 24, .slots_per_machine = 2});
  VanillaEngine engine(cluster, cost);
  MemoStore memo(cluster, cost);

  const JobSpec job = word_count_job();

  // Step 3 — a fixed-width sliding window: 40 splits, sliding by 2.
  constexpr std::size_t kWindowSplits = 40;
  constexpr std::size_t kSlide = 2;
  constexpr std::size_t kDocsPerSplit = 100;

  SliderConfig config;
  config.mode = WindowMode::kFixedWidth;
  config.bucket_width = kSlide;
  SliderSession session(engine, memo, job, config);

  TextGenerator gen;
  auto splits = make_splits(gen.documents(kWindowSplits * kDocsPerSplit),
                            kDocsPerSplit, 0);
  std::vector<SplitPtr> window = splits;

  const RunMetrics initial = session.initial_run(splits);
  std::printf("initial run : work=%8.2fs  time=%6.2fs  (window=%zu splits)\n",
              initial.work(), initial.time, window.size());

  SplitId next_id = kWindowSplits;
  for (int slide = 1; slide <= 5; ++slide) {
    auto added = make_splits(gen.documents(kSlide * kDocsPerSplit),
                             kDocsPerSplit, next_id);
    next_id += kSlide;

    const RunMetrics inc = session.slide(kSlide, added);
    window.erase(window.begin(), window.begin() + kSlide);
    for (const auto& s : added) window.push_back(s);

    // The baseline: recompute the new window from scratch.
    const JobResult scratch = engine.run(job, window);
    std::printf(
        "slide %d     : work=%8.2fs  time=%6.2fs  |  scratch work=%8.2fs  "
        "-> %4.1fx work, %4.1fx time speedup\n",
        slide, inc.work(), inc.time, scratch.metrics.work(),
        scratch.metrics.work() / inc.work(), scratch.metrics.time / inc.time);
  }

  // Outputs are per reduce partition; print a few counts.
  std::printf("\nsample word counts:\n");
  int shown = 0;
  for (const KVTable& table : session.output()) {
    for (const RowView r : table.rows()) {
      if (shown++ >= 8) break;
      std::printf("  %-8.*s %.*s\n", static_cast<int>(r.key.size()),
                  r.key.data(), static_cast<int>(r.value.size()),
                  r.value.data());
    }
    if (shown >= 8) break;
  }
  std::printf("\nmemoized state: %zu entries, %.1f MB\n", memo.size(),
              static_cast<double>(memo.total_bytes()) / 1e6);
  return 0;
}
