// Table 2: reduction in the time for reading memoized state with the
// in-memory distributed cache vs the fault-tolerant persistent layer only
// (fixed-width windowing, as in §7.3).
//
// This bench also exercises the *real* durable tier (src/durability/): a
// third mode runs the same workload with the memo store backed by an
// on-disk replicated segment log, then kills the process state and
// measures actual wall-clock recovery — the §6 claim that a restarted
// Slider resumes incrementally instead of recomputing.

#include <unistd.h>

#include <filesystem>

#include "bench/bench_util.h"
#include "durability/durable_tier.h"

using namespace slider;
using namespace slider::bench;

namespace {

SimDuration memo_read_time(const apps::MicroBenchmark& bench,
                           bool memory_cache) {
  ExperimentParams params;
  params.mode = WindowMode::kFixedWidth;
  params.change_fraction = 0.05;
  params.records_per_split = records_per_split_for(bench);

  BenchEnv env;
  env.memo.set_memory_cache_enabled(memory_cache);
  Driver driver(env, bench, params);
  driver.initial_run();
  SimDuration read_time = 0;
  for (int i = 0; i < 5; ++i) {
    read_time += driver.slide().memo_read_work;
  }
  return read_time;
}

struct DurableResult {
  MemoStoreStats store;                // writes/bytes persisted to the log
  std::uint64_t log_bytes = 0;         // on-disk footprint after the run
  durability::RecoveryStats recovery;  // replica-merge scan of that log
  std::size_t entries_restored = 0;
};

DurableResult durable_run(const apps::MicroBenchmark& bench) {
  ExperimentParams params;
  params.mode = WindowMode::kFixedWidth;
  params.change_fraction = 0.05;
  params.records_per_split = records_per_split_for(bench);

  // The pid keeps two runs at once (two trees compared side by side) out
  // of each other's logs.
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() /
      ("slider_bench_table2_" + bench.name + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(root);

  DurableResult result;
  {
    BenchEnv env;
    durability::DurableTier tier(root.string());
    env.memo.attach_durable_tier(&tier);
    Driver driver(env, bench, params);
    driver.initial_run();
    for (int i = 0; i < 5; ++i) driver.slide();
    env.memo.flush_durable();
    tier.close();
    result.store = env.memo.stats();
    result.log_bytes = durability::SegmentLog::dir_bytes(
                           durability::replica_dir(root.string(), 0)) +
                       durability::SegmentLog::dir_bytes(
                           durability::replica_dir(root.string(), 1));
  }
  // "Restart": a fresh store recovers the whole memo from the log.
  {
    BenchEnv env;
    durability::DurableTier tier(root.string());
    env.memo.attach_durable_tier(&tier);
    result.entries_restored = env.memo.restore_from_durable(&result.recovery);
  }
  std::filesystem::remove_all(root);
  return result;
}

}  // namespace

int main() {
  std::printf("Table 2: reduction in the time for reading memoized state "
              "with in-memory caching (fixed-width)\n");
  print_title("5 incremental runs, 5% change");
  print_paper_note("K-Means 48.7%, HCT 56.9%, KNN 53.2%, Matrix 67.6%, "
                   "subStr 66.2%");

  obs::RunReport report = make_report("table2_memo_cache");
  report.set_param("slides", static_cast<std::uint64_t>(5));
  report.set_param("change_fraction", 0.05);
  report.set_param("mode", "fixed-width");
  report.add_note("paper reductions: K-Means 48.7%, HCT 56.9%, KNN 53.2%, "
                  "Matrix 67.6%, subStr 66.2%");
  report.add_note("durable columns: same workload over the on-disk "
                  "replicated segment log; recovery = wall-clock "
                  "replica-merge scan on restart");

  std::printf("%-10s %16s %16s %14s %14s %14s %12s\n", "app",
              "cached read(s)", "disk-only(s)", "reduction", "log size(KB)",
              "recovery(ms)", "recovered");
  for (const auto& bench : apps::all_microbenchmarks()) {
    const SimDuration with_cache = memo_read_time(bench, true);
    const SimDuration without_cache = memo_read_time(bench, false);
    const double reduction =
        100.0 * (without_cache - with_cache) / without_cache;
    const DurableResult durable = durable_run(bench);
    std::printf("%-10s %16.4f %16.4f %13.1f%% %14.1f %14.2f %12zu\n",
                bench.name.c_str(), with_cache, without_cache, reduction,
                static_cast<double>(durable.log_bytes) / 1024.0,
                durable.recovery.wall_seconds * 1e3,
                durable.entries_restored);

    report.add_row()
        .col("app", bench.name)
        .col("cached_read_s", with_cache)
        .col("disk_only_read_s", without_cache)
        .col("reduction_pct", reduction)
        .col("persistent_writes", durable.store.persistent_writes)
        .col("bytes_persisted", durable.store.bytes_persisted)
        .col("log_bytes_on_disk", durable.log_bytes)
        .col("recovery_wall_s", durable.recovery.wall_seconds)
        .col("recovered_entries",
             static_cast<std::uint64_t>(durable.entries_restored))
        .col("recovery_torn_records", durable.recovery.scan.torn_records)
        .col("recovery_crc_failures", durable.recovery.scan.crc_failures);
  }

  const std::string path = report.write();
  if (!path.empty()) std::printf("\nreport: %s\n", path.c_str());
  return 0;
}
