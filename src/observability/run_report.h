// Uniform machine-readable bench reports.
//
// Every bench binary regenerates one paper table/figure; RunReport gives
// them a single JSON schema so the repo's perf trajectory can be tracked
// across PRs by diffing BENCH_*.json files:
//
//   {
//     "bench": "table1_scheduler",
//     "schema_version": 1,
//     "params":  { ... experiment knobs ... },
//     "rows":    [ { "app": "K-Means", "normalized_runtime": 0.91, ... } ],
//     "counters": { ... StatsRegistry values ... },
//     "notes":   [ "paper: ..." ]
//   }
//
// Output goes to $SLIDER_BENCH_OUT (directory) or the working directory,
// as BENCH_<bench>.json.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/metrics.h"

namespace slider::obs {

struct StatsSnapshot;

// Small ordered JSON value used by report cells.
using ReportValue = std::variant<double, std::int64_t, std::uint64_t, bool,
                                 std::string>;

// Fault-tolerance scoreboard (paper §6; robustness/chaos.h). Attached to a
// report as a top-level "robustness" object when set — omitted otherwise so
// failure-free bench reports keep their existing schema. `outputs_identical`
// is the headline invariant: every chaos run's outputs were byte-identical
// to the failure-free control.
struct RobustnessReport {
  std::uint64_t seeds = 0;  // chaos seeds exercised
  std::uint64_t failures_injected = 0;
  std::uint64_t crashes = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t stragglers = 0;
  std::uint64_t memo_losses = 0;
  std::uint64_t durable_error_windows = 0;
  std::uint64_t task_attempts = 0;
  std::uint64_t failed_attempts = 0;
  std::uint64_t task_retries = 0;
  std::uint64_t machines_blacklisted = 0;
  std::uint64_t failure_forced_misses = 0;
  std::int64_t attempt_cap = 0;
  std::int64_t max_attempts_seen = 0;
  bool outputs_identical = true;
};

class RunReport {
 public:
  // One report row: insertion-ordered key/value cells.
  class Row {
   public:
    Row& col(std::string key, ReportValue value) {
      cells_.emplace_back(std::move(key), std::move(value));
      return *this;
    }
    Row& col(std::string key, const char* value) {
      return col(std::move(key), ReportValue(std::string(value)));
    }
    // Flattens the paper's work/time record into prefixed columns.
    Row& metrics(const std::string& prefix, const RunMetrics& m);

    const std::vector<std::pair<std::string, ReportValue>>& cells() const {
      return cells_;
    }

   private:
    std::vector<std::pair<std::string, ReportValue>> cells_;
  };

  explicit RunReport(std::string bench_name);

  RunReport& set_param(std::string key, ReportValue value);
  RunReport& set_param(std::string key, const char* value) {
    return set_param(std::move(key), ReportValue(std::string(value)));
  }
  RunReport& add_note(std::string note);
  // Flattens a typed-stats snapshot into the counter map: counters and
  // gauges keep their names; each histogram `h` contributes
  // h.count/.sum/.min/.max/.p50/.p95/.p99 plus h.underflow/.overflow so
  // observations outside the configured [min, max) range are visible in
  // the report instead of vanishing into untagged buckets.
  RunReport& merge_stats(const StatsSnapshot& stats);
  // Attaches the fault-tolerance section (emitted as "robustness").
  RunReport& set_robustness(RobustnessReport robustness);

  Row& add_row();

  const std::string& name() const { return name_; }
  std::size_t row_count() const { return rows_.size(); }

  std::string to_json() const;
  // "BENCH_<name>.json".
  std::string default_filename() const;
  // Writes to `directory` (or $SLIDER_BENCH_OUT, or "."). Returns the
  // written path, or an empty string on failure.
  std::string write(const std::string& directory = "") const;

 private:
  std::string name_;
  std::vector<std::pair<std::string, ReportValue>> params_;
  std::vector<Row> rows_;
  std::vector<std::string> notes_;
  std::map<std::string, double> counters_;
  std::optional<RobustnessReport> robustness_;
};

}  // namespace slider::obs
