#include "observability/run_report.h"

#include <cstdio>
#include <cstdlib>

#include "common/logging.h"
#include "observability/json_writer.h"
#include "observability/stats.h"
#include "observability/trace.h"

namespace slider::obs {
namespace {

void write_value(JsonWriter& json, const ReportValue& value) {
  std::visit([&json](const auto& v) { json.value(v); }, value);
}

}  // namespace

RunReport::Row& RunReport::Row::metrics(const std::string& prefix,
                                        const RunMetrics& m) {
  col(prefix + "work", m.work());
  col(prefix + "time", m.time);
  col(prefix + "map_work", m.map_work);
  col(prefix + "map_time", m.map_time);
  col(prefix + "contraction_work", m.contraction_work);
  col(prefix + "reduce_work", m.reduce_work);
  col(prefix + "shuffle_work", m.shuffle_work);
  col(prefix + "memo_read_work", m.memo_read_work);
  col(prefix + "background_work", m.background_work);
  col(prefix + "background_time", m.background_time);
  col(prefix + "map_tasks", m.map_tasks);
  col(prefix + "reduce_tasks", m.reduce_tasks);
  col(prefix + "combiner_invocations", m.combiner_invocations);
  col(prefix + "combiner_reused", m.combiner_reused);
  col(prefix + "migrations", m.migrations);
  col(prefix + "memo_bytes_written", m.memo_bytes_written);
  // Fault-tolerance columns, only when any attempt bookkeeping happened
  // (engine-only runs, which never schedule a session stage, record no
  // attempts and keep their historical column set).
  if (m.task_attempts > 0 || m.failed_attempts > 0 || m.task_retries > 0) {
    col(prefix + "task_attempts", m.task_attempts);
    col(prefix + "failed_attempts", m.failed_attempts);
    col(prefix + "task_retries", m.task_retries);
    col(prefix + "machines_blacklisted", m.machines_blacklisted);
  }
  return *this;
}

RunReport::RunReport(std::string bench_name) : name_(std::move(bench_name)) {}

RunReport& RunReport::set_param(std::string key, ReportValue value) {
  params_.emplace_back(std::move(key), std::move(value));
  return *this;
}

RunReport& RunReport::add_note(std::string note) {
  notes_.push_back(std::move(note));
  return *this;
}

RunReport& RunReport::merge_stats(const StatsSnapshot& stats) {
  for (const auto& [name, value] : stats.counters) {
    counters_[name] = static_cast<double>(value);
  }
  for (const auto& [name, value] : stats.gauges) {
    counters_[name] = value;
  }
  for (const auto& [name, histogram] : stats.histograms) {
    counters_[name + ".count"] = static_cast<double>(histogram.count);
    counters_[name + ".sum"] = histogram.sum;
    counters_[name + ".min"] = histogram.min;
    counters_[name + ".max"] = histogram.max;
    counters_[name + ".p50"] = histogram.p50;
    counters_[name + ".p95"] = histogram.p95;
    counters_[name + ".p99"] = histogram.p99;
    counters_[name + ".underflow"] = static_cast<double>(histogram.underflow);
    counters_[name + ".overflow"] = static_cast<double>(histogram.overflow);
  }
  return *this;
}

RunReport& RunReport::set_robustness(RobustnessReport robustness) {
  robustness_ = robustness;
  return *this;
}

RunReport::Row& RunReport::add_row() {
  rows_.emplace_back();
  return rows_.back();
}

std::string RunReport::to_json() const {
  JsonWriter json;
  json.begin_object();
  json.key("bench").value(name_);
  json.key("schema_version").value(static_cast<std::int64_t>(1));

  json.key("params").begin_object();
  for (const auto& [key, value] : params_) {
    json.key(key);
    write_value(json, value);
  }
  json.end_object();

  json.key("rows").begin_array();
  for (const Row& row : rows_) {
    json.begin_object();
    for (const auto& [key, value] : row.cells()) {
      json.key(key);
      write_value(json, value);
    }
    json.end_object();
  }
  json.end_array();

  json.key("counters").begin_object();
  for (const auto& [key, value] : counters_) {
    json.key(key).value(value);
  }
  // Trace-health counters are stamped into every report so a BENCH_*.json
  // whose trace-derived numbers under-count (ring wrap-around dropped
  // events) is self-describing; 0 when tracing was off or nothing dropped.
  if (counters_.find("trace.dropped_events") == counters_.end()) {
    const TraceCollector& trace = TraceCollector::global();
    json.key("trace.dropped_events")
        .value(static_cast<double>(trace.dropped()));
    json.key("trace.recorded_events")
        .value(static_cast<double>(trace.total_recorded()));
  }
  json.end_object();

  if (robustness_.has_value()) {
    const RobustnessReport& r = *robustness_;
    json.key("robustness").begin_object();
    json.key("seeds").value(r.seeds);
    json.key("failures_injected").value(r.failures_injected);
    json.key("crashes").value(r.crashes);
    json.key("recoveries").value(r.recoveries);
    json.key("stragglers").value(r.stragglers);
    json.key("memo_losses").value(r.memo_losses);
    json.key("durable_error_windows").value(r.durable_error_windows);
    json.key("task_attempts").value(r.task_attempts);
    json.key("failed_attempts").value(r.failed_attempts);
    json.key("task_retries").value(r.task_retries);
    json.key("machines_blacklisted").value(r.machines_blacklisted);
    json.key("failure_forced_misses").value(r.failure_forced_misses);
    json.key("attempt_cap").value(r.attempt_cap);
    json.key("max_attempts_seen").value(r.max_attempts_seen);
    json.key("outputs_identical").value(r.outputs_identical);
    json.end_object();
  }

  json.key("notes").begin_array();
  for (const std::string& note : notes_) {
    json.value(note);
  }
  json.end_array();

  json.end_object();
  return json.take();
}

std::string RunReport::default_filename() const {
  return "BENCH_" + name_ + ".json";
}

std::string RunReport::write(const std::string& directory) const {
  std::string dir = directory;
  if (dir.empty()) {
    const char* env = std::getenv("SLIDER_BENCH_OUT");
    dir = env != nullptr && env[0] != '\0' ? env : ".";
  }
  const std::string path = dir + "/" + default_filename();
  const std::string document = to_json();
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    SLIDER_LOG(Error) << "cannot open bench report " << path;
    return "";
  }
  const std::size_t written =
      std::fwrite(document.data(), 1, document.size(), file);
  std::fclose(file);
  if (written != document.size()) {
    SLIDER_LOG(Error) << "short write to bench report " << path;
    return "";
  }
  return path;
}

}  // namespace slider::obs
