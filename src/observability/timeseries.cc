#include "observability/timeseries.h"

#include <algorithm>

#include "observability/json_writer.h"

namespace slider::obs {

void AggregateSample::fold(const SlideSample& s) {
  if (count == 0) {
    first_sequence = s.sequence;
    sim_start = s.sim_start;
  }
  ++count;
  sim_latency_sum += s.sim_latency;
  sim_latency_max = std::max(sim_latency_max, s.sim_latency);
  wall_latency_us_sum += s.wall_latency_us;
  wall_latency_us_max = std::max(wall_latency_us_max, s.wall_latency_us);
  for (std::size_t c = 0; c < kWorkCauseCount; ++c) {
    cause_invocations[c] += s.cause_invocations[c];
  }
  combiner_reused += s.combiner_reused;
  nodes_visited += s.nodes_visited;
  task_retries += s.task_retries;
  failed_attempts += s.failed_attempts;
  if (s.durable_degraded) ++degraded_samples;
}

TimeSeries::TimeSeries() : TimeSeries(Options{}) {}

TimeSeries::TimeSeries(Options options) { configure(options); }

TimeSeries& TimeSeries::global() {
  static TimeSeries* series = new TimeSeries();
  return *series;
}

void TimeSeries::configure(Options options) {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.configure(options);
}

void TimeSeries::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.reset();
}

void TimeSeries::record(SlideSample sample) {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.record(sample);
}

std::uint64_t TimeSeries::total_recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.total_recorded();
}

TimeSeriesSnapshot TimeSeries::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  TimeSeriesSnapshot snap;
  ring_.snapshot_into(snap);
  return snap;
}

namespace {

void write_cause_array(JsonWriter& json, const char* key,
                       const std::array<std::uint64_t, kWorkCauseCount>& a) {
  json.key(key).begin_object();
  for (std::size_t c = 0; c < kWorkCauseCount; ++c) {
    if (a[c] == 0) continue;  // sparse: most causes are idle most slides
    json.key(work_cause_name(static_cast<WorkCause>(c))).value(a[c]);
  }
  json.end_object();
}

}  // namespace

std::string TimeSeries::timeseries_to_json(const TimeSeriesSnapshot& snapshot) {
  JsonWriter json;
  json.begin_object();
  json.key("schema_version").value(std::uint64_t{1});
  json.key("total_recorded").value(snapshot.total_recorded);
  json.key("samples_dropped").value(snapshot.samples_dropped);
  json.key("aggregates").begin_array();
  for (const AggregateSample& a : snapshot.aggregates) {
    json.begin_object();
    json.key("first_sequence").value(a.first_sequence);
    json.key("count").value(a.count);
    json.key("sim_start").value(a.sim_start);
    json.key("sim_latency_sum").value(a.sim_latency_sum);
    json.key("sim_latency_max").value(a.sim_latency_max);
    json.key("wall_latency_us_sum").value(a.wall_latency_us_sum);
    json.key("wall_latency_us_max").value(a.wall_latency_us_max);
    write_cause_array(json, "cause_invocations", a.cause_invocations);
    json.key("combiner_invocations").value(a.combiner_invocations());
    json.key("combiner_reused").value(a.combiner_reused);
    json.key("nodes_visited").value(a.nodes_visited);
    json.key("task_retries").value(a.task_retries);
    json.key("failed_attempts").value(a.failed_attempts);
    json.key("degraded_samples").value(a.degraded_samples);
    json.end_object();
  }
  json.end_array();
  json.key("raw").begin_array();
  for (const SlideSample& s : snapshot.raw) {
    json.begin_object();
    json.key("sequence").value(s.sequence);
    json.key("kind").value(run_kind_name(s.kind));
    if (!s.tenant_view().empty()) json.key("tenant").value(s.tenant_view());
    json.key("sim_start").value(s.sim_start);
    json.key("sim_latency").value(s.sim_latency);
    json.key("wall_latency_us").value(s.wall_latency_us);
    json.key("window_splits").value(s.window_splits);
    json.key("removed").value(s.removed);
    json.key("added").value(s.added);
    write_cause_array(json, "cause_invocations", s.cause_invocations);
    json.key("combiner_invocations").value(s.combiner_invocations());
    json.key("combiner_reused").value(s.combiner_reused);
    json.key("nodes_visited").value(s.nodes_visited);
    json.key("memo_hit_rate").value(s.memo_hit_rate());
    json.key("task_retries").value(s.task_retries);
    json.key("failed_attempts").value(s.failed_attempts);
    json.key("durable_degraded").value(s.durable_degraded);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.take();
}

}  // namespace slider::obs
