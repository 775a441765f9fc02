#include "observability/flight_recorder.h"

#include <unistd.h>

#include <cstdlib>
#include <filesystem>

#include "common/logging.h"
#include "observability/json_writer.h"
#include "observability/postmortem.h"
#include "observability/provenance.h"
#include "observability/stats.h"
#include "observability/timeseries.h"
#include "observability/trace.h"
#include "observability/trace_export.h"
#include "observability/work_ledger.h"

namespace slider::obs {

FlightRecorder::FlightRecorder() = default;

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder* recorder = [] {
    auto* r = new FlightRecorder();
    const char* dir = std::getenv("SLIDER_POSTMORTEM_DIR");
    if (dir != nullptr && *dir != '\0') {
      Options options;
      options.directory = dir;
      r->arm(std::move(options));
    }
    return r;
  }();
  return *recorder;
}

void FlightRecorder::arm(Options options) {
  std::lock_guard<std::mutex> lock(mutex_);
  options_ = std::move(options);
  slide_ticks_ = 0;
  last_dump_tick_ = 0;
  dumped_once_ = false;
  dumps_written_ = 0;
}

bool FlightRecorder::armed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return !options_.directory.empty();
}

void FlightRecorder::note_fault(std::string_view kind, std::string_view detail,
                                double sim_time, std::int64_t machine,
                                bool request_dump) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fault_log_.size() >= kFaultLogCapacity) {
    fault_log_.pop_front();
  }
  fault_log_.push_back(FaultNote{sim_time, std::string(kind),
                                 std::string(detail), machine});
  if (request_dump && !pending_) {
    pending_ = true;
    pending_reason_ = std::string(kind);
  }
}

void FlightRecorder::request_dump(std::string_view reason) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!pending_) {
    pending_ = true;
    pending_reason_ = std::string(reason);
  }
}

std::string FlightRecorder::maybe_dump(const DumpContext& context) {
  std::unique_lock<std::mutex> lock(mutex_);
  ++slide_ticks_;
  if (!pending_ || options_.directory.empty()) return "";
  if (dumps_written_ >= options_.max_dumps) {
    // Budget exhausted: drop the pending flag so the check stays cheap.
    pending_ = false;
    return "";
  }
  if (dumped_once_ &&
      slide_ticks_ - last_dump_tick_ < options_.min_slides_between_dumps) {
    return "";  // stays pending; fires once the spacing allows
  }
  const std::string reason = pending_reason_;
  pending_ = false;
  pending_reason_.clear();
  last_dump_tick_ = slide_ticks_;
  dumped_once_ = true;
  return write_dump_locked(reason, context);
}

std::string FlightRecorder::dump_now(std::string_view reason,
                                     const DumpContext& context) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (options_.directory.empty()) return "";
  if (dumps_written_ >= options_.max_dumps) return "";
  pending_ = false;
  pending_reason_.clear();
  last_dump_tick_ = slide_ticks_;
  dumped_once_ = true;
  return write_dump_locked(reason, context);
}

// Requires mutex_ held. Global snapshots (TimeSeries / WorkLedger /
// StatsRegistry / TraceCollector) only take those subsystems' own locks —
// none of them ever calls back into the recorder, so the hold is
// deadlock-free.
std::string FlightRecorder::write_dump_locked(std::string_view reason,
                                              const DumpContext& context) {
  std::error_code ec;
  std::filesystem::create_directories(options_.directory, ec);
  if (ec) {
    SLIDER_LOG(Warning) << "flight recorder: cannot create "
                        << options_.directory << ": " << ec.message();
    return "";
  }

  JsonWriter json;
  json.begin_object();
  json.key("schema_version").value(std::uint64_t{1});
  json.key("reason").value(reason);
  json.key("session").value(context.session);
  json.key("sim_time").value(context.sim_time);
  if (context.verdicts != nullptr) {
    json.key("slo").raw(slo_verdicts_to_json(*context.verdicts));
  } else {
    json.key("slo").begin_array().end_array();
  }
  json.key("faults").begin_array();
  for (const FaultNote& note : fault_log_) {
    json.begin_object();
    json.key("sim_time").value(note.sim_time);
    json.key("kind").value(note.kind);
    json.key("detail").value(note.detail);
    json.key("machine").value(static_cast<std::int64_t>(note.machine));
    json.end_object();
  }
  json.end_array();
  json.key("timeseries").raw(TimeSeries::global().to_json());
  json.key("ledger").raw(WorkLedger::global().to_json());
  json.key("stats").raw(stats_to_json(StatsRegistry::global().snapshot()));
  if (context.provenance != nullptr) {
    // snapshot() only takes the recorder's own mutex; like the global
    // snapshots above it never calls back into the flight recorder.
    json.key("provenance")
        .raw(provenance_to_json(context.provenance->snapshot()));
  }
  {
    TraceCollector& trace = TraceCollector::global();
    const std::vector<TraceEvent> events = trace.snapshot();
    json.key("trace").raw(to_chrome_trace_json(events, trace.dropped()));
  }
  json.end_object();

  const std::uint64_t n = dump_counter_++;
  const std::string path = options_.directory + "/pm_" +
                           std::to_string(::getpid()) + "_" +
                           std::to_string(n) + ".pm.json";
  if (!write_postmortem(path, json.str())) {
    SLIDER_LOG(Warning) << "flight recorder: dump write failed: " << path;
    return "";
  }
  ++dumps_written_;
  SLIDER_LOG(Info) << "flight recorder: wrote " << path << " (" << reason
                   << ")";
  return path;
}

std::uint64_t FlightRecorder::dumps_written() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dumps_written_;
}

std::vector<FaultNote> FlightRecorder::fault_log() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::vector<FaultNote>(fault_log_.begin(), fault_log_.end());
}

void FlightRecorder::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  options_ = Options{};
  options_.directory.clear();
  fault_log_.clear();
  pending_ = false;
  pending_reason_.clear();
  slide_ticks_ = 0;
  last_dump_tick_ = 0;
  dumped_once_ = false;
  dumps_written_ = 0;
  dump_counter_ = 0;
}

}  // namespace slider::obs
