#include "observability/trace_export.h"

#include <algorithm>
#include <cstdio>
#include <tuple>
#include <vector>

#include "common/logging.h"
#include "observability/json_writer.h"

namespace slider::obs {
namespace {

int pid_of(const TraceEvent& event) {
  return event.domain == TraceClockDomain::kWall ? kWallPid : kSimulatedPid;
}

void write_event(JsonWriter& json, const TraceEvent& event) {
  json.begin_object();
  json.key("name").value(std::string_view(event.name));
  json.key("cat").value(std::string_view(event.category));
  json.key("ph").value(std::string_view(&event.phase, 1));
  json.key("pid").value(static_cast<std::int64_t>(pid_of(event)));
  json.key("tid").value(static_cast<std::uint64_t>(event.track));
  json.key("ts").value(event.ts_us);
  if (event.phase == 'X') json.key("dur").value(event.dur_us);
  if (event.phase == 'i') json.key("s").value("t");  // thread-scoped instant

  json.key("args").begin_object();
  if (event.phase == 'C') {
    json.key("value").value(event.counter_value);
  }
  for (const TraceArg& arg : event.args) {
    if (arg.name == nullptr) continue;
    json.key(std::string_view(arg.name)).value(arg.value);
  }
  json.end_object();
  json.end_object();
}

void write_metadata(JsonWriter& json, int pid, const char* process_name) {
  json.begin_object();
  json.key("name").value("process_name");
  json.key("ph").value("M");
  json.key("pid").value(static_cast<std::int64_t>(pid));
  json.key("tid").value(static_cast<std::uint64_t>(0));
  json.key("args").begin_object();
  json.key("name").value(process_name);
  json.end_object();
  json.end_object();
}

}  // namespace

std::string to_chrome_trace_json(std::span<const TraceEvent> events,
                                 std::uint64_t dropped_events) {
  // Sort by (pid, ts, seq) so each exported process has monotone
  // timestamps; seq keeps identical timestamps in commit order.
  std::vector<const TraceEvent*> ordered;
  ordered.reserve(events.size());
  for (const TraceEvent& event : events) ordered.push_back(&event);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const TraceEvent* a, const TraceEvent* b) {
                     return std::make_tuple(pid_of(*a), a->ts_us, a->seq) <
                            std::make_tuple(pid_of(*b), b->ts_us, b->seq);
                   });

  JsonWriter json;
  json.begin_object();
  json.key("displayTimeUnit").value("ms");
  // Top-level metadata (the "JSON Object" flavour allows arbitrary extra
  // keys; Perfetto keeps them in trace info). droppedEvents != 0 means the
  // ring lapped and the oldest spans are missing from this document.
  json.key("metadata").begin_object();
  json.key("droppedEvents").value(dropped_events);
  json.key("retainedEvents").value(static_cast<std::uint64_t>(events.size()));
  json.end_object();
  json.key("traceEvents").begin_array();
  write_metadata(json, kWallPid, "slider wall-clock");
  write_metadata(json, kSimulatedPid, "slider simulated cluster");
  for (const TraceEvent* event : ordered) write_event(json, *event);
  json.end_array();
  json.end_object();
  return json.take();
}

bool write_chrome_trace(const std::string& path,
                        std::span<const TraceEvent> events,
                        std::uint64_t dropped_events) {
  const std::string document = to_chrome_trace_json(events, dropped_events);
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    SLIDER_LOG(Error) << "cannot open trace output file " << path;
    return false;
  }
  const std::size_t written =
      std::fwrite(document.data(), 1, document.size(), file);
  std::fclose(file);
  if (written != document.size()) {
    SLIDER_LOG(Error) << "short write to trace output file " << path;
    return false;
  }
  return true;
}

}  // namespace slider::obs
