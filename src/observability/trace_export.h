// Exporter for collected trace events: Chrome trace-event JSON (the "JSON
// Array with metadata" flavour) — drag the file into
// https://ui.perfetto.dev or chrome://tracing. Wall-clock events appear
// under pid 1 ("slider wall-clock"), simulated-time events under pid 2
// ("slider simulated cluster"), with the simulated lanes (machine ids,
// phase lanes) as threads.
#pragma once

#include <span>
#include <string>

#include "observability/trace.h"

namespace slider::obs {

// Process ids used in the exported JSON.
inline constexpr int kWallPid = 1;
inline constexpr int kSimulatedPid = 2;

// Serializes `events` (as returned by TraceCollector::snapshot()) to a
// complete Chrome trace-event JSON document. Events are emitted sorted by
// (pid, ts) so timestamps are monotone within each process.
//
// `dropped_events` (TraceCollector::dropped()) is recorded in the
// document's top-level metadata — a timeline that silently lost events to
// ring wrap-around reads as complete otherwise.
std::string to_chrome_trace_json(std::span<const TraceEvent> events,
                                 std::uint64_t dropped_events = 0);

// Writes to_chrome_trace_json(events, dropped_events) to `path`. Returns
// false (and logs) on I/O failure.
bool write_chrome_trace(const std::string& path,
                        std::span<const TraceEvent> events,
                        std::uint64_t dropped_events = 0);

}  // namespace slider::obs
