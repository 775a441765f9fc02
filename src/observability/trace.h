// Run tracing: lock-cheap, ring-buffered span/event collection.
//
// The paper's evaluation (§7) is an observability exercise — per-phase
// breakdowns (Fig 9), work-vs-time (Fig 7/8), memo-cache behaviour
// (Table 2), straggler timelines (Table 1). This subsystem records those
// quantities as trace events that export to Chrome trace-event JSON
// (loadable in Perfetto / chrome://tracing; trace_export.h).
//
// Two clock domains:
//   * wall  — real microseconds on the host (std::steady_clock), used for
//     spans around actual library work (memo (de)serialization, tree
//     updates, session entry points);
//   * simulated — the cost model's simulated seconds, used to reconstruct
//     the cluster timeline (map wave, per-task contraction+reduce
//     placement, per-level contraction) that the paper's figures reason
//     about. Exported as a second "process" so both timelines coexist in
//     one Perfetto view.
//
// Gating:
//   * compile time — the SLIDER_TRACE_* macros compile to nothing when the
//     CMake option SLIDER_ENABLE_TRACING is OFF (SLIDER_TRACING_ENABLED=0);
//   * run time — TraceCollector::global() starts disabled unless the
//     SLIDER_TRACE env var is truthy; set_enabled() flips it at any point.
//     When disabled, record() is one relaxed atomic load.
//
// Concurrency: record() claims a slot with a relaxed fetch_add and writes
// it without locking — safe for concurrent writers as long as the buffer
// does not lap itself within one "round" of concurrent writers (capacity
// is 64k events by default; laps only drop the oldest events, never
// corrupt the JSON). snapshot()/clear() take a mutex and expect writers
// to be quiescent (true in this single-process simulator: export happens
// between runs).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <vector>

#ifndef SLIDER_TRACING_ENABLED
#define SLIDER_TRACING_ENABLED 1
#endif

namespace slider::obs {

enum class TraceClockDomain : std::uint8_t { kWall, kSimulated };

// Named numeric argument attached to an event ("partition", 3).
// Names must be string literals (or otherwise outlive the collector).
struct TraceArg {
  const char* name = nullptr;
  double value = 0;
};

struct TraceEvent {
  static constexpr std::uint64_t kUnwritten = ~0ull;

  const char* category = "";  // must outlive the collector (string literal)
  const char* name = "";      // must outlive the collector (string literal)
  char phase = 'X';           // 'X' complete span, 'i' instant, 'C' counter
  TraceClockDomain domain = TraceClockDomain::kWall;
  std::uint32_t track = 0;    // exported as tid: thread (wall) or lane (sim)
  std::uint64_t seq = kUnwritten;  // global commit order, assigned by record()
  double ts_us = 0;           // event start, microseconds in its domain
  double dur_us = 0;          // 'X' only
  double counter_value = 0;   // 'C' only
  std::array<TraceArg, 2> args{};  // unused entries have name == nullptr
};

class TraceCollector {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  explicit TraceCollector(std::size_t capacity = kDefaultCapacity);

  // Process-wide collector used by the SLIDER_TRACE_* macros. Initially
  // enabled iff the SLIDER_TRACE env var is "1"/"true"/"on".
  static TraceCollector& global();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  // Wall-clock microseconds since this collector's epoch.
  double now_us() const;

  // Small dense id for the calling thread (stable for its lifetime).
  static std::uint32_t current_thread_track();

  // Core sink. Assigns seq; drops the oldest event once the ring is full.
  // No-op while disabled.
  void record(TraceEvent event);

  // Convenience emitters (all no-ops while disabled) --------------------

  // Wall-domain complete span covering [start_us, start_us + dur_us].
  void complete_span(const char* category, const char* name, double start_us,
                     double dur_us, std::initializer_list<TraceArg> args = {});
  // Wall-domain instant event at now.
  void instant(const char* category, const char* name,
               std::initializer_list<TraceArg> args = {});
  // Wall-domain counter sample at now.
  void counter(const char* category, const char* name, double value);

  // Simulated-domain span [start_sec, start_sec + dur_sec] (seconds);
  // `track` selects the Perfetto lane (e.g. the machine id).
  void sim_span(const char* category, const char* name, double start_sec,
                double dur_sec, std::uint32_t track = 0,
                std::initializer_list<TraceArg> args = {});

  // Committed events in seq order (oldest surviving first). Takes the
  // maintenance mutex; call between runs, not concurrently with writers.
  std::vector<TraceEvent> snapshot() const;
  void clear();

  std::uint64_t total_recorded() const {
    return next_seq_.load(std::memory_order_relaxed);
  }
  // Events lost to ring wrap-around since the last clear().
  std::uint64_t dropped() const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_seq_{0};
  mutable std::mutex maintenance_mutex_;
  std::vector<TraceEvent> ring_;
  double epoch_ns_ = 0;  // steady_clock at construction
};

// RAII wall-clock span recorded on the global collector at scope exit.
// Reads the clock only when the collector is enabled at construction.
class ScopedSpan {
 public:
  ScopedSpan(const char* category, const char* name,
             std::initializer_list<TraceArg> args = {});
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan();

 private:
  const char* category_;
  const char* name_;
  std::array<TraceArg, 2> args_{};
  double start_us_ = 0;
  bool armed_ = false;
};

}  // namespace slider::obs

// --- macros ------------------------------------------------------------------
//
// SLIDER_TRACE_SPAN(category, name[, {{"k", v}, ...}])  — RAII span for the
//   rest of the enclosing scope.
// SLIDER_TRACE_EVENT(category, name[, {...}])           — instant event.
// SLIDER_TRACE_COUNTER(category, name, value)           — counter sample.
//
// All three compile away entirely (arguments unevaluated) when the build
// disables tracing, and cost one relaxed atomic load when tracing is
// compiled in but runtime-disabled.

#define SLIDER_TRACE_INTERNAL_CAT2(a, b) a##b
#define SLIDER_TRACE_INTERNAL_CAT(a, b) SLIDER_TRACE_INTERNAL_CAT2(a, b)

#if SLIDER_TRACING_ENABLED
#define SLIDER_TRACE_SPAN(...)                                     \
  ::slider::obs::ScopedSpan SLIDER_TRACE_INTERNAL_CAT(slider_span_, \
                                                      __LINE__)(__VA_ARGS__)
#define SLIDER_TRACE_EVENT(...) \
  ::slider::obs::TraceCollector::global().instant(__VA_ARGS__)
#define SLIDER_TRACE_COUNTER(category, name, value) \
  ::slider::obs::TraceCollector::global().counter(category, name, value)
#else
#define SLIDER_TRACE_SPAN(...) static_cast<void>(0)
#define SLIDER_TRACE_EVENT(...) static_cast<void>(0)
#define SLIDER_TRACE_COUNTER(category, name, value) static_cast<void>(0)
#endif
