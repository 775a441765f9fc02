#include "observability/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>

namespace slider::obs {
namespace {

double steady_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool env_truthy(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr) return false;
  return std::strcmp(value, "1") == 0 || std::strcmp(value, "true") == 0 ||
         std::strcmp(value, "on") == 0 || std::strcmp(value, "ON") == 0;
}

void copy_args(std::array<TraceArg, 2>& dst,
               std::initializer_list<TraceArg> src) {
  std::size_t i = 0;
  for (const TraceArg& arg : src) {
    if (i >= dst.size()) break;
    dst[i++] = arg;
  }
}

}  // namespace

TraceCollector::TraceCollector(std::size_t capacity)
    : ring_(std::max<std::size_t>(1, capacity)), epoch_ns_(steady_ns()) {}

TraceCollector& TraceCollector::global() {
  static TraceCollector* collector = [] {
    auto* c = new TraceCollector();
    c->set_enabled(env_truthy("SLIDER_TRACE"));
    return c;
  }();
  return *collector;
}

double TraceCollector::now_us() const {
  return (steady_ns() - epoch_ns_) / 1e3;
}

std::uint32_t TraceCollector::current_thread_track() {
  static std::atomic<std::uint32_t> next_track{1};
  thread_local std::uint32_t track =
      next_track.fetch_add(1, std::memory_order_relaxed);
  return track;
}

void TraceCollector::record(TraceEvent event) {
  if (!enabled()) return;
  const std::uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  event.seq = seq;
  ring_[seq % ring_.size()] = event;
}

void TraceCollector::complete_span(const char* category, const char* name,
                                   double start_us, double dur_us,
                                   std::initializer_list<TraceArg> args) {
  if (!enabled()) return;
  TraceEvent event;
  event.category = category;
  event.name = name;
  event.phase = 'X';
  event.domain = TraceClockDomain::kWall;
  event.track = current_thread_track();
  event.ts_us = start_us;
  event.dur_us = dur_us;
  copy_args(event.args, args);
  record(event);
}

void TraceCollector::instant(const char* category, const char* name,
                             std::initializer_list<TraceArg> args) {
  if (!enabled()) return;
  TraceEvent event;
  event.category = category;
  event.name = name;
  event.phase = 'i';
  event.domain = TraceClockDomain::kWall;
  event.track = current_thread_track();
  event.ts_us = now_us();
  copy_args(event.args, args);
  record(event);
}

void TraceCollector::counter(const char* category, const char* name,
                             double value) {
  if (!enabled()) return;
  TraceEvent event;
  event.category = category;
  event.name = name;
  event.phase = 'C';
  event.domain = TraceClockDomain::kWall;
  event.ts_us = now_us();
  event.counter_value = value;
  record(event);
}

void TraceCollector::sim_span(const char* category, const char* name,
                              double start_sec, double dur_sec,
                              std::uint32_t track,
                              std::initializer_list<TraceArg> args) {
  if (!enabled()) return;
  TraceEvent event;
  event.category = category;
  event.name = name;
  event.phase = 'X';
  event.domain = TraceClockDomain::kSimulated;
  event.track = track;
  event.ts_us = start_sec * 1e6;
  event.dur_us = dur_sec * 1e6;
  copy_args(event.args, args);
  record(event);
}

std::vector<TraceEvent> TraceCollector::snapshot() const {
  std::lock_guard<std::mutex> lock(maintenance_mutex_);
  const std::uint64_t committed = next_seq_.load(std::memory_order_relaxed);
  const std::uint64_t cap = ring_.size();
  const std::uint64_t first = committed > cap ? committed - cap : 0;
  std::vector<TraceEvent> events;
  events.reserve(static_cast<std::size_t>(committed - first));
  for (std::uint64_t seq = first; seq < committed; ++seq) {
    const TraceEvent& event = ring_[seq % cap];
    // A slot whose seq does not match was in flight mid-snapshot; skip it.
    if (event.seq == seq) events.push_back(event);
  }
  return events;
}

void TraceCollector::clear() {
  std::lock_guard<std::mutex> lock(maintenance_mutex_);
  std::fill(ring_.begin(), ring_.end(), TraceEvent{});
  next_seq_.store(0, std::memory_order_relaxed);
}

std::uint64_t TraceCollector::dropped() const {
  std::lock_guard<std::mutex> lock(maintenance_mutex_);
  const std::uint64_t committed = next_seq_.load(std::memory_order_relaxed);
  return committed > ring_.size() ? committed - ring_.size() : 0;
}

ScopedSpan::ScopedSpan(const char* category, const char* name,
                       std::initializer_list<TraceArg> args)
    : category_(category), name_(name) {
  TraceCollector& collector = TraceCollector::global();
  if (!collector.enabled()) return;
  std::size_t i = 0;
  for (const TraceArg& arg : args) {
    if (i >= args_.size()) break;
    args_[i++] = arg;
  }
  start_us_ = collector.now_us();
  armed_ = true;
}

ScopedSpan::~ScopedSpan() {
  if (!armed_) return;
  TraceCollector& collector = TraceCollector::global();
  if (!collector.enabled()) return;
  collector.complete_span(category_, name_, start_us_,
                          collector.now_us() - start_us_,
                          {args_[0], args_[1]});
}

}  // namespace slider::obs
