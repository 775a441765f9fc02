// Typed metrics: counters, gauges, and fixed-bucket histograms with
// percentile estimation, plus a process-wide named registry.
//
// Storage and scheduling report into typed instruments here, and the
// bench RunReport embeds a registry snapshot so every BENCH_*.json carries
// the same counter set. Histograms use fixed bucket bounds (linear or
// exponential) so p50/p95/p99 are O(buckets) to read and the memory
// footprint is constant — the same design Prometheus client libraries
// settled on.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace slider::obs {

// Monotonic event counter. Thread-safe, lock-free.
class Counter {
 public:
  // Adds `delta` and returns the post-add value.
  std::uint64_t add(std::uint64_t delta = 1) {
    return value_.fetch_add(delta, std::memory_order_relaxed) + delta;
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Last-value-wins instantaneous measurement. Thread-safe.
class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  // Read-modify-write add (CAS loop); returns the post-add value.
  double add(double delta) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
    return current + delta;
  }
  void reset() { set(0); }

 private:
  std::atomic<double> value_{0};
};

struct HistogramOptions {
  double min = 0;              // lower bound of the first bucket
  double max = 1;              // upper bound of the last bucket
  std::size_t buckets = 64;    // finite buckets between min and max
  // Exponential bucket widths (min must be > 0); linear otherwise.
  bool exponential = false;
};

// One finite histogram bucket: observations in [lower, upper_bound).
struct HistogramBucketCount {
  double upper_bound = 0;
  std::uint64_t count = 0;  // per-bucket count (not cumulative)
};

struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0;
  double min = 0;  // smallest observed value (0 when empty)
  double max = 0;  // largest observed value (0 when empty)
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  // Out-of-range observations. count == underflow + Σ buckets + overflow —
  // without these two the bucket counts silently under-report whenever the
  // configured [min, max) range misses the data.
  std::uint64_t underflow = 0;
  std::uint64_t overflow = 0;
  std::vector<HistogramBucketCount> buckets;  // finite buckets, in order
};

// Fixed-bucket histogram. Observations outside [min, max) land in
// dedicated under/overflow buckets; percentiles interpolate linearly
// inside a bucket and clamp to the observed min/max at the extremes.
// Thread-safe via an internal mutex (observe() is not a hot-loop path in
// this codebase; the per-node hot paths use trace counters instead).
class Histogram {
 public:
  explicit Histogram(const HistogramOptions& options = {});

  void observe(double value);

  std::uint64_t count() const;
  // `p` in [0, 100]. Returns 0 for an empty histogram.
  double percentile(double p) const;
  HistogramSnapshot snapshot() const;
  void reset();

  const HistogramOptions& options() const { return options_; }

 private:
  double bucket_lower_bound(std::size_t bucket) const;  // finite buckets
  double bucket_upper_bound(std::size_t bucket) const;
  std::size_t bucket_for(double value) const;
  double percentile_locked(double p) const;

  HistogramOptions options_;
  mutable std::mutex mutex_;
  std::vector<std::uint64_t> counts_;  // [underflow, finite..., overflow]
  std::uint64_t total_ = 0;
  double sum_ = 0;
  double min_seen_ = 0;
  double max_seen_ = 0;
};

struct StatsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

// One JSON document: {"counters":{name:value},"gauges":{name:value},
// "histograms":{name:{count,sum,min,max,p50,p95,p99,underflow,overflow}}}
// (the flight recorder's "stats" section; bucket counts are left out).
std::string stats_to_json(const StatsSnapshot& snapshot);

// Named instrument registry. Instruments are created on first use and
// live for the registry's lifetime, so returned references stay valid.
class StatsRegistry {
 public:
  static StatsRegistry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  // `options` applies only on first creation of `name`.
  Histogram& histogram(std::string_view name,
                       const HistogramOptions& options = {});

  StatsSnapshot snapshot() const;
  // Zeroes every instrument (the instruments themselves survive).
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace slider::obs
