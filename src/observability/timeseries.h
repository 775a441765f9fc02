// Per-slide time series: the "how has this session behaved over the last
// 10k slides" dimension the instant-snapshot endpoints (/metrics,
// /ledger.json) cannot answer.
//
// The session commits one SlideSample per run (initial build, slide, or
// background phase) at the slide boundary — the same cold path that
// commits the work ledger. A sample is plain-old-data with fixed-size
// per-cause arrays, and the rings are preallocated, so record() never
// allocates: the per-slide cost is one short mutex hold and a struct copy.
//
// Tiered downsampling (observability/tiered_ring.h) keeps the memory
// footprint constant while the history stays long: the most recent
// `raw_capacity` samples are kept verbatim; when a raw sample ages out it
// is folded into an aggregation bucket spanning `aggregate_width`
// consecutive slides (sums, maxima, degraded counts), and the bucket ring
// in turn drops its oldest bucket once `aggregate_capacity` is reached.
// With the defaults (512 raw, 256 buckets of 32) a session's last 8704
// slides are always reconstructible, the newest 512 of them exactly.
//
// Process-wide singleton, matching WorkLedger/StatsRegistry/TraceCollector:
// this is the per-tenant metrics substrate the ROADMAP's session-manager
// layer will label by tenant.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "observability/tiered_ring.h"
#include "observability/work_ledger.h"

namespace slider::obs {

// One committed run. POD on purpose: record() copies it into a
// preallocated ring slot.
struct SlideSample {
  std::uint64_t sequence = 0;  // assigned by record(), monotone
  RunKind kind = RunKind::kSlide;
  // Owning tenant, truncated to a fixed-size tag so the sample stays POD
  // and record() stays allocation-free. Empty for single-tenant sessions.
  std::array<char, 24> tenant{};
  void set_tenant(std::string_view name) {
    tenant.fill('\0');
    const std::size_t n = std::min(name.size(), tenant.size() - 1);
    name.copy(tenant.data(), n);
  }
  std::string_view tenant_view() const {
    return std::string_view(tenant.data());
  }
  double sim_start = 0;        // session sim clock when the run began (sec)
  double sim_latency = 0;      // simulated run latency (sec)
  double wall_latency_us = 0;  // host wall-clock latency of the run
  std::uint64_t window_splits = 0;
  std::uint64_t removed = 0;
  std::uint64_t added = 0;
  // Combiner invocations attributed per ledger cause for this run only.
  std::array<std::uint64_t, kWorkCauseCount> cause_invocations{};
  std::uint64_t combiner_reused = 0;
  std::uint64_t nodes_visited = 0;
  std::uint64_t task_retries = 0;
  std::uint64_t failed_attempts = 0;
  bool durable_degraded = false;  // store was degraded at the boundary

  // Every invocation is billed to exactly one cause.
  std::uint64_t combiner_invocations() const {
    return std::accumulate(cause_invocations.begin(), cause_invocations.end(),
                           std::uint64_t{0});
  }

  // Fraction of combiner executions answered by the memo layer; 0 when the
  // run touched no combiners at all (pure-reuse slides score 1).
  double memo_hit_rate() const {
    const std::uint64_t touched = combiner_invocations() + combiner_reused;
    if (touched == 0) return 0;
    return static_cast<double>(combiner_reused) / static_cast<double>(touched);
  }
};

// `aggregate_width` consecutive samples folded into one bucket.
struct AggregateSample {
  std::uint64_t first_sequence = 0;
  std::uint64_t count = 0;
  double sim_start = 0;  // of the first folded sample
  double sim_latency_sum = 0;
  double sim_latency_max = 0;
  double wall_latency_us_sum = 0;
  double wall_latency_us_max = 0;
  std::array<std::uint64_t, kWorkCauseCount> cause_invocations{};
  std::uint64_t combiner_reused = 0;
  std::uint64_t nodes_visited = 0;
  std::uint64_t task_retries = 0;
  std::uint64_t failed_attempts = 0;
  std::uint64_t degraded_samples = 0;  // samples folded while degraded

  std::uint64_t combiner_invocations() const {
    return std::accumulate(cause_invocations.begin(), cause_invocations.end(),
                           std::uint64_t{0});
  }
  void fold(const SlideSample& s);
};

struct TimeSeriesSnapshot {
  std::uint64_t total_recorded = 0;
  // Samples that fell off the far end of the aggregate ring — history the
  // snapshot can no longer account for.
  std::uint64_t samples_dropped = 0;
  std::vector<AggregateSample> aggregates;  // oldest first
  std::vector<SlideSample> raw;             // oldest first
};

class TimeSeries {
 public:
  struct Options {
    std::size_t raw_capacity = 512;
    std::size_t aggregate_width = 32;
    std::size_t aggregate_capacity = 256;
  };

  TimeSeries();
  explicit TimeSeries(Options options);

  // Process-wide series the sessions record into.
  static TimeSeries& global();

  // Assigns the sample's sequence and commits it. Never allocates: the
  // rings are preallocated at configure time. Thread-safe (one short
  // mutex hold; this is the cold once-per-run path).
  void record(SlideSample sample);

  std::uint64_t total_recorded() const;
  TimeSeriesSnapshot snapshot() const;
  std::string to_json() const { return timeseries_to_json(snapshot()); }

  // Reallocates the rings and clears history. Requires quiescent writers
  // (tests, tool startup).
  void configure(Options options);
  const Options& options() const { return ring_.options(); }

  // Clears history, keeping the configured capacities.
  void reset();

  static std::string timeseries_to_json(const TimeSeriesSnapshot& snapshot);

 private:
  mutable std::mutex mutex_;
  TieredRing<SlideSample, AggregateSample, Options> ring_;
};

}  // namespace slider::obs
