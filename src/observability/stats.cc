#include "observability/stats.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "observability/json_writer.h"

namespace slider::obs {

Histogram::Histogram(const HistogramOptions& options) : options_(options) {
  SLIDER_CHECK(options_.buckets > 0) << "histogram needs at least one bucket";
  SLIDER_CHECK(options_.max > options_.min) << "histogram max must exceed min";
  if (options_.exponential) {
    SLIDER_CHECK(options_.min > 0)
        << "exponential histogram needs a positive min";
  }
  counts_.assign(options_.buckets + 2, 0);  // + underflow + overflow
}

double Histogram::bucket_lower_bound(std::size_t bucket) const {
  const double n = static_cast<double>(options_.buckets);
  const double i = static_cast<double>(bucket);
  if (options_.exponential) {
    const double ratio = options_.max / options_.min;
    return options_.min * std::pow(ratio, i / n);
  }
  return options_.min + (options_.max - options_.min) * i / n;
}

double Histogram::bucket_upper_bound(std::size_t bucket) const {
  return bucket_lower_bound(bucket + 1);
}

std::size_t Histogram::bucket_for(double value) const {
  // Indices into counts_: 0 = underflow, 1..buckets = finite,
  // buckets + 1 = overflow.
  if (value < options_.min) return 0;
  if (value >= options_.max) return options_.buckets + 1;
  const double n = static_cast<double>(options_.buckets);
  double position;
  if (options_.exponential) {
    position = n * std::log(value / options_.min) /
               std::log(options_.max / options_.min);
  } else {
    position = n * (value - options_.min) / (options_.max - options_.min);
  }
  const auto bucket = static_cast<std::size_t>(std::clamp(
      position, 0.0, static_cast<double>(options_.buckets - 1)));
  return bucket + 1;
}

void Histogram::observe(double value) {
  if (!std::isfinite(value)) return;
  std::lock_guard<std::mutex> lock(mutex_);
  ++counts_[bucket_for(value)];
  if (total_ == 0) {
    min_seen_ = value;
    max_seen_ = value;
  } else {
    min_seen_ = std::min(min_seen_, value);
    max_seen_ = std::max(max_seen_, value);
  }
  ++total_;
  sum_ += value;
}

std::uint64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

double Histogram::percentile(double p) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return percentile_locked(p);
}

double Histogram::percentile_locked(double p) const {
  if (total_ == 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  const double target_rank = p / 100.0 * static_cast<double>(total_);
  double cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double in_bucket = static_cast<double>(counts_[i]);
    if (in_bucket == 0) continue;
    if (cumulative + in_bucket < target_rank) {
      cumulative += in_bucket;
      continue;
    }
    // Interpolate within the bucket; the open-ended under/overflow
    // buckets clamp to the observed extremes.
    double lower;
    double upper;
    if (i == 0) {
      lower = min_seen_;
      upper = std::min(options_.min, max_seen_);
    } else if (i == counts_.size() - 1) {
      lower = std::max(options_.max, min_seen_);
      upper = max_seen_;
    } else {
      lower = bucket_lower_bound(i - 1);
      upper = bucket_upper_bound(i - 1);
    }
    if (upper < lower) upper = lower;
    const double fraction =
        in_bucket == 0 ? 0 : (target_rank - cumulative) / in_bucket;
    const double estimate = lower + (upper - lower) * fraction;
    return std::clamp(estimate, min_seen_, max_seen_);
  }
  return max_seen_;
}

HistogramSnapshot Histogram::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  HistogramSnapshot snap;
  snap.count = total_;
  snap.sum = sum_;
  if (total_ > 0) {
    snap.min = min_seen_;
    snap.max = max_seen_;
    snap.p50 = percentile_locked(50);
    snap.p95 = percentile_locked(95);
    snap.p99 = percentile_locked(99);
  }
  snap.underflow = counts_.front();
  snap.overflow = counts_.back();
  snap.buckets.reserve(options_.buckets);
  for (std::size_t i = 0; i < options_.buckets; ++i) {
    snap.buckets.push_back(
        HistogramBucketCount{bucket_upper_bound(i), counts_[i + 1]});
  }
  return snap;
}

void Histogram::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::fill(counts_.begin(), counts_.end(), 0);
  total_ = 0;
  sum_ = 0;
  min_seen_ = 0;
  max_seen_ = 0;
}

StatsRegistry& StatsRegistry::global() {
  static StatsRegistry* registry = new StatsRegistry();
  return *registry;
}

Counter& StatsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& StatsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& StatsRegistry::histogram(std::string_view name,
                                    const HistogramOptions& options) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<Histogram>(options))
             .first;
  }
  return *it->second;
}

StatsSnapshot StatsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  StatsSnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace(name, counter->value());
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace(name, gauge->value());
  }
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms.emplace(name, histogram->snapshot());
  }
  return snap;
}

std::string stats_to_json(const StatsSnapshot& snapshot) {
  JsonWriter json;
  json.begin_object();
  json.key("counters").begin_object();
  for (const auto& [name, value] : snapshot.counters) {
    json.key(name).value(value);
  }
  json.end_object();
  json.key("gauges").begin_object();
  for (const auto& [name, value] : snapshot.gauges) {
    json.key(name).value(value);
  }
  json.end_object();
  json.key("histograms").begin_object();
  for (const auto& [name, h] : snapshot.histograms) {
    json.key(name).begin_object();
    json.key("count").value(h.count);
    json.key("sum").value(h.sum);
    json.key("min").value(h.min);
    json.key("max").value(h.max);
    json.key("p50").value(h.p50);
    json.key("p95").value(h.p95);
    json.key("p99").value(h.p99);
    json.key("underflow").value(h.underflow);
    json.key("overflow").value(h.overflow);
    json.end_object();
  }
  json.end_object();
  json.end_object();
  return json.take();
}

void StatsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, gauge] : gauges_) gauge->reset();
  for (auto& [name, histogram] : histograms_) histogram->reset();
}

}  // namespace slider::obs
