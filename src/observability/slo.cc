#include "observability/slo.h"

#include <algorithm>
#include <cmath>

#include "observability/json_writer.h"

namespace slider::obs {

std::string_view slo_kind_name(SloKind kind) {
  switch (kind) {
    case SloKind::kSlideLatencyP99: return "slide_latency_p99";
    case SloKind::kMemoHitRateFloor: return "memo_hit_rate_floor";
    case SloKind::kRetryRateCeiling: return "retry_rate_ceiling";
  }
  return "unknown";
}

std::vector<SloSpec> default_slos() {
  return {
      SloSpec{"slide-latency", SloKind::kSlideLatencyP99, /*threshold=*/300.0,
              /*window=*/64, /*burn_window=*/8, /*min_samples=*/4},
      SloSpec{"memo-hit-rate", SloKind::kMemoHitRateFloor, /*threshold=*/0.05,
              /*window=*/64, /*burn_window=*/8, /*min_samples=*/8},
      SloSpec{"retry-rate", SloKind::kRetryRateCeiling, /*threshold=*/4.0,
              /*window=*/64, /*burn_window=*/8, /*min_samples=*/4},
  };
}

namespace {

// Metric over the trailing `count` raw samples (count == 0 -> all).
double window_metric(const std::vector<SlideSample>& raw, std::size_t count,
                     SloKind kind) {
  const std::size_t n = count == 0 ? raw.size() : std::min(count, raw.size());
  if (n == 0) return 0;
  const std::size_t begin = raw.size() - n;
  switch (kind) {
    case SloKind::kSlideLatencyP99: {
      std::vector<double> latencies;
      latencies.reserve(n);
      for (std::size_t i = begin; i < raw.size(); ++i) {
        latencies.push_back(raw[i].sim_latency);
      }
      std::sort(latencies.begin(), latencies.end());
      // Nearest-rank p99.
      const std::size_t rank = static_cast<std::size_t>(
          std::ceil(0.99 * static_cast<double>(latencies.size())));
      return latencies[std::min(latencies.size() - 1,
                                rank == 0 ? 0 : rank - 1)];
    }
    case SloKind::kMemoHitRateFloor: {
      std::uint64_t invoked = 0;
      std::uint64_t reused = 0;
      for (std::size_t i = begin; i < raw.size(); ++i) {
        invoked += raw[i].combiner_invocations();
        reused += raw[i].combiner_reused;
      }
      const std::uint64_t touched = invoked + reused;
      if (touched == 0) return 1.0;  // nothing executed: nothing was missed
      return static_cast<double>(reused) / static_cast<double>(touched);
    }
    case SloKind::kRetryRateCeiling: {
      std::uint64_t retries = 0;
      for (std::size_t i = begin; i < raw.size(); ++i) {
        retries += raw[i].task_retries;
      }
      return static_cast<double>(retries) / static_cast<double>(n);
    }
  }
  return 0;
}

bool violates(SloKind kind, double value, double threshold) {
  switch (kind) {
    case SloKind::kSlideLatencyP99:
    case SloKind::kRetryRateCeiling:
      return value > threshold;
    case SloKind::kMemoHitRateFloor:
      return value < threshold;
  }
  return false;
}

}  // namespace

SloVerdict evaluate_slo(const TimeSeriesSnapshot& series, const SloSpec& spec) {
  SloVerdict verdict;
  verdict.name = spec.name;
  verdict.kind = spec.kind;
  verdict.threshold = spec.threshold;
  const std::size_t covered = std::min(
      spec.window == 0 ? series.raw.size() : spec.window, series.raw.size());
  verdict.samples = covered;
  if (covered < std::max<std::size_t>(1, spec.min_samples)) {
    return verdict;  // vacuously ok until warm
  }
  verdict.value = window_metric(series.raw, spec.window, spec.kind);
  verdict.ok = !violates(spec.kind, verdict.value, spec.threshold);
  verdict.burn_value = window_metric(series.raw, spec.burn_window, spec.kind);
  verdict.burning =
      !verdict.ok && violates(spec.kind, verdict.burn_value, spec.threshold);
  return verdict;
}

std::vector<SloVerdict> evaluate_slos(const TimeSeriesSnapshot& series,
                                      const std::vector<SloSpec>& specs) {
  std::vector<SloVerdict> verdicts;
  verdicts.reserve(specs.size());
  for (const SloSpec& spec : specs) {
    verdicts.push_back(evaluate_slo(series, spec));
  }
  return verdicts;
}

std::string slo_verdicts_to_json(const std::vector<SloVerdict>& verdicts) {
  JsonWriter json;
  json.begin_array();
  for (const SloVerdict& v : verdicts) {
    json.begin_object();
    json.key("name").value(v.name);
    json.key("kind").value(slo_kind_name(v.kind));
    json.key("threshold").value(v.threshold);
    json.key("ok").value(v.ok);
    json.key("burning").value(v.burning);
    json.key("value").value(v.value);
    json.key("burn_value").value(v.burn_value);
    json.key("samples").value(v.samples);
    json.end_object();
  }
  json.end_array();
  return json.take();
}

}  // namespace slider::obs
