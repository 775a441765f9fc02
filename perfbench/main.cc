// perfbench — wall-clock slide benchmark: command-line entry and reporting.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--tiny]
//             [--work-dir DIR]
//
// Workloads (see README.md): hct-fold-w800, substr-flat-w800,
// fleet-quota-t128. Prints one "name value unit" line per metric, then a
// single JSON result line:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// Exit status 0 iff every checked output equals its from-scratch reference.

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <utility>

#include "bench_common.h"
#include "common/thread_pool.h"

namespace perfbench {

double wall_ms() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

double vm_hwm_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

}  // namespace

void PeakRss::pause() { peak_ = std::max(peak_, vm_hwm_mb()); }

void PeakRss::resume() {
  // Hand the checker's freed memory back, then restart the high-water mark
  // from the current resident set ("5" resets VmHWM, Linux >= 4.0). Where
  // the reset is refused the mark keeps the check's peak, which only
  // overstates.
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRss::peak_mb() {
  pause();
  return peak_;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

bool SpanLog::write_json(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << json_escape(s.name)
        << "\",\"start_ms\":" << number(s.start_ms)
        << ",\"end_ms\":" << number(s.end_ms)
        << ",\"cpu_ms\":" << number(s.cpu_ms) << ",\"parent\":\""
        << json_escape(s.parent) << "\"}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void Result::note_reference(const std::vector<double>& ref_ms) {
  char line[200];
  std::snprintf(line, sizeof(line),
                "reference kernel: %zu samples, p50 %.3f ms raw (min %.3f, "
                "p95 %.3f); times are scaled to %.1f ms",
                ref_ms.size(), median(ref_ms),
                ref_ms.empty() ? 0.0 : *std::min_element(ref_ms.begin(),
                                                         ref_ms.end()),
                percentile(ref_ms, 95), kReferenceMs);
  note(line);
}

ScopedSpan::ScopedSpan(SpanLog* log, std::string name, std::string parent)
    : log_(log),
      name_(std::move(name)),
      parent_(std::move(parent)),
      start_(wall_ms()),
      cpu_start_(process_cpu_ms()) {}

ScopedSpan::~ScopedSpan() { stop(); }

double ScopedSpan::stop() {
  if (stopped_) return wall_;
  stopped_ = true;
  const double end = wall_ms();
  wall_ = end - start_;
  cpu_ = process_cpu_ms() - cpu_start_;
  if (log_ != nullptr) {
    log_->add({std::move(name_), start_, end, cpu_, std::move(parent_)});
  }
  return wall_;
}

}  // namespace perfbench

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Reported by every untraced run (BENCHMARK.json "end_to_end").
constexpr MetricSpec kEndToEnd[] = {
    {"slide_p50_ms", "ms"},   {"slide_p95_ms", "ms"},
    {"runs_per_s", "1/s"},    {"cpu_ms_per_run", "ms"},
    {"setup_s", "s"},         {"peak_rss_mb", "MiB"},
};

// Reported by every traced run (BENCHMARK.json "per_layer").
constexpr MetricSpec kPerLayer[] = {
    {"mapreduce.map_ms", "ms"},
    {"mapreduce.map_cpu_ms", "ms"},
    {"mapreduce.reduce_ms", "ms"},
    {"mapreduce.reduce_cpu_ms", "ms"},
    {"mapreduce.scratch_ms", "ms"},
    {"contraction.apply_delta_ms", "ms"},
    {"contraction.apply_delta_cpu_ms", "ms"},
    {"contraction.initial_build_ms", "ms"},
    {"contraction.combiner_invocations", "count"},
    {"contraction.combiner_reused", "count"},
    {"contraction.reuse_ratio", "ratio"},
    {"contraction.nodes_visited", "count"},
    {"contraction.rows_scanned", "count"},
    {"storage.gc_ms", "ms"},
    {"storage.gc_collected", "count"},
    {"storage.put_us_per_kb", "us/KiB"},
    {"storage.get_us_per_kb", "us/KiB"},
    {"storage.memo_entries", "count"},
    {"storage.memo_mb", "MiB"},
    {"storage.hit_ratio", "ratio"},
    {"storage.misses", "count"},
    {"storage.quota_evictions", "count"},
    {"storage.eviction_forced_misses", "count"},
    {"durability.persistent_writes", "count"},
    {"durability.bytes_persisted", "bytes"},
    {"durability.log_mb", "MiB"},
    {"serving.submit_ms", "ms"},
    {"serving.run_pending_ms", "ms"},
    {"serving.gc_ms", "ms"},
    {"serving.drain_ms", "ms"},
    {"serving.checkpoints", "count"},
    {"serving.hydrations", "count"},
    {"serving.shed", "count"},
    {"slider.slide_p50_ms", "ms"},
    {"slider.self_ms", "ms"},
    {"slider.speedup_vs_scratch", "ratio"},
    {"slider.sim_work_s", "s"},
    {"slider.sim_time_s", "s"},
    {"trace.slide_p50_ms", "ms"},
    {"trace.slide_delta_ms", "ms"},
    {"trace.overhead_ms", "ms"},
    {"host.reference_ms", "ms"},
};

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "{hct-fold-w800|substr-flat-w800|fleet-quota-t128} "
               "--seed N --seconds S --trace 0|1 [--tiny] [--work-dir DIR]\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--work-dir" && has_value) {
      options.work_dir = argv[++i];
    } else {
      usage();
      return 2;
    }
  }
  if (options.work_dir.empty()) options.work_dir = ".";
  if (options.seconds <= 0) {
    usage();
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                 options.work_dir.c_str(), ec.message().c_str());
    return 2;
  }

  slider::ThreadPool::set_global_threads(perfbench::kThreads);

  perfbench::Result result;
  if (options.workload == "hct-fold-w800" ||
      options.workload == "substr-flat-w800") {
    result = perfbench::run_single_session(options);
  } else if (options.workload == "fleet-quota-t128") {
    result = perfbench::run_fleet(options);
  } else {
    usage();
    return 2;
  }
  if (result.attempted == 0) {
    std::fprintf(stderr, "perfbench: workload attempted no operations\n");
    return 1;
  }

  const std::span<const MetricSpec> specs =
      options.trace ? std::span<const MetricSpec>(kPerLayer)
                    : std::span<const MetricSpec>(kEndToEnd);
  for (const auto& [name, value] : result.metrics) {
    if (std::none_of(specs.begin(), specs.end(), [&](const MetricSpec& s) {
          return name == s.name;
        })) {
      std::fprintf(stderr, "perfbench: unlisted metric %s\n", name.c_str());
      return 1;
    }
  }
  // Per-layer metrics of a layer the workload does not exercise read 0;
  // every end-to-end metric must have been measured.
  std::vector<std::pair<MetricSpec, double>> rows;
  for (const MetricSpec& spec : specs) {
    const auto it = result.metrics.find(spec.name);
    if (it == result.metrics.end() && !options.trace) {
      std::fprintf(stderr, "perfbench: %s not measured\n", spec.name);
      return 1;
    }
    rows.emplace_back(spec, it == result.metrics.end() ? 0.0 : it->second);
  }

  for (const std::string& note : result.notes) {
    std::printf("# %s\n", note.c_str());
  }
  for (const auto& [spec, value] : rows) {
    std::printf("%-34s %16.6f %s\n", spec.name, value, spec.unit);
  }
  std::printf("%-34s %16.6f ratio (%llu/%llu)\n", "error_rate",
              static_cast<double>(result.failed) /
                  static_cast<double>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));

  const bool correct = result.failed == 0;
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& [spec, value] = rows[i];
    if (i > 0) line += ", ";
    line += "\"" + std::string(spec.name) + "\": {\"value\": " +
            perfbench::number(value) + ", \"unit\": \"" + spec.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
