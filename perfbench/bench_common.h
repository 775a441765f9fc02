// Shared pieces of the wall-clock slide benchmark: options, clocks,
// percentiles, the in-memory span log, and the result line.
//
// The benchmark drives the system from outside: every timing here is taken
// by this benchmark around calls into the libraries' public functions. The
// program's own tracing (SLIDER_TRACE) stays off.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Every workload runs single-threaded (the global pool runs inline), so the
// reference kernel below samples the speed of the very core the slides run
// on.
constexpr int kThreads = 1;

// Reported times are at reference speed. A shared host's speed swings by up
// to 2x within seconds, for wall and CPU time alike, so the benchmark runs
// the reference kernel (Reference) just before and just after every timed
// interval and scales the interval's time by kReferenceMs / (the mean of the
// two). kReferenceMs is about the kernel's median on the 4-vCPU Xeon VM the
// benchmark was tuned on, so scaled times read as milliseconds there.
constexpr double kReferenceMs = 4.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Fixed-size smoke geometry for the repeatability test: a few slides or
  // rounds, every one checked, no time budget.
  bool tiny = false;
  // Scratch directory inside the checkout (durable tier, spool, spans).
  std::string work_dir;
};

// What one run measured. Metric names and units are fixed in main.cc: an
// untraced run reports every end-to-end metric, a traced run every
// per-layer metric (a layer the workload does not exercise reports 0).
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  // Human-readable context printed above the result line (sample counts,
  // accounting tables).
  std::vector<std::string> notes;

  void set(const std::string& name, double value) { metrics[name] = value; }
  void note(std::string line) { notes.push_back(std::move(line)); }
  // Notes the reference kernel's raw times over the run.
  void note_reference(const std::vector<double>& ref_ms);
};

// Monotonic wall clock and whole-process CPU clock (all threads), in ms.
double wall_ms();
double process_cpu_ms();

// Linear-interpolated percentile (p in [0, 100]) of an unsorted sample.
double percentile(std::vector<double> values, double p);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50);
}

// Peak resident set of the workload, in MiB, leaving out the output checks:
// the from-scratch reference holds a whole window's map outputs at once,
// which is the checker's memory, not the system's. The kernel's high-water
// mark (VmHWM) is folded in before each check and reset after it.
class PeakRss {
 public:
  void pause();
  void resume();
  double peak_mb();

 private:
  double peak_ = 0;
};

// Spans recorded by the traced run around calls into each layer. Kept in
// memory and written once, when the run ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_ms = 0;
    double end_ms = 0;
    double cpu_ms = 0;
    std::string parent;  // the slide or round the span belongs to
  };

  void add(Span span) { spans_.push_back(std::move(span)); }
  const std::vector<Span>& spans() const { return spans_; }
  // Writes {"spans":[...]} to `path`; false when the file cannot be written.
  bool write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// Times one call: wall and process-CPU milliseconds, appended to `log`
// (when non-null) under `name` / `parent`.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, std::string parent);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Ends the span early and returns its wall milliseconds.
  double stop();
  double cpu() const { return cpu_; }

 private:
  SpanLog* log_;
  std::string name_;
  std::string parent_;
  double start_ = 0;
  double cpu_start_ = 0;
  double wall_ = 0;
  double cpu_ = 0;
  bool stopped_ = false;
};

// A fixed amount of single-threaded work (string hashing, lookups in a
// 64 MiB probe table, a sort), shared with no library under test. Its
// duration tracks the host's current speed, caches and memory included.
class Reference {
 public:
  Reference();
  // One sample of the host's speed: the kernel's wall milliseconds with its
  // data flushed from every cache level first (after a run that warms the
  // TLB). The sample then starts from the same state whatever the program
  // under test left in the caches, and it measures memory latency under
  // the host's current load, which is what slows the workloads most.
  double sample_ms();
  // Scale factor to reference speed for an interval between kernel runs of
  // `before_ms` and `after_ms`.
  static double factor(double before_ms, double after_ms) {
    return 2 * kReferenceMs / (before_ms + after_ms);
  }
  // The kernel's own resident memory, left out of peak_rss_mb.
  double resident_mb() const;

 private:
  std::vector<unsigned char> keys_;
  std::vector<std::uint64_t> table_;
  std::vector<std::size_t> slots_;  // the table slot of each key
  std::vector<std::uint64_t> sort_src_;
  std::vector<std::uint64_t> sort_buf_;
  std::uint64_t sink_ = 0;

  double run_ms();
};

Result run_single_session(const Options& options);
Result run_fleet(const Options& options);

}  // namespace perfbench
