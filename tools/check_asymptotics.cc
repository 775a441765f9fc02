// Asymptotic regression gate (companion report arXiv:1604.00794).
//
// Self-adjusting contraction trees promise O(Δ log w) work per slide: the
// combiner invocations attributable to the window delta should scale with
// Δ·log2(w), not with the window size w. This tool makes that claim
// machine-checked on every PR:
//
//   1. For each tree variant (folding / rotating / coalescing) it runs a
//      (Δ, w) sweep of real SliderSessions and reads the *delta-attributed*
//      combiner invocations off the causal work ledger — only work booked
//      to window_add / window_remove counts, so memo-eviction recomputes or
//      recovery replays can never masquerade as delta work.
//   2. It fits the measurements against the model  y = c · Δ · log2(w)
//      (least squares through the origin) and reports the per-variant fit
//      constant c plus the worst-case per-point ratio.
//   3. It compares c against the committed baseline
//      (bench/baselines/asymptotics.json) and exits nonzero if any variant
//      regressed by more than the baseline's tolerance (default 1.25×).
//   4. It fits the memo-store index entries the slide's garbage collection
//      examined (MemoStoreStats::gc_examined) against the same model and
//      gates that constant against the baseline's "gc" section: GC erases
//      the node ids the slide released, so it must scale with the delta
//      too, not sweep the window.
//
// Modes:
//   (default)          run the sweep, write the fit report, gate vs baseline
//   --write-baseline   run the sweep and (re)write the baseline file
//   --self-test        negative test: run the *strawman* tree — whose
//                      per-slide work is window-proportional by design —
//                      through the same fit + gate, and a folding session
//                      whose GC sweeps the whole store after every slide
//                      through the GC gate; exit 0 only if the gates
//                      correctly FAIL them. Proves the gates have teeth.
//
// Flags: --baseline=PATH  --report=PATH  --quiet
//
// The gates deliberately measure *counts*, not wall-clock or simulated
// time: counts are deterministic and sanitizer-stable, so the gates behave
// identically under asan/tsan and across machines.

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench/bench_util.h"
#include "observability/json_writer.h"
#include "observability/work_ledger.h"

namespace slider {
namespace {

struct SweepPoint {
  std::size_t window = 0;
  std::size_t delta = 0;
  std::uint64_t delta_invocations = 0;  // window_add + window_remove
  std::uint64_t gc_examined = 0;        // index entries the slide's GC read
  double model_x = 0;                   // Δ · log2(w)
};

// Least-squares constant through the origin, c = Σ(x·y) / Σ(x²), and the
// worst per-point ratio y/x, for one measured quantity.
struct Fit {
  double fit_constant = 0;
  double max_point_ratio = 0;
};

struct VariantFit {
  std::string name;
  std::vector<SweepPoint> points;
  Fit invocations;
  Fit gc;
  bool linear_model = false;   // fitted against c·Δ, not c·Δ·log2(w)
};

struct VariantSpec {
  std::string name;
  WindowMode mode;
  TreeKind kind;
  // Flat tier: leave tree_kind unset so the session routes the eligible
  // substr combiner to the flat aggregator. Its per-slide work is O(Δ)
  // with no log factor, so it gets the stricter linear model.
  bool flat = false;
  // Fit y = c·Δ instead of y = c·Δ·log2(w). Implied by `flat`; also used
  // standalone by the self-test to prove tree-tier work cannot sneak
  // through the flat tier's linear gate.
  bool linear_model = false;
  // Self-test: after every slide, also sweep the whole store from the
  // session's live set (the O(w) GC the batch erase replaced).
  bool full_sweep_gc = false;
};

// Delta-attributed invocations currently booked in the process ledger.
std::uint64_t delta_attributed_invocations() {
  const obs::LedgerSnapshot snap = obs::WorkLedger::global().snapshot();
  return snap.total_for(obs::WorkCause::kWindowAdd).combiner_invocations +
         snap.total_for(obs::WorkCause::kWindowRemove).combiner_invocations;
}

Fit fit_points(const std::vector<SweepPoint>& points,
               std::uint64_t SweepPoint::*measure) {
  Fit fit;
  double xy = 0;
  double xx = 0;
  for (const SweepPoint& p : points) {
    const double y = static_cast<double>(p.*measure);
    xy += p.model_x * y;
    xx += p.model_x * p.model_x;
    fit.max_point_ratio = std::max(fit.max_point_ratio, y / p.model_x);
  }
  fit.fit_constant = xx > 0 ? xy / xx : 0;
  return fit;
}

VariantFit run_sweep(const VariantSpec& spec, bool quiet) {
  constexpr std::size_t kWindows[] = {48, 96, 192};
  constexpr std::size_t kDeltas[] = {2, 4, 8};
  constexpr int kWarmSlides = 2;

  VariantFit fit;
  fit.name = spec.name;
  fit.linear_model = spec.flat || spec.linear_model;
  const apps::MicroBenchmark app =
      apps::make_microbenchmark(apps::MicroApp::kSubStr);

  for (const std::size_t w : kWindows) {
    for (const std::size_t delta : kDeltas) {
      bench::BenchEnv env;  // fresh cluster + memo per point
      bench::ExperimentParams params;
      params.window_splits = w;
      params.records_per_split = 20;
      params.change_fraction = static_cast<double>(delta) / static_cast<double>(w);
      params.mode = spec.mode;
      if (spec.flat) {
        params.enable_flat_tier = true;  // tree_kind stays unset
      } else {
        params.tree_kind = spec.kind;
      }
      params.seed = 7 + w * 31 + delta;
      bench::Driver driver(env, app, params);
      driver.initial_run();
      for (int i = 0; i < kWarmSlides; ++i) driver.slide();

      const std::uint64_t gc_before = env.memo.stats().gc_examined;
      const std::uint64_t before = delta_attributed_invocations();
      driver.slide();
      const std::uint64_t after = delta_attributed_invocations();
      if (spec.full_sweep_gc) {
        std::unordered_set<NodeId> live;
        driver.session().collect_live_ids(live);
        env.memo.retain_only(live);
      }

      SweepPoint point;
      point.window = w;
      point.delta = delta;
      point.delta_invocations = after - before;
      point.gc_examined = env.memo.stats().gc_examined - gc_before;
      point.model_x =
          (spec.flat || spec.linear_model)
              ? static_cast<double>(delta)
              : static_cast<double>(delta) * std::log2(static_cast<double>(w));
      fit.points.push_back(point);
      if (!quiet) {
        std::printf(
            "  %-10s w=%4zu delta=%2zu  delta_inv=%8llu  gc=%6llu  x=%7.2f  "
            "y/x=%7.2f\n",
            spec.name.c_str(), w, delta,
            static_cast<unsigned long long>(point.delta_invocations),
            static_cast<unsigned long long>(point.gc_examined), point.model_x,
            static_cast<double>(point.delta_invocations) / point.model_x);
      }
    }
  }
  fit.invocations = fit_points(fit.points, &SweepPoint::delta_invocations);
  fit.gc = fit_points(fit.points, &SweepPoint::gc_examined);
  return fit;
}

// --- minimal JSON number extraction for the (self-authored) baseline ------
//
// The baseline file is written by this tool; the reader only needs to find
// `"key": <number>` pairs, so a scanner beats carrying a JSON parser.
bool find_number(const std::string& doc, const std::string& key, double* out) {
  const std::string needle = "\"" + key + "\"";
  std::size_t at = doc.find(needle);
  if (at == std::string::npos) return false;
  at = doc.find(':', at + needle.size());
  if (at == std::string::npos) return false;
  ++at;
  while (at < doc.size() && std::isspace(static_cast<unsigned char>(doc[at]))) {
    ++at;
  }
  char* end = nullptr;
  const double value = std::strtod(doc.c_str() + at, &end);
  if (end == doc.c_str() + at) return false;
  *out = value;
  return true;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return "";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// One section of the report: per variant, the model, the fit of
// `measure` and the points.
void section_to_json(obs::JsonWriter& json,
                     const std::vector<VariantFit>& fits, const char* measure,
                     Fit VariantFit::*fit_of,
                     std::uint64_t SweepPoint::*value_of) {
  for (const VariantFit& fit : fits) {
    json.key(fit.name).begin_object();
    json.key("model").value(std::string(measure) +
                            (fit.linear_model ? " = c * delta"
                                              : " = c * delta * log2(window)"));
    json.key("fit_constant").value((fit.*fit_of).fit_constant);
    json.key("max_point_ratio").value((fit.*fit_of).max_point_ratio);
    json.key("points").begin_array();
    for (const SweepPoint& p : fit.points) {
      json.begin_object();
      json.key("window").value(static_cast<std::uint64_t>(p.window));
      json.key("delta").value(static_cast<std::uint64_t>(p.delta));
      json.key(measure).value(p.*value_of);
      json.key("model_x").value(p.model_x);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
}

std::string fits_to_json(const std::vector<VariantFit>& fits,
                         double tolerance) {
  obs::JsonWriter json;
  json.begin_object();
  json.key("schema_version").value(static_cast<std::int64_t>(1));
  json.key("model").value(std::string(
      "per-variant: c * delta * log2(window) for trees, c * delta for the "
      "flat tier (see variants.*.model)"));
  json.key("fit").value(std::string("least_squares_through_origin"));
  json.key("tolerance").value(tolerance);
  json.key("variants").begin_object();
  section_to_json(json, fits, "delta_invocations", &VariantFit::invocations,
                  &SweepPoint::delta_invocations);
  json.end_object();
  // Memo-store index entries the measured slide's GC examined.
  json.key("gc").begin_object();
  section_to_json(json, fits, "gc_examined", &VariantFit::gc,
                  &SweepPoint::gc_examined);
  json.end_object();
  json.end_object();
  return json.take();
}

bool write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path);
  if (!out) return false;
  out << contents;
  return static_cast<bool>(out);
}

// The baseline's GC fits, or an empty string when it has none.
std::string gc_section(const std::string& baseline_doc) {
  const std::size_t at = baseline_doc.find("\"gc\"");
  return at == std::string::npos ? std::string() : baseline_doc.substr(at);
}

// Gate one variant's fit against a baseline section (the invocation fits
// lead the document; gc_section() holds the GC fits). Returns true when
// the variant passes.
bool gate_variant(const std::string& label, const Fit& fit,
                  const std::string& baseline_doc,
                  const std::string& baseline_key, double tolerance) {
  double baseline_c = 0;
  // The baseline nests fit_constant under the variant name; scan for the
  // variant key first so the right fit_constant is picked up.
  const std::size_t at = baseline_doc.find("\"" + baseline_key + "\"");
  if (at == std::string::npos) {
    std::fprintf(stderr, "GATE ERROR: baseline has no variant '%s'\n",
                 baseline_key.c_str());
    return false;
  }
  if (!find_number(baseline_doc.substr(at), "fit_constant", &baseline_c) ||
      baseline_c <= 0) {
    std::fprintf(stderr, "GATE ERROR: baseline fit_constant for '%s' missing\n",
                 baseline_key.c_str());
    return false;
  }
  const double limit = baseline_c * tolerance;
  const bool pass = fit.fit_constant > 0 && fit.fit_constant <= limit;
  std::printf("gate %-13s fit=%8.2f baseline=%8.2f limit=%8.2f  %s\n",
              label.c_str(), fit.fit_constant, baseline_c, limit,
              pass ? "PASS" : "FAIL");
  return pass;
}

int run(int argc, char** argv) {
  std::string baseline_path = "bench/baselines/asymptotics.json";
  std::string report_path = "asymptotics_report.json";
  bool write_baseline = false;
  bool self_test = false;
  bool quiet = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = arg.substr(std::strlen("--baseline="));
    } else if (arg.rfind("--report=", 0) == 0) {
      report_path = arg.substr(std::strlen("--report="));
    } else if (arg == "--write-baseline") {
      write_baseline = true;
    } else if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      std::fprintf(stderr,
                   "usage: check_asymptotics [--baseline=PATH] [--report=PATH]"
                   " [--write-baseline] [--self-test] [--quiet]\n");
      return 2;
    }
  }

  if (self_test) {
    // Negative test: the strawman tree touches every node on every slide,
    // so its delta-attributed work is window-proportional. Fitting it
    // against c·Δ·log2(w) and gating against the *folding* baseline must
    // FAIL — if it passes, the gate has no teeth.
    std::printf("self-test: strawman (window-proportional) must fail the gate\n");
    const VariantFit fit = run_sweep(
        {"strawman", WindowMode::kVariableWidth, TreeKind::kStrawman}, quiet);
    const std::string baseline_doc = read_file(baseline_path);
    if (baseline_doc.empty()) {
      std::fprintf(stderr, "cannot read baseline %s\n", baseline_path.c_str());
      return 2;
    }
    double tolerance = 1.25;
    find_number(baseline_doc, "tolerance", &tolerance);
    const bool passed_gate = gate_variant(fit.name, fit.invocations,
                                          baseline_doc, "folding", tolerance);
    if (passed_gate) {
      std::fprintf(stderr,
                   "SELF-TEST FAILED: window-proportional work passed the "
                   "asymptotic gate\n");
      return 1;
    }
    // Second negative, one per gate model: strawman work fitted against
    // the flat tier's linear y = c·Δ model must fail the flat baseline.
    // (Window-proportional work has an unbounded per-Δ constant as w
    // grows, so it can never hide behind the flat tier's budget.)
    std::printf(
        "self-test: strawman (window-proportional) must fail the flat "
        "linear gate\n");
    VariantFit linear_probe = run_sweep({"strawman", WindowMode::kVariableWidth,
                                         TreeKind::kStrawman, /*flat=*/false,
                                         /*linear_model=*/true},
                                        quiet);
    const bool passed_linear_gate =
        gate_variant("strawman_as_flat", linear_probe.invocations,
                     baseline_doc, "flat", tolerance);
    if (passed_linear_gate) {
      std::fprintf(stderr,
                   "SELF-TEST FAILED: window-proportional work passed the "
                   "flat tier's linear gate\n");
      return 1;
    }
    // Third negative, for the GC gate: a folding session whose store is
    // also swept whole after every slide examines the window, not the
    // released ids, and must fail the folding GC baseline.
    std::printf(
        "self-test: full-sweep GC (window-proportional) must fail the GC "
        "gate\n");
    const VariantFit sweep_probe =
        run_sweep({"folding", WindowMode::kVariableWidth, TreeKind::kFolding,
                   /*flat=*/false, /*linear_model=*/false,
                   /*full_sweep_gc=*/true},
                  quiet);
    const bool passed_gc_gate =
        gate_variant("full_sweep_gc", sweep_probe.gc, gc_section(baseline_doc),
                     "folding", tolerance);
    if (passed_gc_gate) {
      std::fprintf(stderr,
                   "SELF-TEST FAILED: a full-sweep GC passed the GC gate\n");
      return 1;
    }
    std::printf(
        "self-test OK: every gate correctly rejected out-of-model work\n");
    return 0;
  }

  const VariantSpec specs[] = {
      {"folding", WindowMode::kVariableWidth, TreeKind::kFolding},
      {"rotating", WindowMode::kFixedWidth, TreeKind::kRotating},
      {"coalescing", WindowMode::kAppendOnly, TreeKind::kCoalescing},
      // Flat tier: kind is unused (tree_kind stays unset so the session
      // routes to the flat aggregator); gated against the stricter c·Δ
      // model — per-slide work must be independent of the window size.
      {"flat", WindowMode::kVariableWidth, TreeKind::kFolding, /*flat=*/true},
  };
  std::vector<VariantFit> fits;
  for (const VariantSpec& spec : specs) {
    if (!quiet) std::printf("sweep: %s\n", spec.name.c_str());
    fits.push_back(run_sweep(spec, quiet));
  }

  double tolerance = 1.25;
  if (!write_baseline) {
    const std::string baseline_doc = read_file(baseline_path);
    if (baseline_doc.empty()) {
      std::fprintf(stderr,
                   "cannot read baseline %s (run with --write-baseline to "
                   "create it)\n",
                   baseline_path.c_str());
      return 2;
    }
    find_number(baseline_doc, "tolerance", &tolerance);
    const std::string report = fits_to_json(fits, tolerance);
    if (!write_file(report_path, report)) {
      std::fprintf(stderr, "cannot write report %s\n", report_path.c_str());
      return 2;
    }
    std::printf("fit report: %s\n", report_path.c_str());
    bool all_pass = true;
    for (const VariantFit& fit : fits) {
      all_pass &= gate_variant(fit.name, fit.invocations, baseline_doc,
                               fit.name, tolerance);
    }
    const std::string gc_doc = gc_section(baseline_doc);
    for (const VariantFit& fit : fits) {
      all_pass &= gate_variant(fit.name + " gc", fit.gc, gc_doc, fit.name,
                               tolerance);
    }
    if (!all_pass) {
      std::fprintf(stderr,
                   "\nASYMPTOTIC GATE FAILED: delta-attributed work or GC "
                   "regressed >%.0f%% vs %s.\nIf the regression is intended "
                   "(e.g. an accounting change), re-baseline with "
                   "--write-baseline and commit the new file.\n",
                   (tolerance - 1.0) * 100.0, baseline_path.c_str());
      return 1;
    }
    std::printf("asymptotic gate: all variants within %.2fx of baseline\n",
                tolerance);
    return 0;
  }

  const std::string baseline = fits_to_json(fits, tolerance);
  if (!write_file(baseline_path, baseline)) {
    std::fprintf(stderr, "cannot write baseline %s\n", baseline_path.c_str());
    return 2;
  }
  std::printf("baseline written: %s\n", baseline_path.c_str());
  return 0;
}

}  // namespace
}  // namespace slider

int main(int argc, char** argv) { return slider::run(argc, argv); }
