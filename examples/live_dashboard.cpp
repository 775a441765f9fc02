// Live dashboard: watch a sliding session through its introspection port.
//
// Runs a standing word-count session with the embedded HTTP endpoint
// enabled, then plays operator: after every slide it scrapes its own
// /metrics (Prometheus text), /ledger.json, /timeseries.json, /tree
// (with provenance disposition coloring), /criticalpath.json, and
// /explain routes over a real TCP connection — exactly what `curl
// localhost:$PORT/metrics` or a Prometheus scraper would see — and prints
// a refreshing terminal summary:
//
//   slide  window   inv(total)   reuse   by-cause: initial/add/remove   height
//
// Exits nonzero if any scrape fails or returns malformed payloads, so it
// doubles as the CI smoke test for the live-introspection path.
//
// Build & run:  ./build/examples/live_dashboard

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "data/split.h"
#include "data/text_gen.h"
#include "observability/slo.h"
#include "slider/session.h"

namespace {

using namespace slider;

JobSpec word_count_job() {
  class WordCountMapper final : public Mapper {
   public:
    void map(const Record& input, Emitter& out) const override {
      for (const auto word : split_view(input.value, ' ')) {
        if (!word.empty()) out.emit(std::string(word), "1");
      }
    }
  };
  JobSpec job;
  job.name = "live-dashboard-wordcount";
  job.mapper = std::make_shared<WordCountMapper>();
  job.combiner = [](const std::string&, const std::string& a,
                    const std::string& b) {
    std::uint64_t x = 0, y = 0;
    parse_u64(a, &x);
    parse_u64(b, &y);
    return std::to_string(x + y);
  };
  job.reducer = [](const std::string&,
                   const std::string& v) -> std::optional<std::string> {
    return v;
  };
  job.num_partitions = 4;
  return job;
}

// Minimal HTTP/1.0 GET against 127.0.0.1:`port`. Returns the raw response
// (headers + body), or "" on any socket error.
std::string http_get(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return "";
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buffer[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string body_of(const std::string& response) {
  const std::size_t at = response.find("\r\n\r\n");
  return at == std::string::npos ? "" : response.substr(at + 4);
}

// First sample value of a Prometheus metric, summed over its labelled
// series (good enough for a dashboard; a real scraper parses properly).
double metric_sum(const std::string& text, const std::string& name) {
  double sum = 0;
  std::size_t at = 0;
  while ((at = text.find(name, at)) != std::string::npos) {
    // Skip HELP/TYPE lines and substring matches of longer metric names.
    const std::size_t line_start = text.rfind('\n', at);
    const std::size_t begin = line_start == std::string::npos ? 0 : line_start + 1;
    const char follow =
        at + name.size() < text.size() ? text[at + name.size()] : '\0';
    if (text[begin] != '#' && (follow == ' ' || follow == '{')) {
      const std::size_t space = text.find(' ', at + name.size());
      if (space != std::string::npos) {
        sum += std::strtod(text.c_str() + space + 1, nullptr);
      }
    }
    at += name.size();
  }
  return sum;
}

bool fail(const char* what) {
  std::fprintf(stderr, "live_dashboard: FAILED — %s\n", what);
  return false;
}

}  // namespace

int main() {
  CostModel cost;
  Cluster cluster(ClusterConfig{.num_machines = 24, .slots_per_machine = 2});
  VanillaEngine engine(cluster, cost);
  MemoStore memo(cluster, cost);

  SliderConfig config;
  config.mode = WindowMode::kFixedWidth;
  config.bucket_width = 4;
  config.introspect_port = 0;  // ephemeral: pick any free port
  config.slos = obs::default_slos();  // annotate /healthz with verdicts
  config.record_provenance = true;    // arm /explain + /criticalpath.json

  SliderSession session(engine, memo, word_count_job(), config);
  const auto* server = session.introspection();
  if (server == nullptr || !server->running()) {
    std::fprintf(stderr, "live_dashboard: introspection server did not start\n");
    return 1;
  }
  const int port = server->port();
  std::printf("introspection endpoint: http://127.0.0.1:%d  (/metrics /ledger.json /timeseries.json /tree /trace /healthz)\n\n", port);

  TextGenOptions text;
  text.vocabulary_size = 600;
  text.words_per_document = 24;
  TextGenerator gen(text);
  SplitId next_id = 0;
  auto make_window = [&](std::size_t split_count) {
    auto records = gen.documents(split_count * 16);
    auto splits = make_splits(std::move(records), 16, next_id);
    next_id += splits.size();
    return splits;
  };

  session.initial_run(make_window(40));

  std::printf("%-6s %-7s %-11s %-7s %-30s %-6s\n", "slide", "window",
              "inv(total)", "reuse", "by-cause initial/add/remove", "height");
  bool ok = true;
  constexpr int kSlides = 6;
  for (int i = 1; i <= kSlides && ok; ++i) {
    session.slide(4, make_window(4));

    // --- scrape /healthz (now annotated with SLO verdicts) ---------------
    const std::string health = http_get(port, "/healthz");
    const std::string health_body = body_of(health);
    if (health.find("200") == std::string::npos ||
        health_body.find("ok") == std::string::npos ||
        health_body.find("\"slo\"") == std::string::npos) {
      ok = fail("/healthz");
      break;
    }

    // --- scrape /timeseries.json (per-slide flight-recorder samples) -----
    const std::string series = body_of(http_get(port, "/timeseries.json"));
    if (series.find("\"total_recorded\"") == std::string::npos ||
        series.find("\"raw\"") == std::string::npos) {
      ok = fail("/timeseries.json");
      break;
    }

    // --- scrape /metrics (Prometheus text) -------------------------------
    const std::string metrics_response = http_get(port, "/metrics");
    const std::string metrics = body_of(metrics_response);
    if (metrics_response.find("200") == std::string::npos ||
        metrics.find("# TYPE") == std::string::npos) {
      ok = fail("/metrics");
      break;
    }
    const double inv_total =
        metric_sum(metrics, "slider_work_combiner_invocations_total");
    const double reused =
        metric_sum(metrics, "slider_work_combiner_reused_total");
    auto cause = [&](const char* name) {
      return metric_sum(
          metrics, std::string("slider_work_combiner_invocations_total{cause=\"") +
                       name + "\"}");
    };

    // --- scrape /ledger.json --------------------------------------------
    const std::string ledger = body_of(http_get(port, "/ledger.json"));
    if (ledger.find("\"totals_by_cause\"") == std::string::npos) {
      ok = fail("/ledger.json");
      break;
    }

    // --- scrape /tree ----------------------------------------------------
    const std::string tree = body_of(http_get(port, "/tree?partition=0"));
    if (tree.find("\"height\"") == std::string::npos) {
      ok = fail("/tree");
      break;
    }
    const std::string dot =
        body_of(http_get(port, "/tree?partition=0&format=dot"));
    if (dot.find("digraph") == std::string::npos) {
      ok = fail("/tree format=dot");
      break;
    }
    // The armed session colors the dot export by last-slide disposition;
    // a fixed-width slide always recomputes something.
    if (dot.find("lightcoral") == std::string::npos &&
        dot.find("gray80") == std::string::npos) {
      ok = fail("/tree format=dot dispositions");
      break;
    }

    // --- scrape /criticalpath.json + /explain (provenance routes) --------
    const std::string cp = body_of(http_get(port, "/criticalpath.json"));
    if (cp.find("\"critical_path_seconds\"") == std::string::npos) {
      ok = fail("/criticalpath.json");
      break;
    }
    // Explain a key the window is guaranteed to contain: pull one straight
    // from the current reduce output.
    const auto& out = session.output()[0];
    if (!out.empty()) {
      const std::string key(out.rows().front().key);
      const std::string explain =
          body_of(http_get(port, "/explain?key=" + key + "&partition=0"));
      if (explain.find("\"found\":true") == std::string::npos ||
          explain.find("\"frontier\"") == std::string::npos) {
        ok = fail("/explain");
        break;
      }
    }

    std::printf("%-6d %-7zu %-11.0f %-7.0f %9.0f/%5.0f/%6.0f %13d\n", i,
                session.window().size(), inv_total, reused,
                cause("initial_build"), cause("window_add"),
                cause("window_remove"), session.tree_height(0));
    std::fflush(stdout);
  }

  if (!ok) return 1;

  // SLO verdicts the session computed on its last slide — the same ones
  // /healthz embeds under "slo".
  std::printf("\nSLO verdicts (lenient defaults):\n");
  for (const auto& v : session.slo_verdicts()) {
    std::printf("  %-14s %-6s value=%.3f threshold=%.3f samples=%llu%s\n",
                v.name.c_str(), v.ok ? "ok" : "BREACH", v.value, v.threshold,
                static_cast<unsigned long long>(v.samples),
                v.burning ? "  [burning]" : "");
  }

  // One last pull of the trace route (Chrome-trace JSON download).
  const std::string trace = body_of(http_get(port, "/trace"));
  if (trace.find("\"traceEvents\"") == std::string::npos) {
    std::fprintf(stderr, "live_dashboard: FAILED — /trace\n");
    return 1;
  }
  std::printf("\nall routes healthy after %d slides — dashboard smoke OK\n",
              kSlides);
  return 0;
}
