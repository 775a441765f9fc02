// Live introspection endpoint: a tiny embedded HTTP/1.0 server (plain
// POSIX sockets, loopback by default, zero dependencies) exposing the
// process's observability state while a session runs:
//
//   GET /healthz         — liveness probe ("ok\n"; the session overrides
//                          it with degradation state + SLO verdicts)
//   GET /metrics         — Prometheus text exposition: slider_build_info,
//                          every StatsRegistry instrument, and the causal
//                          work ledger
//   GET /ledger.json     — full WorkLedger snapshot (per-run, per-partition,
//                          per-(cause, level) attribution)
//   GET /trace           — Chrome trace-event JSON of the trace ring buffer
//   GET /timeseries.json — per-slide time series (observability/timeseries.h):
//                          recent slides raw, older history aggregated
//   + any route registered via add_route() (the session registers /tree)
//
// Design: one accept thread; connections are handled inline (requests are
// single-line GETs, responses are built in memory, Connection: close).
// poll() with a short timeout keeps stop() prompt. The server holds no
// locks while a handler runs — handlers snapshot through the instruments'
// own synchronization, so a scrape can land mid-slide without stalling
// workers (asserted under tsan in tests/test_work_ledger.cc).
//
// Lifecycle: constructed stopped; start() binds + spawns the thread and
// returns false (with a log line) if the port cannot be bound. When
// `options.fallback_to_ephemeral` is set, a busy port falls back to an
// OS-assigned ephemeral one — port() reports what was actually bound.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "observability/stats.h"
#include "observability/work_ledger.h"

namespace slider::obs {

struct HttpRequest {
  std::string method;
  std::string path;   // decoded target up to '?'
  std::string query;  // raw query string ("" when absent)

  // First value of `key` in the query string; `fallback` when absent.
  std::string query_param(std::string_view key,
                          std::string_view fallback = "") const;

  // Strict unsigned decimal: nullopt unless `text` is one or more ASCII
  // digits (no sign, space or suffix) whose value is at most `max`, so a
  // handler answers 400 instead of serving a guess.
  static std::optional<std::uint64_t> parse_uint(
      std::string_view text,
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max());
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;

  static HttpResponse text(std::string body,
                           std::string content_type =
                               "text/plain; charset=utf-8") {
    HttpResponse r;
    r.body = std::move(body);
    r.content_type = std::move(content_type);
    return r;
  }
  static HttpResponse json(std::string body) {
    return text(std::move(body), "application/json");
  }
  static HttpResponse error(int status, std::string message);
};

// Prometheus text exposition (version 0.0.4) of a stats snapshot plus the
// work ledger. Function of its inputs plus the process build identity
// (build_info.h), so tests can validate the format without sockets.
// Conventions: every metric is prefixed "slider_", names are sanitized to
// [a-zA-Z0-9_:], counters get a "_total" suffix, histograms emit
// cumulative le-labelled buckets ending in le="+Inf", ledger work is
// labelled {cause="..."}, and the exposition opens with the
// slider_build_info constant-1 gauge (version/git-sha/build-type labels).
std::string prometheus_text(const StatsSnapshot& stats,
                            const LedgerSnapshot& ledger);

class ProvenanceRecorder;

// The provenance drill-down routes, one handler each for the session's
// endpoint and the fleet's (which resolves ?tenant= to a recorder first).
// A null `recorder` answers 404, naming `option` as the setting that arms
// recording.
//   /explain?key=K[&partition=P][&sequence=S]: 400 on a missing key, a
//   partition that does not parse or is not below `partitions`, or a
//   sequence that does not parse.
//   /criticalpath.json: the recorder's critical paths.
HttpResponse explain_route(const ProvenanceRecorder* recorder,
                           const HttpRequest& request,
                           std::uint64_t partitions, std::string_view option);
HttpResponse criticalpath_route(const ProvenanceRecorder* recorder,
                                std::string_view option);

class IntrospectionServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  struct Options {
    std::uint16_t port = 0;  // 0 = OS-assigned ephemeral port
    // Retry with an ephemeral port when `port` is already bound.
    bool fallback_to_ephemeral = true;
    // Bind address; loopback unless explicitly widened.
    std::string bind_address = "127.0.0.1";
  };

  explicit IntrospectionServer(Options options);
  ~IntrospectionServer();
  IntrospectionServer(const IntrospectionServer&) = delete;
  IntrospectionServer& operator=(const IntrospectionServer&) = delete;

  // Registers `handler` for exact path `path` (e.g. "/tree"). Replaces any
  // existing route. Safe before start(); after start() only from the
  // owning thread while no request is being dispatched to the same path.
  void add_route(std::string path, Handler handler);

  // Binds, listens, and spawns the accept thread. Returns false (logging
  // the reason) if no socket could be bound; the server stays stopped.
  bool start();
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  // Actual bound port (differs from options.port after ephemeral
  // fallback); 0 while stopped.
  std::uint16_t port() const { return port_; }

  // Request router, exposed for socket-free testing: feeds one raw HTTP
  // request text through parsing + dispatch and returns the full response
  // bytes (status line, headers, body).
  std::string handle_raw_request(std::string_view request_text) const;

 private:
  void accept_loop();
  void handle_connection(int fd) const;
  HttpResponse dispatch(const HttpRequest& request) const;

  Options options_;
  std::map<std::string, Handler, std::less<>> routes_;
  mutable std::mutex routes_mutex_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace slider::obs
