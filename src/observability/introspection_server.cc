#include "observability/introspection_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>

#include "common/logging.h"
#include "observability/build_info.h"
#include "observability/provenance.h"
#include "observability/timeseries.h"
#include "observability/trace.h"
#include "observability/trace_export.h"

namespace slider::obs {
namespace {

constexpr std::size_t kMaxRequestBytes = 8192;

std::string sanitize_metric_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, "_");
  return out;
}

void append_double(std::string& out, double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.12g", value);
  out += buffer;
}

const char* status_reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    default: return "Internal Server Error";
  }
}

}  // namespace

std::string HttpRequest::query_param(std::string_view key,
                                     std::string_view fallback) const {
  std::string_view rest = query;
  while (!rest.empty()) {
    const std::size_t amp = rest.find('&');
    const std::string_view pair =
        amp == std::string_view::npos ? rest : rest.substr(0, amp);
    rest = amp == std::string_view::npos ? std::string_view{}
                                         : rest.substr(amp + 1);
    const std::size_t eq = pair.find('=');
    const std::string_view name =
        eq == std::string_view::npos ? pair : pair.substr(0, eq);
    if (name == key) {
      return std::string(eq == std::string_view::npos ? std::string_view{}
                                                      : pair.substr(eq + 1));
    }
  }
  return std::string(fallback);
}

std::optional<std::uint64_t> HttpRequest::parse_uint(std::string_view text,
                                                     std::uint64_t max) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc{} || stop != end || value > max) {
    return std::nullopt;
  }
  return value;
}

HttpResponse HttpResponse::error(int status, std::string message) {
  HttpResponse r;
  r.status = status;
  r.body = std::move(message);
  if (!r.body.empty() && r.body.back() != '\n') r.body += '\n';
  return r;
}

// --- provenance routes -------------------------------------------------------

namespace {

HttpResponse recording_disabled(std::string_view option) {
  return HttpResponse::error(404, "provenance recording is not enabled (" +
                                      std::string(option) + ")");
}

}  // namespace

HttpResponse explain_route(const ProvenanceRecorder* recorder,
                           const HttpRequest& request,
                           std::uint64_t partitions, std::string_view option) {
  if (recorder == nullptr) return recording_disabled(option);
  const std::string key = request.query_param("key");
  if (key.empty()) {
    return HttpResponse::error(400, "missing ?key=<reduce key>");
  }
  const std::string raw = request.query_param("partition", "0");
  const std::optional<std::uint64_t> partition = HttpRequest::parse_uint(raw);
  if (!partition || *partition >= partitions) {
    return HttpResponse::error(400, "bad partition '" + raw +
                                        "' (must be below " +
                                        std::to_string(partitions) + ")");
  }
  std::optional<std::uint64_t> sequence;
  if (const std::string seq = request.query_param("sequence"); !seq.empty()) {
    sequence = HttpRequest::parse_uint(seq);
    if (!sequence) return HttpResponse::error(400, "bad sequence '" + seq + "'");
  }
  return HttpResponse::json(explanation_to_json(
      recorder->explain(key, static_cast<int>(*partition), sequence)));
}

HttpResponse criticalpath_route(const ProvenanceRecorder* recorder,
                                std::string_view option) {
  if (recorder == nullptr) return recording_disabled(option);
  return HttpResponse::json(criticalpath_to_json(recorder->snapshot()));
}

// --- Prometheus exposition ---------------------------------------------------

std::string prometheus_text(const StatsSnapshot& stats,
                            const LedgerSnapshot& ledger) {
  std::string out;
  out.reserve(4096);

  // Build identity first (standard Prometheus build-info convention): a
  // constant-1 gauge whose labels carry version / git sha / build type and
  // any runtime labels (e.g. tree_variant, set by the session).
  out += "# TYPE slider_build_info gauge\n";
  out += build_info_prometheus_line();
  out += "\n";

  for (const auto& [name, value] : stats.counters) {
    const std::string metric = "slider_" + sanitize_metric_name(name) +
                               "_total";
    out += "# TYPE " + metric + " counter\n";
    out += metric + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : stats.gauges) {
    const std::string metric = "slider_" + sanitize_metric_name(name);
    out += "# TYPE " + metric + " gauge\n";
    out += metric + " ";
    append_double(out, value);
    out += "\n";
  }
  for (const auto& [name, histogram] : stats.histograms) {
    const std::string metric = "slider_" + sanitize_metric_name(name);
    out += "# TYPE " + metric + " histogram\n";
    // Cumulative buckets. Observations below the configured range are
    // below every finite upper bound, so the running sum starts at the
    // underflow count; the +Inf bucket (== _count) absorbs the overflow.
    std::uint64_t cumulative = histogram.underflow;
    for (const HistogramBucketCount& bucket : histogram.buckets) {
      cumulative += bucket.count;
      out += metric + "_bucket{le=\"";
      append_double(out, bucket.upper_bound);
      out += "\"} " + std::to_string(cumulative) + "\n";
    }
    out += metric + "_bucket{le=\"+Inf\"} " + std::to_string(histogram.count) +
           "\n";
    out += metric + "_sum ";
    append_double(out, histogram.sum);
    out += "\n";
    out += metric + "_count " + std::to_string(histogram.count) + "\n";
  }

  // Causal work ledger: per-cause totals.
  struct Field {
    const char* metric;
    std::uint64_t CauseWork::* member;
  };
  static constexpr Field kFields[] = {
      {"slider_work_combiner_invocations_total",
       &CauseWork::combiner_invocations},
      {"slider_work_combiner_reused_total", &CauseWork::combiner_reused},
      {"slider_work_nodes_visited_total", &CauseWork::nodes_visited},
      {"slider_work_rows_scanned_total", &CauseWork::rows_scanned},
      {"slider_work_memo_bytes_read_total", &CauseWork::memo_bytes_read},
      {"slider_work_memo_bytes_written_total",
       &CauseWork::memo_bytes_written},
  };
  for (const Field& field : kFields) {
    out += std::string("# TYPE ") + field.metric + " counter\n";
    for (std::size_t c = 0; c < kWorkCauseCount; ++c) {
      out += field.metric;
      out += "{cause=\"";
      out += work_cause_name(static_cast<WorkCause>(c));
      out += "\"} ";
      out += std::to_string(ledger.totals[c].*(field.member));
      out += "\n";
    }
  }

  // Per-tenant attribution (the serving layer's SessionManager tags every
  // run it drives): one labelled series per tenant. Absent entirely for
  // single-tenant processes, so the exposition format is unchanged there.
  if (!ledger.tenants.empty()) {
    const auto label_escape = [](const std::string& s) {
      std::string esc;
      esc.reserve(s.size());
      for (const char c : s) {
        if (c == '\\' || c == '"') esc += '\\';
        if (c == '\n') { esc += "\\n"; continue; }
        esc += c;
      }
      return esc;
    };
    out += "# TYPE slider_tenant_runs_committed_total counter\n";
    for (const TenantWork& t : ledger.tenants) {
      out += "slider_tenant_runs_committed_total{tenant=\"" +
             label_escape(t.tenant) + "\"} " +
             std::to_string(t.runs_committed) + "\n";
    }
    out += "# TYPE slider_tenant_work_combiner_invocations_total counter\n";
    for (const TenantWork& t : ledger.tenants) {
      for (std::size_t c = 0; c < kWorkCauseCount; ++c) {
        if (t.totals[c].combiner_invocations == 0) continue;
        out += "slider_tenant_work_combiner_invocations_total{tenant=\"" +
               label_escape(t.tenant) + "\",cause=\"";
        out += work_cause_name(static_cast<WorkCause>(c));
        out += "\"} " + std::to_string(t.totals[c].combiner_invocations) + "\n";
      }
    }
  }

  out += "# TYPE slider_ledger_runs_committed_total counter\n";
  out += "slider_ledger_runs_committed_total " +
         std::to_string(ledger.runs_committed) + "\n";
  return out;
}

// --- server ------------------------------------------------------------------

IntrospectionServer::IntrospectionServer(Options options)
    : options_(std::move(options)) {
  // Built-in routes. Handlers snapshot through each subsystem's own
  // synchronization; no server-side lock is held while they run.
  add_route("/healthz", [](const HttpRequest&) {
    return HttpResponse::text("ok\n");
  });
  add_route("/metrics", [](const HttpRequest&) {
    return HttpResponse::text(
        prometheus_text(StatsRegistry::global().snapshot(),
                        WorkLedger::global().snapshot()),
        "text/plain; version=0.0.4; charset=utf-8");
  });
  add_route("/ledger.json", [](const HttpRequest&) {
    return HttpResponse::json(WorkLedger::global().to_json());
  });
  add_route("/trace", [](const HttpRequest&) {
    TraceCollector& collector = TraceCollector::global();
    const std::vector<TraceEvent> events = collector.snapshot();
    return HttpResponse::json(
        to_chrome_trace_json(events, collector.dropped()));
  });
  add_route("/timeseries.json", [](const HttpRequest&) {
    return HttpResponse::json(TimeSeries::global().to_json());
  });
}

IntrospectionServer::~IntrospectionServer() { stop(); }

void IntrospectionServer::add_route(std::string path, Handler handler) {
  std::lock_guard<std::mutex> lock(routes_mutex_);
  routes_[std::move(path)] = std::move(handler);
}

bool IntrospectionServer::start() {
  if (running()) return true;
  stop_requested_.store(false, std::memory_order_release);

  const auto try_bind = [this](std::uint16_t port) -> int {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
        1) {
      ::close(fd);
      errno = EINVAL;
      return -1;
    }
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
            0 ||
        ::listen(fd, 16) != 0) {
      const int saved = errno;
      ::close(fd);
      errno = saved;
      return -1;
    }
    return fd;
  };

  int fd = try_bind(options_.port);
  if (fd < 0 && options_.port != 0 && errno == EADDRINUSE &&
      options_.fallback_to_ephemeral) {
    SLIDER_LOG(Warning) << "introspection port " << options_.port
                        << " in use; falling back to an ephemeral port";
    fd = try_bind(0);
  }
  if (fd < 0) {
    SLIDER_LOG(Error) << "introspection server bind failed: "
                      << std::strerror(errno);
    return false;
  }

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    SLIDER_LOG(Error) << "introspection server getsockname failed";
    ::close(fd);
    return false;
  }
  listen_fd_ = fd;
  port_ = ntohs(bound.sin_port);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { accept_loop(); });
  SLIDER_LOG(Info) << "introspection server listening on "
                   << options_.bind_address << ":" << port_;
  return true;
}

void IntrospectionServer::stop() {
  if (!running()) return;
  stop_requested_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  port_ = 0;
  running_.store(false, std::memory_order_release);
}

void IntrospectionServer::accept_loop() {
  while (!stop_requested_.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;  // timeout or EINTR: re-check the stop flag
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    handle_connection(client);
    ::close(client);
  }
}

void IntrospectionServer::handle_connection(int fd) const {
  // Bound both directions so a stuck peer cannot wedge the accept thread.
  timeval timeout{};
  timeout.tv_sec = 2;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));

  std::string request;
  char buffer[1024];
  while (request.size() < kMaxRequestBytes &&
         request.find("\r\n\r\n") == std::string::npos &&
         request.find("\n\n") == std::string::npos) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    request.append(buffer, static_cast<std::size_t>(n));
  }
  if (request.empty()) return;

  const std::string response = handle_raw_request(request);
  std::size_t sent = 0;
  while (sent < response.size()) {
    const ssize_t n = ::send(fd, response.data() + sent,
                             response.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
}

std::string IntrospectionServer::handle_raw_request(
    std::string_view request_text) const {
  HttpResponse response;

  // Parse the request line: METHOD SP TARGET SP VERSION.
  const std::size_t line_end = request_text.find_first_of("\r\n");
  const std::string_view line = line_end == std::string_view::npos
                                    ? request_text
                                    : request_text.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      sp2 <= sp1 + 1 || line.substr(sp2 + 1).rfind("HTTP/", 0) != 0) {
    response = HttpResponse::error(400, "malformed request line");
  } else {
    HttpRequest request;
    request.method = std::string(line.substr(0, sp1));
    const std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    const std::size_t question = target.find('?');
    request.path = std::string(target.substr(0, question));
    if (question != std::string_view::npos) {
      request.query = std::string(target.substr(question + 1));
    }
    if (request.method != "GET" && request.method != "HEAD") {
      response = HttpResponse::error(405, "only GET is supported");
    } else if (request.path.empty() || request.path[0] != '/') {
      response = HttpResponse::error(400, "target must be an absolute path");
    } else {
      response = dispatch(request);
      if (request.method == "HEAD") response.body.clear();
    }
  }

  std::string out;
  out.reserve(response.body.size() + 128);
  out += "HTTP/1.0 " + std::to_string(response.status) + " " +
         status_reason(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += response.body;
  return out;
}

HttpResponse IntrospectionServer::dispatch(const HttpRequest& request) const {
  Handler handler;
  {
    std::lock_guard<std::mutex> lock(routes_mutex_);
    // "/" doubles as a route index for humans poking with curl.
    if (request.path == "/") {
      std::string body = "slider introspection endpoint\nroutes:\n";
      for (const auto& [path, unused] : routes_) body += "  " + path + "\n";
      return HttpResponse::text(std::move(body));
    }
    const auto it = routes_.find(request.path);
    if (it == routes_.end()) {
      return HttpResponse::error(404, "no such route: " + request.path);
    }
    handler = it->second;  // copy, so the handler runs without the lock
  }
  return handler(request);
}

}  // namespace slider::obs
