#include "serving/session_manager.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <limits>
#include <optional>
#include <unordered_set>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "data/serde.h"
#include "observability/json_writer.h"
#include "observability/slo.h"

namespace slider::serving {
namespace {

// Tenant names become spool subdirectories; anything path-hostile maps to
// '_' and the salt suffix keeps sanitized collisions distinct.
std::string spool_component(const std::string& name, std::uint64_t salt) {
  std::string out;
  out.reserve(name.size() + 20);
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    out += ok ? c : '_';
  }
  out += '_';
  out += std::to_string(salt);
  return out;
}

std::string default_spool_dir() {
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);
  return (std::filesystem::temp_directory_path() /
          ("slider_serving_spool_" + std::to_string(::getpid()) + "_" +
           std::to_string(n)))
      .string();
}

std::vector<std::string> serialize_outputs(const SliderSession& session) {
  std::vector<std::string> out;
  out.reserve(session.output().size());
  for (const KVTable& table : session.output()) {
    out.push_back(serialize_table(table));
  }
  return out;
}

}  // namespace

SessionManager::SessionManager(const VanillaEngine& engine, MemoStore& memo,
                               SessionManagerOptions options)
    : engine_(&engine), memo_(&memo), options_(std::move(options)) {
  options_.shards = std::max<std::size_t>(1, options_.shards);
  options_.shed_watermark =
      std::max<std::size_t>(1, options_.shed_watermark);
  options_.queue_watermark =
      std::min(std::max<std::size_t>(1, options_.queue_watermark),
               options_.shed_watermark);
  if (options_.spool_dir.empty()) {
    options_.spool_dir = default_spool_dir();
    owns_spool_dir_ = true;
  }
  shards_.resize(options_.shards);
  if (options_.introspect_port >= 0) start_introspection();
}

SessionManager::~SessionManager() {
  introspect_.reset();  // handlers must die before the tenants they read
  // The pinned set exists for this manager's cold checkpoints; leaving it
  // behind would silently exempt ids from the store's eviction policies
  // for whoever uses the store next.
  memo_->set_pinned_ids(nullptr);
  if (owns_spool_dir_) {
    std::error_code ec;
    std::filesystem::remove_all(options_.spool_dir, ec);
  }
}

bool SessionManager::add_tenant(TenantSpec spec,
                                std::vector<SplitPtr> initial_splits) {
  if (spec.name.empty()) return false;
  auto state = std::make_unique<TenantState>();
  state->series.configure(options_.series_options);
  state->name = spec.name;
  state->salt = hash_string(spec.name);
  state->job = std::move(spec.job);
  state->config = std::move(spec.config);
  state->config.tenant = state->name;
  state->config.timeseries = &state->series;
  if (state->config.record_provenance) {
    state->provenance = std::make_unique<obs::ProvenanceRecorder>();
    state->config.provenance = state->provenance.get();
  }
  // GC over a shared store is the fleet's (garbage_collect()): a session
  // owning its GC sweeps the whole store once and would collect its
  // neighbours.
  state->config.run_gc = false;
  state->config.introspect_port = -1;  // the manager owns the fleet endpoint
  state->spool_dir =
      (std::filesystem::path(options_.spool_dir) /
       spool_component(state->name, state->salt))
          .string();
  state->session = std::make_unique<SliderSession>(*engine_, *memo_,
                                                   state->job, state->config);
  Request initial;
  initial.initial = true;
  initial.splits = std::move(initial_splits);
  state->queue.push_back(std::move(initial));
  state->counters.submitted = 1;

  TenantState* raw = state.get();
  {
    std::unique_lock<std::shared_mutex> lock(registry_mutex_);
    if (!tenants_.emplace(raw->name, std::move(state)).second) return false;
    shards_[shard_of(*raw)].push_back(raw);
  }
  memo_->set_tenant_quota(raw->salt, spec.quota);
  total_pending_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

AdmitResult SessionManager::submit(const std::string& name,
                                   std::size_t remove_front,
                                   std::vector<SplitPtr> added) {
  std::shared_lock<std::shared_mutex> registry(registry_mutex_);
  const auto it = tenants_.find(name);
  if (it == tenants_.end()) return AdmitResult::kUnknownTenant;
  TenantState& state = *it->second;
  std::lock_guard<std::mutex> lock(state.mutex);
  if (state.unusable || state.queue.size() >= options_.shed_watermark) {
    ++state.counters.shed;
    return AdmitResult::kShed;
  }
  Request request;
  request.remove_front = remove_front;
  request.splits = std::move(added);
  state.queue.push_back(std::move(request));
  ++state.counters.submitted;
  total_pending_.fetch_add(1, std::memory_order_relaxed);
  if (state.queue.size() >= options_.queue_watermark) {
    ++state.counters.queued_over_watermark;
    return AdmitResult::kQueued;
  }
  return AdmitResult::kAccepted;
}

void SessionManager::execute_locked(TenantState& state, Request request) {
  if (request.initial) {
    state.session->initial_run(std::move(request.splits));
  } else {
    state.session->slide(request.remove_front, std::move(request.splits));
  }
  if (state.config.split_processing) state.session->run_background();
  ++state.counters.executed;
  state.idle_rounds = 0;
  state.window_splits = state.session->window().size();
  total_pending_.fetch_sub(1, std::memory_order_relaxed);
}

bool SessionManager::hydrate_locked(TenantState& state) {
  auto fresh = std::make_unique<SliderSession>(*engine_, *memo_, state.job,
                                               state.config);
  if (!fresh->restore(state.spool_dir)) {
    SLIDER_LOG(Warning) << "tenant " << state.name
                        << ": hydrate failed, shedding its queue";
    ++state.counters.hydrate_failures;
    state.unusable = true;
    state.counters.shed += state.queue.size();
    total_pending_.fetch_sub(state.queue.size(), std::memory_order_relaxed);
    state.queue.clear();
    return false;
  }
  // The queued slides are new work, not a replay of pre-checkpoint runs —
  // bill them to their true causes.
  fresh->end_recovery_replay();
  state.session = std::move(fresh);
  state.cold = false;
  state.outputs.clear();
  ++state.counters.hydrations;
  {
    std::lock_guard<std::mutex> cold(cold_mutex_);
    cold_ids_.erase(state.name);
    refresh_pinned_locked();
  }
  return true;
}

void SessionManager::checkpoint_locked(TenantState& state) {
  std::unordered_set<NodeId> live;
  state.session->collect_live_ids(live);
  if (!state.session->checkpoint(state.spool_dir)) {
    SLIDER_LOG(Warning) << "tenant " << state.name
                        << ": idle checkpoint failed; keeping the session hot";
    return;
  }
  {
    std::lock_guard<std::mutex> cold(cold_mutex_);
    cold_ids_[state.name] = std::move(live);
    refresh_pinned_locked();
  }
  state.session->take_released_ids(state.released);
  state.outputs = serialize_outputs(*state.session);
  state.session.reset();
  state.cold = true;
  state.idle_rounds = 0;
  ++state.counters.checkpoints;
}

void SessionManager::refresh_pinned_locked() {
  if (cold_ids_.empty()) {
    memo_->set_pinned_ids(nullptr);
    return;
  }
  auto pinned = std::make_shared<std::unordered_set<NodeId>>();
  for (const auto& [name, ids] : cold_ids_) {
    pinned->insert(ids.begin(), ids.end());
  }
  memo_->set_pinned_ids(std::move(pinned));
}

std::size_t SessionManager::run_pending() {
  std::lock_guard<std::mutex> drain(run_mutex_);
  std::vector<std::vector<TenantState*>> shards;
  {
    std::shared_lock<std::shared_mutex> registry(registry_mutex_);
    shards = shards_;  // stable pointers; new tenants wait for the next drain
  }
  std::atomic<std::size_t> executed{0};
  parallel_for(shards.size(), [&](std::size_t s) {
    std::unordered_set<TenantState*> ran;
    // Round-robin fairness: one request per tenant per cycle, so a
    // backlogged tenant interleaves with its shard-mates instead of
    // monopolizing the shard until its queue drains.
    bool progress = true;
    while (progress) {
      progress = false;
      for (TenantState* state : shards[s]) {
        std::lock_guard<std::mutex> lock(state->mutex);
        if (state->queue.empty() || state->unusable) continue;
        if (state->cold && !hydrate_locked(*state)) continue;
        Request request = std::move(state->queue.front());
        state->queue.pop_front();
        execute_locked(*state, std::move(request));
        ran.insert(state);
        executed.fetch_add(1, std::memory_order_relaxed);
        progress = true;
      }
    }
    if (options_.idle_checkpoint_rounds == 0) return;
    for (TenantState* state : shards[s]) {
      if (ran.count(state) != 0) continue;
      std::lock_guard<std::mutex> lock(state->mutex);
      if (state->session == nullptr || state->cold || state->unusable ||
          !state->queue.empty() || state->counters.executed == 0) {
        continue;
      }
      if (++state->idle_rounds >= options_.idle_checkpoint_rounds) {
        checkpoint_locked(*state);
      }
    }
  });
  if (options_.auto_gc) garbage_collect();
  return executed.load(std::memory_order_relaxed);
}

std::size_t SessionManager::garbage_collect() {
  std::shared_lock<std::shared_mutex> registry(registry_mutex_);
  std::vector<NodeId> released;
  for (const auto& [name, state] : tenants_) {
    std::lock_guard<std::mutex> lock(state->mutex);
    released.insert(released.end(), state->released.begin(),
                    state->released.end());
    state->released.clear();
    if (state->session != nullptr) state->session->take_released_ids(released);
  }
  return memo_->erase_released(released);
}

void SessionManager::collect_live_ids(const std::string& name,
                                      std::unordered_set<NodeId>& live) const {
  std::shared_lock<std::shared_mutex> registry(registry_mutex_);
  const auto it = tenants_.find(name);
  if (it == tenants_.end()) return;
  std::lock_guard<std::mutex> lock(it->second->mutex);
  if (it->second->session != nullptr) {
    it->second->session->collect_live_ids(live);
    return;
  }
  std::lock_guard<std::mutex> cold(cold_mutex_);
  const auto pinned = cold_ids_.find(name);
  if (pinned != cold_ids_.end()) {
    live.insert(pinned->second.begin(), pinned->second.end());
  }
}

std::size_t SessionManager::tenant_count() const {
  std::shared_lock<std::shared_mutex> registry(registry_mutex_);
  return tenants_.size();
}

TenantStatus SessionManager::status_of(const TenantState& state) const {
  TenantStatus status;
  status.name = state.name;
  std::lock_guard<std::mutex> lock(state.mutex);
  status.cold = state.cold;
  status.unusable = state.unusable;
  status.pending = state.queue.size();
  status.window_splits = state.window_splits;
  status.counters = state.counters;
  status.usage = memo_->tenant_usage(state.salt);
  if (state.session != nullptr) status.verdicts = state.session->slo_verdicts();
  return status;
}

TenantStatus SessionManager::status(const std::string& name) const {
  std::shared_lock<std::shared_mutex> registry(registry_mutex_);
  const auto it = tenants_.find(name);
  if (it == tenants_.end()) return TenantStatus{};
  return status_of(*it->second);
}

std::vector<TenantStatus> SessionManager::fleet_status() const {
  std::vector<TenantStatus> fleet;
  {
    std::shared_lock<std::shared_mutex> registry(registry_mutex_);
    fleet.reserve(tenants_.size());
    for (const auto& [name, state] : tenants_) {
      fleet.push_back(status_of(*state));
    }
  }
  std::sort(fleet.begin(), fleet.end(),
            [](const TenantStatus& a, const TenantStatus& b) {
              return a.name < b.name;
            });
  return fleet;
}

std::vector<std::string> SessionManager::last_outputs(
    const std::string& name) const {
  std::shared_lock<std::shared_mutex> registry(registry_mutex_);
  const auto it = tenants_.find(name);
  if (it == tenants_.end()) return {};
  std::lock_guard<std::mutex> lock(it->second->mutex);
  const TenantState& state = *it->second;
  return state.session != nullptr ? serialize_outputs(*state.session)
                                  : state.outputs;
}

obs::TimeSeriesSnapshot SessionManager::tenant_series(
    const std::string& name) const {
  std::shared_lock<std::shared_mutex> registry(registry_mutex_);
  const auto it = tenants_.find(name);
  if (it == tenants_.end()) return obs::TimeSeriesSnapshot{};
  return it->second->series.snapshot();
}

const obs::ProvenanceRecorder* SessionManager::tenant_provenance(
    const std::string& name) const {
  std::shared_lock<std::shared_mutex> registry(registry_mutex_);
  const auto it = tenants_.find(name);
  if (it == tenants_.end()) return nullptr;
  return it->second->provenance.get();
}

bool SessionManager::is_cold(const std::string& name) const {
  std::shared_lock<std::shared_mutex> registry(registry_mutex_);
  const auto it = tenants_.find(name);
  if (it == tenants_.end()) return false;
  std::lock_guard<std::mutex> lock(it->second->mutex);
  return it->second->cold;
}

std::string SessionManager::healthz_json() const {
  const std::vector<TenantStatus> fleet = fleet_status();
  bool slo_failing = false;
  obs::JsonWriter json;
  json.begin_object();
  json.key("tenants").begin_array();
  for (const TenantStatus& t : fleet) {
    bool ok = true;
    for (const obs::SloVerdict& v : t.verdicts) ok = ok && v.ok;
    slo_failing = slo_failing || !ok || t.unusable;
    json.begin_object();
    json.key("tenant").value(t.name);
    json.key("cold").value(t.cold);
    json.key("ok").value(ok && !t.unusable);
    json.key("verdicts").raw(obs::slo_verdicts_to_json(t.verdicts));
    json.end_object();
  }
  json.end_array();
  const bool degraded = memo_->durable_degraded();
  json.key("durable_degraded").value(degraded);
  json.key("status").value(slo_failing ? "unhealthy"
                           : degraded  ? "degraded"
                                       : "ok");
  json.end_object();
  return json.take();
}

std::string SessionManager::tenants_json() const {
  const std::vector<TenantStatus> fleet = fleet_status();
  obs::JsonWriter json;
  json.begin_object();
  json.key("tenant_count").value(static_cast<std::uint64_t>(fleet.size()));
  json.key("total_pending").value(static_cast<std::uint64_t>(total_pending()));
  json.key("tenants").begin_array();
  for (const TenantStatus& t : fleet) {
    json.begin_object();
    json.key("tenant").value(t.name);
    json.key("cold").value(t.cold);
    json.key("unusable").value(t.unusable);
    json.key("pending").value(static_cast<std::uint64_t>(t.pending));
    json.key("window_splits")
        .value(static_cast<std::uint64_t>(t.window_splits));
    json.key("submitted").value(t.counters.submitted);
    json.key("executed").value(t.counters.executed);
    json.key("shed").value(t.counters.shed);
    json.key("queued_over_watermark").value(t.counters.queued_over_watermark);
    json.key("checkpoints").value(t.counters.checkpoints);
    json.key("hydrations").value(t.counters.hydrations);
    json.key("memo_bytes").value(t.usage.bytes);
    json.key("memo_entries").value(t.usage.entries);
    json.key("quota_evictions").value(t.usage.quota_evictions);
    json.key("quota_max_bytes").value(t.usage.quota_max_bytes);
    json.key("quota_max_entries").value(t.usage.quota_max_entries);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.take();
}

bool SessionManager::start_introspection() {
  if (options_.introspect_port < 0) return false;
  if (introspect_ != nullptr) return introspect_->running();
  obs::IntrospectionServer::Options server_options;
  server_options.port = static_cast<std::uint16_t>(options_.introspect_port);
  auto server = std::make_unique<obs::IntrospectionServer>(server_options);
  // Fleet-level overrides on top of the built-in routes (/metrics already
  // carries the {tenant="..."} ledger series from the global registries).
  server->add_route("/healthz", [this](const obs::HttpRequest&) {
    return obs::HttpResponse::json(healthz_json());
  });
  server->add_route("/tenants.json", [this](const obs::HttpRequest&) {
    return obs::HttpResponse::json(tenants_json());
  });
  server->add_route(
      "/timeseries.json", [this](const obs::HttpRequest& request) {
        const std::string tenant = request.query_param("tenant", "");
        if (tenant.empty()) {
          return obs::HttpResponse::json(obs::TimeSeries::global().to_json());
        }
        std::shared_lock<std::shared_mutex> registry(registry_mutex_);
        const auto it = tenants_.find(tenant);
        if (it == tenants_.end()) {
          return obs::HttpResponse::error(404, "no such tenant: " + tenant);
        }
        return obs::HttpResponse::json(it->second->series.to_json());
      });
  // Tenant-routed provenance drill-downs. Unlike the single-session
  // endpoint the fleet serves many recorders, so ?tenant= is mandatory and
  // resolved first. Tenants size their windows independently, so /explain
  // bounds the partition by the int range only; explain() reports a
  // partition the tenant lacks as not found.
  const auto with_recorder = [this](const obs::HttpRequest& request,
                                    const auto& route) {
    const std::string tenant = request.query_param("tenant", "");
    if (tenant.empty()) {
      return obs::HttpResponse::error(400, "missing ?tenant=<name>");
    }
    std::shared_lock<std::shared_mutex> registry(registry_mutex_);
    const auto it = tenants_.find(tenant);
    if (it == tenants_.end()) {
      return obs::HttpResponse::error(404, "no such tenant: " + tenant);
    }
    return route(it->second->provenance.get());
  };
  static constexpr std::string_view kOption =
      "SliderConfig::record_provenance";
  server->add_route("/explain", [with_recorder](
                                    const obs::HttpRequest& request) {
    return with_recorder(request, [&](const obs::ProvenanceRecorder* recorder) {
      constexpr auto kPartitions =
          static_cast<std::uint64_t>(std::numeric_limits<int>::max()) + 1;
      return obs::explain_route(recorder, request, kPartitions, kOption);
    });
  });
  server->add_route(
      "/criticalpath.json", [with_recorder](const obs::HttpRequest& request) {
        return with_recorder(
            request, [](const obs::ProvenanceRecorder* recorder) {
              return obs::criticalpath_route(recorder, kOption);
            });
      });
  if (!server->start()) return false;
  introspect_ = std::move(server);
  return true;
}

}  // namespace slider::serving
