#include "observability/provenance.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "common/hash.h"
#include "data/record.h"
#include "observability/json_writer.h"
#include "observability/postmortem.h"

namespace slider::obs {

std::string_view lineage_op_name(LineageOp op) {
  switch (op) {
    case LineageOp::kLeaf: return "leaf";
    case LineageOp::kMerge: return "merge";
    case LineageOp::kPassthrough: return "passthrough";
    case LineageOp::kReuse: return "reuse";
  }
  return "unknown";
}

std::string_view disposition_name(LineageOp op, WorkCause cause) {
  if (op == LineageOp::kReuse) return "reused";
  switch (cause) {
    case WorkCause::kInitialBuild: return "new";
    case WorkCause::kWindowAdd:
      // A genuinely new payload entering the window is "new"; combiner
      // work re-run on the update path is "recomputed".
      return op == LineageOp::kLeaf ? "new" : "recomputed";
    case WorkCause::kWindowRemove: return "recomputed";
    case WorkCause::kMemoEvictionRecompute: return "evicted_recompute";
    case WorkCause::kRecoveryReplay: return "recovery_replay";
    case WorkCause::kBackgroundPreprocess: return "background";
    case WorkCause::kFailureReexec: return "failure_reexec";
    case WorkCause::kScrubRepair: return "scrub_repair";
  }
  return "recomputed";
}

// --- KeySketch ---------------------------------------------------------------

namespace {

void bloom_set(std::array<std::uint64_t, 4>& bloom, std::uint64_t h) {
  const std::uint64_t p1 = h & 255;
  const std::uint64_t p2 = mix64(h) & 255;
  bloom[p1 >> 6] |= std::uint64_t{1} << (p1 & 63);
  bloom[p2 >> 6] |= std::uint64_t{1} << (p2 & 63);
}

bool bloom_test(const std::array<std::uint64_t, 4>& bloom, std::uint64_t h) {
  const std::uint64_t p1 = h & 255;
  const std::uint64_t p2 = mix64(h) & 255;
  return (bloom[p1 >> 6] & (std::uint64_t{1} << (p1 & 63))) != 0 &&
         (bloom[p2 >> 6] & (std::uint64_t{1} << (p2 & 63))) != 0;
}

}  // namespace

void KeySketch::add_hash(std::uint64_t h) {
  bloom_set(bloom, h);
  if (exact_count <= kSketchExactCap) {
    for (std::uint32_t i = 0; i < std::min(exact_count, kSketchExactCap); ++i) {
      if (exact[i] == h) return;
    }
    if (exact_count < kSketchExactCap) {
      exact[exact_count] = h;
    }
    ++exact_count;  // past the cap this is the bloom-only sentinel
  }
}

void KeySketch::merge(const KeySketch& other) {
  if (other.exact_count == 0) return;
  if (is_exact() && other.is_exact()) {
    for (std::uint32_t i = 0; i < other.exact_count; ++i) {
      add_hash(other.exact[i]);
    }
    return;
  }
  for (std::size_t w = 0; w < bloom.size(); ++w) bloom[w] |= other.bloom[w];
  exact_count = kSketchExactCap + 1;
}

bool KeySketch::may_contain_hash(std::uint64_t h) const {
  if (is_exact()) {
    for (std::uint32_t i = 0; i < exact_count; ++i) {
      if (exact[i] == h) return true;
    }
    return false;
  }
  return bloom_test(bloom, h);
}

KeySketch sketch_of_table(const KVTable& table) {
  KeySketch sketch;
  for (const RowView row : table.rows()) {
    sketch.add_hash(hash_string(row.key));
  }
  return sketch;
}

// --- SketchCache -------------------------------------------------------------

struct SketchCache::Shard {
  mutable std::mutex mutex;
  std::unordered_map<std::uint64_t, KeySketch> map;
};

SketchCache::SketchCache() : shards_(new Shard[kShards]) {}

SketchCache& SketchCache::global() {
  static SketchCache* cache = new SketchCache();
  return *cache;
}

bool SketchCache::lookup(std::uint64_t id, KeySketch* out) const {
  Shard& shard = shards_[mix64(id) % kShards];
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.map.find(id);
  if (it == shard.map.end()) return false;
  *out = it->second;
  return true;
}

void SketchCache::store(std::uint64_t id, const KeySketch& sketch) {
  Shard& shard = shards_[mix64(id) % kShards];
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (shard.map.size() >= kMaxEntriesPerShard &&
      shard.map.find(id) == shard.map.end()) {
    shard.map.erase(shard.map.begin());  // advisory cache: drop anything
  }
  shard.map[id] = sketch;
}

// --- slide assembly ----------------------------------------------------------

void LineageAggregate::fold(const SlideLineage& slide) {
  if (count == 0) first_sequence = slide.sequence;
  ++count;
  for (std::size_t c = 0; c < kWorkCauseCount; ++c) {
    cause_invocations[c] += slide.cause_invocations[c];
    cause_nodes[c] += slide.cause_nodes[c];
  }
  reused_nodes += slide.reused_nodes;
  recorded_nodes += slide.recorded_nodes;
  critical_path_seconds_max =
      std::max(critical_path_seconds_max, slide.critical_path_seconds);
}

namespace {

double node_seconds(const NodeLineage& node, const LineageCostParams& costs) {
  return costs.combine_cpu_per_row * static_cast<double>(node.rows_scanned) +
         costs.memo_lookup_sec + node.memo_cost;
}

}  // namespace

SlideLineage assemble_slide_lineage(RunKind kind, std::string_view tenant,
                                    double sim_start,
                                    std::vector<std::vector<NodeLineage>> partitions,
                                    const LineageCostParams& costs) {
  SlideLineage slide;
  slide.kind = kind;
  slide.tenant.assign(tenant);
  slide.sim_start = sim_start;
  slide.partitions = std::move(partitions);

  for (int p = 0; p < static_cast<int>(slide.partitions.size()); ++p) {
    const std::vector<NodeLineage>& records = slide.partitions[p];
    slide.recorded_nodes += records.size();

    // Longest sim-time chain. Records arrive children-before-parents, so
    // one forward pass suffices: best[id] holds the costliest chain that
    // ends at a record producing `id` so far. Children are resolved
    // before this record overwrites its own id, which keeps passthrough
    // chains (record id == child id) extending instead of self-looping.
    struct Chain {
      double total = 0;
      std::ptrdiff_t record = -1;
    };
    std::unordered_map<std::uint64_t, Chain> best;
    std::vector<double> totals(records.size(), 0);
    std::vector<std::ptrdiff_t> pred(records.size(), -1);
    double part_best = 0;
    std::ptrdiff_t part_terminus = -1;

    for (std::size_t i = 0; i < records.size(); ++i) {
      const NodeLineage& r = records[i];
      const std::size_t c = static_cast<std::size_t>(r.cause);
      if (c < kWorkCauseCount) {
        slide.cause_invocations[c] += r.invocations;
        if (r.op != LineageOp::kReuse) ++slide.cause_nodes[c];
      }
      if (r.op == LineageOp::kReuse) ++slide.reused_nodes;

      double base = 0;
      std::ptrdiff_t via = -1;
      for (const std::uint64_t child : r.children) {
        const auto it = best.find(child);
        if (it != best.end() && it->second.total > base) {
          base = it->second.total;
          via = it->second.record;
        }
      }
      totals[i] = base + node_seconds(r, costs);
      pred[i] = via;
      auto& chain = best[r.id];
      if (chain.record < 0 || totals[i] > chain.total) {
        chain = Chain{totals[i], static_cast<std::ptrdiff_t>(i)};
      }
      if (totals[i] > part_best) {
        part_best = totals[i];
        part_terminus = static_cast<std::ptrdiff_t>(i);
      }
    }

    if (part_terminus >= 0 && part_best > slide.critical_path_seconds) {
      slide.critical_path_seconds = part_best;
      slide.critical_path_partition = p;
      slide.critical_path.clear();
      for (std::ptrdiff_t i = part_terminus; i >= 0; i = pred[i]) {
        const NodeLineage& r = records[i];
        slide.critical_path.push_back(PathNode{
            r.id, r.level, r.op, r.cause, node_seconds(r, costs)});
      }
    }
  }
  return slide;
}

// --- explain -----------------------------------------------------------------

Explanation explain_slide(const SlideLineage& slide, std::string_view key,
                          int partition) {
  Explanation ex;
  ex.sequence = slide.sequence;
  ex.kind = slide.kind;
  ex.tenant = slide.tenant;
  ex.partition = partition;
  ex.key.assign(key);
  if (partition < 0 ||
      partition >= static_cast<int>(slide.partitions.size())) {
    return ex;
  }
  const std::vector<NodeLineage>& records = slide.partitions[partition];
  const std::uint64_t h = hash_string(ex.key);

  // All records per node id, in append (children-before-parents) order.
  // One id can carry several records: a memo miss emits a reuse + a
  // recompute pair, and passthrough chains keep the child's id across
  // levels. Resolution rules live in `resolve` below.
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> by_id;
  for (std::size_t i = 0; i < records.size(); ++i) {
    by_id[records[i].id].push_back(i);
  }
  // Resolves the record a child edge of records[from] points at, or -1.
  // A self-id edge (passthrough) binds to the latest record of the same
  // id *before* the referencing one; any other edge prefers executed
  // records (they shadow the reuse of a memo miss), latest first.
  const auto resolve = [&](std::uint64_t child,
                           std::size_t from) -> std::ptrdiff_t {
    const auto it = by_id.find(child);
    if (it == by_id.end()) return -1;
    if (child == records[from].id) {
      std::ptrdiff_t prior = -1;
      for (const std::size_t idx : it->second) {
        if (idx >= from) break;
        prior = static_cast<std::ptrdiff_t>(idx);
      }
      return prior;
    }
    std::ptrdiff_t any = -1, executed = -1;
    for (const std::size_t idx : it->second) {
      any = static_cast<std::ptrdiff_t>(idx);
      if (records[idx].op != LineageOp::kReuse) {
        executed = static_cast<std::ptrdiff_t>(idx);
      }
    }
    return executed >= 0 ? executed : any;
  };

  // Apex: the highest-level record whose payload may contain the key —
  // the point where this output last surfaced in the DAG.
  std::ptrdiff_t apex = -1;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (!records[i].sketch.may_contain_hash(h)) continue;
    if (apex < 0 || records[i].level > records[apex].level ||
        (records[i].level == records[apex].level &&
         static_cast<std::ptrdiff_t>(i) > apex)) {
      apex = static_cast<std::ptrdiff_t>(i);
    }
  }
  if (apex < 0) return ex;

  ex.found = true;
  ex.apex = records[apex].id;
  ex.apex_level = records[apex].level;

  std::vector<std::size_t> stack{static_cast<std::size_t>(apex)};
  std::unordered_set<std::size_t> visited;
  std::unordered_set<std::uint64_t> frontier_ids;
  while (!stack.empty()) {
    const std::size_t i = stack.back();
    stack.pop_back();
    if (!visited.insert(i).second) continue;
    const NodeLineage& r = records[i];
    ++ex.walked_nodes;
    if (!r.sketch.is_exact()) ex.exact = false;

    bool is_frontier = false;
    if (r.op == LineageOp::kReuse || r.children.empty()) {
      is_frontier = true;
    } else {
      std::size_t descended = 0;
      for (const std::uint64_t child : r.children) {
        const std::ptrdiff_t target = resolve(child, i);
        if (target < 0) {
          if (child != r.id) ++ex.untouched_children;
          continue;
        }
        if (records[target].sketch.may_contain_hash(h)) {
          stack.push_back(static_cast<std::size_t>(target));
          ++descended;
        }
      }
      // The key came in through an edge this slide never re-executed:
      // this node is the deepest recorded explanation.
      if (descended == 0) is_frontier = true;
    }

    if (is_frontier && frontier_ids.insert(r.id).second) {
      ExplainEntry entry;
      entry.id = r.id;
      entry.level = r.level;
      entry.op = r.op;
      entry.cause = r.cause;
      entry.disposition = std::string(disposition_name(r.op, r.cause));
      entry.rows = r.rows;
      entry.invocations = r.invocations;
      entry.exact = r.sketch.is_exact();
      ex.frontier.push_back(std::move(entry));
    }
  }
  std::sort(ex.frontier.begin(), ex.frontier.end(),
            [](const ExplainEntry& a, const ExplainEntry& b) {
              if (a.level != b.level) return a.level < b.level;
              return a.id < b.id;
            });
  return ex;
}

std::unordered_map<std::uint64_t, std::string> disposition_map(
    const SlideLineage& slide, int partition) {
  std::unordered_map<std::uint64_t, std::string> map;
  if (partition < 0 ||
      partition >= static_cast<int>(slide.partitions.size())) {
    return map;
  }
  for (const NodeLineage& r : slide.partitions[partition]) {
    // Append order puts the executed record of a memo-miss pair (and the
    // passthrough atop a fresh leaf) after its counterpart, so last-wins
    // reports what the slide ultimately did at this node.
    map[r.id] = std::string(disposition_name(r.op, r.cause));
  }
  return map;
}

// --- recorder ----------------------------------------------------------------

ProvenanceRecorder::ProvenanceRecorder() : ProvenanceRecorder(Options{}) {}

ProvenanceRecorder::ProvenanceRecorder(Options options) { configure(options); }

void ProvenanceRecorder::configure(Options options) {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.configure(options);
}

void ProvenanceRecorder::record(SlideLineage slide) {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.record(std::move(slide));
}

std::uint64_t ProvenanceRecorder::total_recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.total_recorded();
}

ProvenanceSnapshot ProvenanceRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ProvenanceSnapshot snap;
  ring_.snapshot_into(snap);
  return snap;
}

Explanation ProvenanceRecorder::explain(
    std::string_view key, int partition,
    std::optional<std::uint64_t> sequence) const {
  SlideLineage slide;
  bool have = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = ring_.raw_size(); i-- > 0;) {
      const SlideLineage& candidate = ring_.raw_at(i);
      if (sequence.has_value()) {
        if (candidate.sequence != *sequence) continue;
      } else if (partition < 0 ||
                 partition >= static_cast<int>(candidate.partitions.size()) ||
                 candidate.partitions[partition].empty()) {
        continue;  // default: newest slide that touched this partition
      }
      slide = candidate;
      have = true;
      break;
    }
  }
  if (!have) {
    Explanation ex;
    ex.partition = partition;
    ex.key.assign(key);
    return ex;
  }
  return explain_slide(slide, key, partition);
}

// --- serialization -----------------------------------------------------------

namespace {

std::string u64_string(std::uint64_t v) { return std::to_string(v); }

void write_sparse_causes(JsonWriter& json, const char* key,
                         const std::array<std::uint64_t, kWorkCauseCount>& a) {
  json.key(key).begin_object();
  for (std::size_t c = 0; c < kWorkCauseCount; ++c) {
    if (a[c] == 0) continue;
    json.key(work_cause_name(static_cast<WorkCause>(c))).value(a[c]);
  }
  json.end_object();
}

void write_sketch(JsonWriter& json, const KeySketch& sketch) {
  json.key("sketch").begin_object();
  if (sketch.is_exact()) {
    json.key("exact").begin_array();
    for (std::uint32_t i = 0; i < sketch.exact_count; ++i) {
      json.value(u64_string(sketch.exact[i]));
    }
    json.end_array();
  } else {
    json.key("bloom").begin_array();
    for (const std::uint64_t word : sketch.bloom) {
      json.value(u64_string(word));
    }
    json.end_array();
  }
  json.end_object();
}

void write_node(JsonWriter& json, const NodeLineage& node) {
  json.begin_object();
  json.key("id").value(u64_string(node.id));
  json.key("op").value(lineage_op_name(node.op));
  json.key("cause").value(work_cause_name(node.cause));
  json.key("level").value(std::uint64_t{node.level});
  json.key("invocations").value(std::uint64_t{node.invocations});
  json.key("rows").value(node.rows);
  json.key("rows_scanned").value(node.rows_scanned);
  json.key("memo_cost").value(node.memo_cost);
  json.key("children").begin_array();
  for (const std::uint64_t child : node.children) {
    json.value(u64_string(child));
  }
  json.end_array();
  if (node.children_truncated) json.key("children_truncated").value(true);
  write_sketch(json, node.sketch);
  json.end_object();
}

void write_path(JsonWriter& json, const char* key,
                const std::vector<PathNode>& path) {
  json.key(key).begin_array();
  for (const PathNode& n : path) {
    json.begin_object();
    json.key("id").value(u64_string(n.id));
    json.key("level").value(std::uint64_t{n.level});
    json.key("op").value(lineage_op_name(n.op));
    json.key("cause").value(work_cause_name(n.cause));
    json.key("seconds").value(n.seconds);
    json.end_object();
  }
  json.end_array();
}

void write_slide_header(JsonWriter& json, const SlideLineage& s) {
  json.key("sequence").value(s.sequence);
  json.key("kind").value(run_kind_name(s.kind));
  if (!s.tenant.empty()) json.key("tenant").value(s.tenant);
  json.key("sim_start").value(s.sim_start);
  write_sparse_causes(json, "cause_invocations", s.cause_invocations);
  write_sparse_causes(json, "cause_nodes", s.cause_nodes);
  json.key("reused_nodes").value(s.reused_nodes);
  json.key("recorded_nodes").value(s.recorded_nodes);
  json.key("critical_path_seconds").value(s.critical_path_seconds);
  json.key("critical_path_partition")
      .value(static_cast<std::int64_t>(s.critical_path_partition));
  write_path(json, "critical_path", s.critical_path);
}

std::uint64_t parse_u64_string(const JsonValue& v) {
  if (v.type() == JsonValue::Type::kNumber) return v.as_u64();
  return std::strtoull(v.as_string().c_str(), nullptr, 10);
}

template <typename NameFn>
int index_of_name(const std::string& name, int count, NameFn name_of) {
  for (int i = 0; i < count; ++i) {
    if (name == name_of(i)) return i;
  }
  return 0;
}

WorkCause parse_cause(const std::string& name) {
  return static_cast<WorkCause>(index_of_name(
      name, static_cast<int>(kWorkCauseCount), [](int i) {
        return work_cause_name(static_cast<WorkCause>(i));
      }));
}

LineageOp parse_op(const std::string& name) {
  return static_cast<LineageOp>(index_of_name(name, 4, [](int i) {
    return lineage_op_name(static_cast<LineageOp>(i));
  }));
}

RunKind parse_kind(const std::string& name) {
  return static_cast<RunKind>(index_of_name(name, 3, [](int i) {
    return run_kind_name(static_cast<RunKind>(i));
  }));
}

void parse_causes(const JsonValue& obj,
                  std::array<std::uint64_t, kWorkCauseCount>& out) {
  for (const auto& [name, count] : obj.members()) {
    out[static_cast<std::size_t>(parse_cause(name))] = count.as_u64();
  }
}

}  // namespace

std::string provenance_to_json(const ProvenanceSnapshot& snapshot) {
  JsonWriter json;
  json.begin_object();
  json.key("schema_version").value(std::uint64_t{1});
  json.key("total_recorded").value(snapshot.total_recorded);
  json.key("samples_dropped").value(snapshot.samples_dropped);
  json.key("aggregates").begin_array();
  for (const LineageAggregate& a : snapshot.aggregates) {
    json.begin_object();
    json.key("first_sequence").value(a.first_sequence);
    json.key("count").value(a.count);
    write_sparse_causes(json, "cause_invocations", a.cause_invocations);
    write_sparse_causes(json, "cause_nodes", a.cause_nodes);
    json.key("reused_nodes").value(a.reused_nodes);
    json.key("recorded_nodes").value(a.recorded_nodes);
    json.key("critical_path_seconds_max").value(a.critical_path_seconds_max);
    json.end_object();
  }
  json.end_array();
  json.key("raw").begin_array();
  for (const SlideLineage& s : snapshot.raw) {
    json.begin_object();
    write_slide_header(json, s);
    json.key("partitions").begin_array();
    for (const std::vector<NodeLineage>& part : s.partitions) {
      json.begin_array();
      for (const NodeLineage& node : part) write_node(json, node);
      json.end_array();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.take();
}

std::string criticalpath_to_json(const ProvenanceSnapshot& snapshot) {
  double max_seconds = 0;
  for (const SlideLineage& s : snapshot.raw) {
    max_seconds = std::max(max_seconds, s.critical_path_seconds);
  }
  JsonWriter json;
  json.begin_object();
  json.key("schema_version").value(std::uint64_t{1});
  json.key("total_recorded").value(snapshot.total_recorded);
  json.key("max_seconds").value(max_seconds);
  json.key("slides").begin_array();
  for (const SlideLineage& s : snapshot.raw) {
    json.begin_object();
    write_slide_header(json, s);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.take();
}

std::string explanation_to_json(const Explanation& ex) {
  // Every disposition the frontier holds, in name order: the entries carry
  // disposition_name()'s strings, so no second list of names is kept.
  std::map<std::string_view, std::uint64_t> counts;
  for (const ExplainEntry& e : ex.frontier) ++counts[e.disposition];
  JsonWriter json;
  json.begin_object();
  json.key("found").value(ex.found);
  json.key("key").value(ex.key);
  json.key("sequence").value(ex.sequence);
  json.key("kind").value(run_kind_name(ex.kind));
  if (!ex.tenant.empty()) json.key("tenant").value(ex.tenant);
  json.key("partition").value(static_cast<std::int64_t>(ex.partition));
  json.key("apex").value(u64_string(ex.apex));
  json.key("apex_level").value(std::uint64_t{ex.apex_level});
  json.key("exact").value(ex.exact);
  json.key("walked_nodes").value(ex.walked_nodes);
  json.key("untouched_children").value(ex.untouched_children);
  json.key("counts").begin_object();
  for (const auto& [name, count] : counts) json.key(name).value(count);
  json.end_object();
  json.key("frontier").begin_array();
  for (const ExplainEntry& e : ex.frontier) {
    json.begin_object();
    json.key("id").value(u64_string(e.id));
    json.key("level").value(std::uint64_t{e.level});
    json.key("op").value(lineage_op_name(e.op));
    json.key("cause").value(work_cause_name(e.cause));
    json.key("disposition").value(e.disposition);
    json.key("rows").value(e.rows);
    json.key("invocations").value(std::uint64_t{e.invocations});
    json.key("exact").value(e.exact);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.take();
}

ProvenanceSnapshot provenance_from_json(const JsonValue& value) {
  ProvenanceSnapshot snap;
  snap.total_recorded = value["total_recorded"].as_u64();
  snap.samples_dropped = value["samples_dropped"].as_u64();
  for (const JsonValue& a : value["aggregates"].items()) {
    LineageAggregate agg;
    agg.first_sequence = a["first_sequence"].as_u64();
    agg.count = a["count"].as_u64();
    parse_causes(a["cause_invocations"], agg.cause_invocations);
    parse_causes(a["cause_nodes"], agg.cause_nodes);
    agg.reused_nodes = a["reused_nodes"].as_u64();
    agg.recorded_nodes = a["recorded_nodes"].as_u64();
    agg.critical_path_seconds_max = a["critical_path_seconds_max"].as_double();
    snap.aggregates.push_back(agg);
  }
  for (const JsonValue& s : value["raw"].items()) {
    SlideLineage slide;
    slide.sequence = s["sequence"].as_u64();
    slide.kind = parse_kind(s["kind"].as_string());
    slide.tenant = s["tenant"].as_string();
    slide.sim_start = s["sim_start"].as_double();
    parse_causes(s["cause_invocations"], slide.cause_invocations);
    parse_causes(s["cause_nodes"], slide.cause_nodes);
    slide.reused_nodes = s["reused_nodes"].as_u64();
    slide.recorded_nodes = s["recorded_nodes"].as_u64();
    slide.critical_path_seconds = s["critical_path_seconds"].as_double();
    slide.critical_path_partition =
        static_cast<int>(s["critical_path_partition"].as_double(-1));
    for (const JsonValue& n : s["critical_path"].items()) {
      PathNode node;
      node.id = parse_u64_string(n["id"]);
      node.level = static_cast<std::uint16_t>(n["level"].as_u64());
      node.op = parse_op(n["op"].as_string());
      node.cause = parse_cause(n["cause"].as_string());
      node.seconds = n["seconds"].as_double();
      slide.critical_path.push_back(node);
    }
    for (const JsonValue& part : s["partitions"].items()) {
      std::vector<NodeLineage> nodes;
      for (const JsonValue& n : part.items()) {
        NodeLineage node;
        node.id = parse_u64_string(n["id"]);
        node.op = parse_op(n["op"].as_string());
        node.cause = parse_cause(n["cause"].as_string());
        node.level = static_cast<std::uint16_t>(n["level"].as_u64());
        node.invocations = static_cast<std::uint32_t>(n["invocations"].as_u64());
        node.rows = n["rows"].as_u64();
        node.rows_scanned = n["rows_scanned"].as_u64();
        node.memo_cost = n["memo_cost"].as_double();
        node.children_truncated = n["children_truncated"].as_bool(false);
        for (const JsonValue& child : n["children"].items()) {
          node.children.push_back(parse_u64_string(child));
        }
        const JsonValue& sketch = n["sketch"];
        const JsonValue& exact = sketch["exact"];
        if (exact.is_array()) {
          for (const JsonValue& hash : exact.items()) {
            node.sketch.add_hash(parse_u64_string(hash));
          }
        } else {
          node.sketch.exact_count = kSketchExactCap + 1;
          const auto& words = sketch["bloom"].items();
          for (std::size_t w = 0; w < words.size() && w < 4; ++w) {
            node.sketch.bloom[w] = parse_u64_string(words[w]);
          }
        }
        nodes.push_back(std::move(node));
      }
      slide.partitions.push_back(std::move(nodes));
    }
    snap.raw.push_back(std::move(slide));
  }
  return snap;
}

}  // namespace slider::obs
