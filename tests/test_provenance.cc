// Provenance subsystem tests: key sketches, the tiered lineage rings,
// explain() DAG walks, session-level lineage-vs-ledger conservation, the
// disposition-colored DOT export, lineage across checkpoint/restore
// (recovery_replay dispositions) and across a mid-stream flat->tree
// poison demotion, JSON round-trips, and the multi-tenant /explain
// routing. The heavyweight cross-variant conservation sweep lives in
// tools/check_provenance.cc (ctest: tools_check_provenance).

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "contraction/describe.h"
#include "data/combiner_traits.h"
#include "data/split.h"
#include "mapreduce/api.h"
#include "observability/introspection_server.h"
#include "observability/postmortem.h"
#include "observability/provenance.h"
#include "observability/work_ledger.h"
#include "serving/session_manager.h"
#include "slider/session.h"
#include "tests/test_util.h"

namespace slider {
namespace {

using obs::Explanation;
using obs::KeySketch;
using obs::LineageOp;
using obs::NodeLineage;
using obs::ProvenanceRecorder;
using obs::ProvenanceSnapshot;
using obs::SlideLineage;
using obs::WorkCause;
using obs::WorkLedger;

// --- key sketches ------------------------------------------------------------

TEST(KeySketch, ExactUpToCapThenBloom) {
  KeySketch sketch;
  std::vector<std::uint64_t> hashes;
  for (std::uint64_t i = 0; i < obs::kSketchExactCap; ++i) {
    hashes.push_back(hash_string("key" + std::to_string(i)));
    sketch.add_hash(hashes.back());
  }
  EXPECT_TRUE(sketch.is_exact());
  for (const std::uint64_t h : hashes) {
    EXPECT_TRUE(sketch.may_contain_hash(h));
  }
  // Exact mode has no false positives.
  EXPECT_FALSE(sketch.may_contain_hash(hash_string("absent")));

  // One hash past the cap degrades to bloom-only: still no false
  // negatives, exactness is gone.
  sketch.add_hash(hash_string("overflow"));
  EXPECT_FALSE(sketch.is_exact());
  for (const std::uint64_t h : hashes) {
    EXPECT_TRUE(sketch.may_contain_hash(h));
  }
  EXPECT_TRUE(sketch.may_contain_hash(hash_string("overflow")));
}

TEST(KeySketch, MergePreservesMembership) {
  KeySketch a;
  KeySketch b;
  a.add_hash(hash_string("left"));
  for (int i = 0; i < 20; ++i) {
    b.add_hash(hash_string("bulk" + std::to_string(i)));
  }
  a.merge(b);
  EXPECT_FALSE(a.is_exact());  // 21 distinct hashes total
  EXPECT_TRUE(a.may_contain_hash(hash_string("left")));
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(a.may_contain_hash(hash_string("bulk" + std::to_string(i))));
  }
}

TEST(KeySketch, SketchOfTableCoversEveryKey) {
  std::vector<Record> rows;
  for (int i = 0; i < 30; ++i) {
    rows.push_back({"key" + std::to_string(i), "1"});
  }
  const KVTable table =
      KVTable::from_records(std::move(rows), testing::sum_combiner());
  const KeySketch sketch = obs::sketch_of_table(table);
  EXPECT_FALSE(sketch.is_exact());
  for (int i = 0; i < 30; ++i) {
    EXPECT_TRUE(
        sketch.may_contain_hash(hash_string("key" + std::to_string(i))));
  }
}

// --- recorder rings ----------------------------------------------------------

SlideLineage synthetic_slide(std::uint64_t salt) {
  std::vector<std::vector<NodeLineage>> partitions(1);
  NodeLineage leaf;
  leaf.id = 100 + salt;
  leaf.op = LineageOp::kLeaf;
  leaf.cause = WorkCause::kWindowAdd;
  leaf.invocations = 1;
  leaf.sketch.add_hash(hash_string("k" + std::to_string(salt)));
  partitions[0].push_back(leaf);
  return obs::assemble_slide_lineage(obs::RunKind::kSlide, "", 0.0,
                                     std::move(partitions),
                                     obs::LineageCostParams{1e-6, 1e-7});
}

TEST(ProvenanceRecorder, TieredRingConservation) {
  ProvenanceRecorder::Options options;
  options.raw_capacity = 4;
  options.aggregate_width = 4;
  options.aggregate_capacity = 3;
  ProvenanceRecorder recorder(options);

  constexpr std::uint64_t kSlides = 100;
  for (std::uint64_t i = 0; i < kSlides; ++i) {
    recorder.record(synthetic_slide(i));
  }
  const ProvenanceSnapshot snap = recorder.snapshot();
  EXPECT_EQ(snap.total_recorded, kSlides);
  EXPECT_EQ(snap.raw.size(), options.raw_capacity);
  std::uint64_t aggregated = 0;
  for (const obs::LineageAggregate& a : snap.aggregates) {
    aggregated += a.count;
    EXPECT_EQ(a.cause_invocations[static_cast<std::size_t>(
                  WorkCause::kWindowAdd)],
              a.count);  // one invocation per synthetic slide
  }
  // Conservation: every recorded slide is in the raw ring, folded into a
  // retained aggregate, or counted dropped — never silently lost.
  EXPECT_EQ(snap.total_recorded,
            snap.raw.size() + aggregated + snap.samples_dropped);
  EXPECT_GT(snap.samples_dropped, 0u);
  // Raw ring holds the newest slides, oldest first.
  for (std::size_t i = 0; i < snap.raw.size(); ++i) {
    EXPECT_EQ(snap.raw[i].sequence, kSlides - snap.raw.size() + i);
  }
}

TEST(ProvenanceRecorder, ExplainSelectsNewestOrExactSequence) {
  ProvenanceRecorder recorder;
  for (std::uint64_t i = 0; i < 5; ++i) {
    recorder.record(synthetic_slide(i));
  }
  // Newest slide containing k4 is sequence 4; k2 only ever appeared in
  // sequence 2.
  EXPECT_EQ(recorder.explain("k4", 0).sequence, 4u);
  const Explanation pinned = recorder.explain("k2", 0, 2u);
  EXPECT_TRUE(pinned.found);
  EXPECT_EQ(pinned.sequence, 2u);
  EXPECT_FALSE(recorder.explain("k2", 0, 4u).found);
  EXPECT_FALSE(recorder.explain("never", 0).found);
}

// --- explain over a hand-built DAG -------------------------------------------

TEST(ExplainSlide, WalksToFrontierAndResolvesMemoMissPairs) {
  // DAG: root(1) merges reused(2) and executed leaf(3); node 2 is a
  // memo-miss pair — a reuse record AND an executed merge of leaf(4) —
  // so the walk must descend through the executed half to leaf 4.
  std::vector<std::vector<NodeLineage>> partitions(1);
  auto& part = partitions[0];

  NodeLineage leaf4;
  leaf4.id = 4;
  leaf4.op = LineageOp::kLeaf;
  leaf4.cause = WorkCause::kWindowAdd;
  leaf4.invocations = 0;
  leaf4.sketch.add_hash(hash_string("deep"));
  part.push_back(leaf4);

  NodeLineage reuse2;
  reuse2.id = 2;
  reuse2.op = LineageOp::kReuse;
  reuse2.cause = WorkCause::kWindowAdd;
  reuse2.sketch.add_hash(hash_string("deep"));
  part.push_back(reuse2);

  NodeLineage exec2 = reuse2;
  exec2.op = LineageOp::kMerge;
  exec2.cause = WorkCause::kMemoEvictionRecompute;
  exec2.invocations = 1;
  exec2.children = {4};
  part.push_back(exec2);

  NodeLineage leaf3;
  leaf3.id = 3;
  leaf3.op = LineageOp::kLeaf;
  leaf3.cause = WorkCause::kWindowAdd;
  leaf3.sketch.add_hash(hash_string("shallow"));
  part.push_back(leaf3);

  NodeLineage root;
  root.id = 1;
  root.op = LineageOp::kMerge;
  root.cause = WorkCause::kWindowAdd;
  root.invocations = 1;
  root.level = 1;
  root.sketch.add_hash(hash_string("deep"));
  root.sketch.add_hash(hash_string("shallow"));
  root.children = {2, 3};
  part.push_back(root);

  const SlideLineage slide = obs::assemble_slide_lineage(
      obs::RunKind::kSlide, "", 0.0, std::move(partitions),
      obs::LineageCostParams{1e-6, 1e-7});

  // "deep": the executed half of node 2 shadows its reuse record, so the
  // frontier is leaf 4, not a reused node 2.
  const Explanation deep = obs::explain_slide(slide, "deep", 0);
  ASSERT_TRUE(deep.found);
  EXPECT_EQ(deep.apex, 1u);
  ASSERT_EQ(deep.frontier.size(), 1u);
  EXPECT_EQ(deep.frontier[0].id, 4u);
  EXPECT_EQ(deep.frontier[0].disposition, "new");
  EXPECT_TRUE(deep.exact);

  // "shallow" stops at leaf 3 without touching the node-2 subtree.
  const Explanation shallow = obs::explain_slide(slide, "shallow", 0);
  ASSERT_TRUE(shallow.found);
  ASSERT_EQ(shallow.frontier.size(), 1u);
  EXPECT_EQ(shallow.frontier[0].id, 3u);

  // Unknown keys and out-of-range partitions resolve to not-found.
  EXPECT_FALSE(obs::explain_slide(slide, "absent", 0).found);
  EXPECT_FALSE(obs::explain_slide(slide, "deep", 7).found);
}

TEST(DispositionMap, LastRecordOfAnIdWins) {
  std::vector<std::vector<NodeLineage>> partitions(1);
  NodeLineage reuse;
  reuse.id = 9;
  reuse.op = LineageOp::kReuse;
  reuse.cause = WorkCause::kWindowAdd;
  partitions[0].push_back(reuse);
  NodeLineage exec = reuse;
  exec.op = LineageOp::kMerge;
  exec.cause = WorkCause::kWindowRemove;
  exec.level = 1;
  partitions[0].push_back(exec);
  const SlideLineage slide = obs::assemble_slide_lineage(
      obs::RunKind::kSlide, "", 0.0, std::move(partitions), {});
  const auto map = obs::disposition_map(slide, 0);
  ASSERT_EQ(map.size(), 1u);
  EXPECT_EQ(map.at(9), "recomputed");
  EXPECT_TRUE(obs::disposition_map(slide, 3).empty());
}

// --- session-level plumbing --------------------------------------------------

class RecordingMapper final : public Mapper {
 public:
  void map(const Record& input, Emitter& out) const override {
    out.emit(input.key, input.value);
  }
};

JobSpec identity_job(const std::string& name, bool flat_eligible,
                     int partitions) {
  JobSpec job;
  job.name = name;
  job.mapper = std::make_shared<RecordingMapper>();
  job.combiner = testing::sum_combiner();
  job.reducer = [](const std::string&,
                   const std::string& v) -> std::optional<std::string> {
    return v;
  };
  job.num_partitions = partitions;
  if (flat_eligible) {
    job.traits.commutative = true;
    job.traits.exactly_associative = true;
    job.traits.flat_kernel = FlatKernel::kSumU64;
  }
  return job;
}

struct SessionHarness {
  SessionHarness()
      : cluster(ClusterConfig{.num_machines = 4, .slots_per_machine = 2}),
        engine(cluster, cost),
        memo(cluster, cost) {}

  CostModel cost{};
  Cluster cluster;
  VanillaEngine engine;
  MemoStore memo;
};

SplitPtr keyed_split(SplitId id, std::vector<Record> records) {
  return make_split(id, std::move(records));
}

// Status code of a raw HTTP/1.0 response ("HTTP/1.0 200 OK\r\n...").
int status_of(const std::string& response) {
  return response.size() < 12 ? 0 : std::stoi(response.substr(9, 3));
}

TEST(SessionProvenance, DisarmedByDefaultArmedOnRequest) {
  SessionHarness h;
  const JobSpec job = identity_job("prov-arm", false, 2);
  SliderConfig off;
  SliderSession disarmed(h.engine, h.memo, job, off);
  EXPECT_EQ(disarmed.provenance(), nullptr);

  SliderConfig on;
  on.record_provenance = true;
  SliderSession armed(h.engine, h.memo, job, on);
  ASSERT_NE(armed.provenance(), nullptr);
  armed.initial_run({keyed_split(0, {{"a", "1"}})});
  EXPECT_EQ(armed.provenance()->total_recorded(), 1u);
  EXPECT_EQ(disarmed.provenance(), nullptr);
}

TEST(SessionProvenance, LineageTalliesMatchLedgerPerRun) {
  WorkLedger::global().reset();
  SessionHarness h;
  const JobSpec job = identity_job("prov-conserve", false, 2);
  SliderConfig config;
  config.record_provenance = true;
  config.tree_kind = TreeKind::kFolding;
  SliderSession session(h.engine, h.memo, job, config);

  Rng rng(3);
  std::vector<SplitPtr> initial;
  for (SplitId id = 0; id < 6; ++id) {
    std::vector<Record> records;
    for (int k = 0; k < 10; ++k) {
      records.push_back({"k" + std::to_string(rng.next_below(24)), "1"});
    }
    initial.push_back(keyed_split(id, std::move(records)));
  }
  session.initial_run(std::move(initial));
  session.slide(2, {keyed_split(6, {{"x", "1"}, {"y", "1"}}),
                    keyed_split(7, {{"z", "1"}})});

  const obs::LedgerSnapshot ledger = WorkLedger::global().snapshot();
  const ProvenanceSnapshot prov = session.provenance()->snapshot();
  ASSERT_EQ(ledger.recent.size(), prov.raw.size());
  for (std::size_t r = 0; r < prov.raw.size(); ++r) {
    std::uint64_t ledger_reused = 0;
    for (std::size_t cause = 0; cause < obs::kWorkCauseCount; ++cause) {
      std::uint64_t invocations = 0;
      for (const obs::AttributedWork& part : ledger.recent[r].partitions) {
        const obs::CauseWork work =
            part.total_for(static_cast<WorkCause>(cause));
        invocations += work.combiner_invocations;
        ledger_reused += work.combiner_reused;
      }
      EXPECT_EQ(invocations, prov.raw[r].cause_invocations[cause])
          << "run " << r << " cause "
          << obs::work_cause_name(static_cast<WorkCause>(cause));
    }
    EXPECT_EQ(ledger_reused, prov.raw[r].reused_nodes) << "run " << r;
  }
}

TEST(SessionProvenance, DotExportColorsDispositions) {
  SessionHarness h;
  const JobSpec job = identity_job("prov-dot", false, 1);
  SliderConfig config;
  config.record_provenance = true;
  config.tree_kind = TreeKind::kFolding;
  config.introspect_port = 0;
  SliderSession session(h.engine, h.memo, job, config);
  session.initial_run({keyed_split(0, {{"a", "1"}}),
                       keyed_split(1, {{"b", "1"}}),
                       keyed_split(2, {{"c", "1"}}),
                       keyed_split(3, {{"d", "1"}})});
  // Two added splits merge as a fresh pair, so the new leaves keep their
  // "new" disposition (a lone added leaf would be shadowed by its own
  // passthrough records, which legitimately read "recomputed").
  session.slide(2, {keyed_split(4, {{"e", "1"}}),
                    keyed_split(5, {{"f", "1"}})});

  ASSERT_NE(session.introspection(), nullptr);
  const std::string dot = session.introspection()->handle_raw_request(
      "GET /tree?partition=0&format=dot HTTP/1.0\r\n\r\n");
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  // Fresh leaf green, at least one recompute red; the label carries the
  // disposition for text consumers.
  EXPECT_NE(dot.find("palegreen"), std::string::npos);
  EXPECT_NE(dot.find("lightcoral"), std::string::npos);
  EXPECT_NE(dot.find("\\nnew"), std::string::npos);

  // The same description without dispositions keeps the role styling only.
  const std::string plain =
      tree_description_to_dot(session.describe_tree(0));
  EXPECT_EQ(plain.find("palegreen"), std::string::npos);
}

TEST(HttpRequestParseUint, AcceptsOnlyPlainDecimalWithinBound) {
  using obs::HttpRequest;
  constexpr std::uint64_t kIntMax = std::numeric_limits<int>::max();
  EXPECT_EQ(HttpRequest::parse_uint("0"), 0u);
  EXPECT_EQ(HttpRequest::parse_uint("007"), 7u);
  EXPECT_EQ(HttpRequest::parse_uint("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(HttpRequest::parse_uint("2147483647", kIntMax), kIntMax);
  EXPECT_FALSE(HttpRequest::parse_uint("2147483648", kIntMax).has_value());
  for (const std::string_view bad :
       {"", "abc", "7x", "-1", "+1", " 1", "1 ", "0x10",
        "18446744073709551616"}) {
    EXPECT_FALSE(HttpRequest::parse_uint(bad).has_value()) << bad;
  }
}

TEST(SessionProvenance, ExplainRoutesServeAndValidate) {
  SessionHarness h;
  const JobSpec job = identity_job("prov-routes", false, 1);
  SliderConfig config;
  config.record_provenance = true;
  config.introspect_port = 0;
  SliderSession session(h.engine, h.memo, job, config);
  session.initial_run({keyed_split(0, {{"alpha", "1"}})});

  const auto* server = session.introspection();
  ASSERT_NE(server, nullptr);
  const std::string ok = server->handle_raw_request(
      "GET /explain?key=alpha&partition=0 HTTP/1.0\r\n\r\n");
  EXPECT_NE(ok.find("200"), std::string::npos);
  EXPECT_NE(ok.find("\"found\":true"), std::string::npos);
  EXPECT_NE(ok.find("\"frontier\""), std::string::npos);

  EXPECT_NE(server->handle_raw_request("GET /explain HTTP/1.0\r\n\r\n")
                .find("400"),
            std::string::npos);
  EXPECT_NE(server->handle_raw_request(
                      "GET /explain?key=a&partition=9 HTTP/1.0\r\n\r\n")
                .find("400"),
            std::string::npos);
  // partition and sequence parse strictly: a malformed or out-of-range
  // value is a 400, never a silently explained partition 0 or slide 7.
  const std::string seq =
      std::to_string(session.provenance()->explain("alpha", 0).sequence);
  const std::string pinned = server->handle_raw_request(
      "GET /explain?key=alpha&sequence=" + seq + " HTTP/1.0\r\n\r\n");
  EXPECT_EQ(status_of(pinned), 200);
  EXPECT_NE(pinned.find("\"found\":true"), std::string::npos);
  for (const char* query :
       {"key=alpha&sequence=abc", "key=alpha&sequence=7x",
        "key=alpha&sequence=-1", "key=alpha&sequence=18446744073709551616",
        "key=alpha&partition=-1", "key=alpha&partition=+0",
        "key=alpha&partition=0x", "key=alpha&partition=4294967296"}) {
    EXPECT_EQ(status_of(server->handle_raw_request(
                  std::string("GET /explain?") + query +
                  " HTTP/1.0\r\n\r\n")),
              400)
        << query;
  }
  EXPECT_EQ(status_of(server->handle_raw_request(
                "GET /tree?partition=0 HTTP/1.0\r\n\r\n")),
            200);
  for (const char* partition :
       {"abc", "1x", "-1", "+0", "1", "18446744073709551616"}) {
    EXPECT_EQ(status_of(server->handle_raw_request(
                  std::string("GET /tree?partition=") + partition +
                  " HTTP/1.0\r\n\r\n")),
              400)
        << partition;
  }
  const std::string cp = server->handle_raw_request(
      "GET /criticalpath.json HTTP/1.0\r\n\r\n");
  EXPECT_NE(cp.find("200"), std::string::npos);
  EXPECT_NE(cp.find("\"critical_path_seconds\""), std::string::npos);

  // A disarmed session 404s both provenance routes.
  SliderConfig off;
  off.introspect_port = 0;
  SliderSession disarmed(h.engine, h.memo,
                         identity_job("prov-routes-off", false, 1), off);
  disarmed.initial_run({keyed_split(0, {{"alpha", "1"}})});
  ASSERT_NE(disarmed.introspection(), nullptr);
  EXPECT_NE(disarmed.introspection()
                ->handle_raw_request(
                    "GET /explain?key=alpha HTTP/1.0\r\n\r\n")
                .find("404"),
            std::string::npos);
  EXPECT_NE(disarmed.introspection()
                ->handle_raw_request(
                    "GET /criticalpath.json HTTP/1.0\r\n\r\n")
                .find("404"),
            std::string::npos);
}

// Satellite: lineage must survive checkpoint/restore — the first slide
// after restore() is replay work, and its explain must say so.
TEST(SessionProvenance, PostRestoreSlideExplainsAsRecoveryReplay) {
  SessionHarness h;
  const JobSpec job = identity_job("prov-restore", false, 1);
  SliderConfig config;
  config.record_provenance = true;
  config.tree_kind = TreeKind::kFolding;

  const std::string ckpt_dir =
      (std::filesystem::temp_directory_path() /
       ("prov_restore_ckpt_" + std::to_string(::getpid())))
          .string();
  {
    SliderSession session(h.engine, h.memo, job, config);
    session.initial_run({keyed_split(0, {{"a", "1"}}),
                         keyed_split(1, {{"b", "1"}}),
                         keyed_split(2, {{"c", "1"}}),
                         keyed_split(3, {{"d", "1"}})});
    ASSERT_TRUE(session.checkpoint(ckpt_dir));
  }

  // Same memo store (payloads survive), fresh session + fresh recorder:
  // the restart path of a single process or a hydrated tenant.
  SliderSession restored(h.engine, h.memo, job, config);
  ASSERT_TRUE(restored.restore(ckpt_dir));
  ASSERT_NE(restored.provenance(), nullptr);
  restored.slide(1, {keyed_split(4, {{"replayed", "1"}})});

  const ProvenanceSnapshot prov = restored.provenance()->snapshot();
  ASSERT_FALSE(prov.raw.empty());
  const SlideLineage& slide = prov.raw.back();
  EXPECT_GT(slide.cause_nodes[static_cast<std::size_t>(
                WorkCause::kRecoveryReplay)],
            0u);

  const Explanation ex = restored.provenance()->explain("replayed", 0);
  ASSERT_TRUE(ex.found);
  bool any_replay = false;
  for (const obs::ExplainEntry& e : ex.frontier) {
    any_replay = any_replay || e.disposition == "recovery_replay";
  }
  EXPECT_TRUE(any_replay)
      << "post-restore frontier carries no recovery_replay disposition";

  std::error_code ec;
  std::filesystem::remove_all(ckpt_dir, ec);
}

// Satellite: a flat-tier partition poisoned back to its fallback tree
// mid-stream must keep recording lineage — through the demotion slide and
// on the tree path afterwards.
TEST(SessionProvenance, FlatPoisonDemotionKeepsLineageFlowing) {
  WorkLedger::global().reset();
  SessionHarness h;
  const JobSpec job = identity_job("prov-poison", /*flat_eligible=*/true, 1);
  SliderConfig config;
  config.mode = WindowMode::kVariableWidth;
  config.record_provenance = true;
  SliderSession session(h.engine, h.memo, job, config);

  session.initial_run({keyed_split(0, {{"a", "1"}}),
                       keyed_split(1, {{"b", "2"}}),
                       keyed_split(2, {{"c", "3"}})});
  ASSERT_EQ(session.describe_tree(0).kind, "flat");
  // "007" decodes as 7 but is not canonical: this slide demotes the tier.
  session.slide(1, {keyed_split(3, {{"zz", "007"}})});
  EXPECT_NE(session.describe_tree(0).kind, "flat");
  session.slide(1, {keyed_split(4, {{"after", "5"}})});

  const ProvenanceSnapshot prov = session.provenance()->snapshot();
  ASSERT_EQ(prov.raw.size(), 3u);
  for (const SlideLineage& slide : prov.raw) {
    EXPECT_GT(slide.recorded_nodes, 0u) << "slide " << slide.sequence;
  }

  // Conservation holds through the demotion: per-cause lineage tallies
  // still equal the ledger's cells for every run, including the poison
  // slide's fallback-tree initial build.
  const obs::LedgerSnapshot ledger = WorkLedger::global().snapshot();
  ASSERT_EQ(ledger.recent.size(), prov.raw.size());
  for (std::size_t r = 0; r < prov.raw.size(); ++r) {
    for (std::size_t cause = 0; cause < obs::kWorkCauseCount; ++cause) {
      std::uint64_t invocations = 0;
      for (const obs::AttributedWork& part : ledger.recent[r].partitions) {
        invocations += part.total_for(static_cast<WorkCause>(cause))
                           .combiner_invocations;
      }
      EXPECT_EQ(invocations, prov.raw[r].cause_invocations[cause])
          << "run " << r;
    }
  }

  // The post-demotion key is explainable on the tree path.
  EXPECT_TRUE(session.provenance()->explain("after", 0).found);
}

// --- JSON round-trip ---------------------------------------------------------

TEST(ProvenanceJson, SnapshotRoundTripsThroughReader) {
  SessionHarness h;
  const JobSpec job = identity_job("prov-json", false, 1);
  SliderConfig config;
  config.record_provenance = true;
  SliderSession session(h.engine, h.memo, job, config);
  session.initial_run({keyed_split(0, {{"rt", "1"}}),
                       keyed_split(1, {{"other", "1"}})});
  session.slide(1, {keyed_split(2, {{"rt", "2"}})});

  const ProvenanceSnapshot before = session.provenance()->snapshot();
  const auto parsed = obs::parse_json(obs::provenance_to_json(before));
  ASSERT_TRUE(parsed.has_value());
  const ProvenanceSnapshot after = obs::provenance_from_json(*parsed);

  ASSERT_EQ(after.raw.size(), before.raw.size());
  EXPECT_EQ(after.total_recorded, before.total_recorded);
  for (std::size_t i = 0; i < before.raw.size(); ++i) {
    EXPECT_EQ(after.raw[i].sequence, before.raw[i].sequence);
    EXPECT_EQ(after.raw[i].cause_invocations,
              before.raw[i].cause_invocations);
    EXPECT_EQ(after.raw[i].reused_nodes, before.raw[i].reused_nodes);
    EXPECT_EQ(after.raw[i].critical_path.size(),
              before.raw[i].critical_path.size());
    ASSERT_EQ(after.raw[i].partitions.size(),
              before.raw[i].partitions.size());
    for (std::size_t p = 0; p < before.raw[i].partitions.size(); ++p) {
      ASSERT_EQ(after.raw[i].partitions[p].size(),
                before.raw[i].partitions[p].size());
      for (std::size_t n = 0; n < before.raw[i].partitions[p].size(); ++n) {
        const NodeLineage& x = before.raw[i].partitions[p][n];
        const NodeLineage& y = after.raw[i].partitions[p][n];
        EXPECT_EQ(x.id, y.id);
        EXPECT_EQ(x.op, y.op);
        EXPECT_EQ(x.cause, y.cause);
        EXPECT_EQ(x.children, y.children);
      }
    }
  }

  // The rehydrated DAG supports the same walk the live recorder served.
  const Explanation live = session.provenance()->explain("rt", 0);
  const Explanation offline =
      obs::explain_slide(after.raw.back(), "rt", 0);
  ASSERT_TRUE(live.found);
  ASSERT_TRUE(offline.found);
  EXPECT_EQ(live.apex, offline.apex);
  EXPECT_EQ(live.frontier.size(), offline.frontier.size());
}

// --- multi-tenant routing ----------------------------------------------------

TEST(ServingProvenance, PerTenantRecordersAndRoutedExplain) {
  SessionHarness h;
  serving::SessionManagerOptions options;
  options.introspect_port = 0;
  serving::SessionManager manager(h.engine, h.memo, options);

  serving::TenantSpec alpha;
  alpha.name = "alpha";
  alpha.job = identity_job("prov-tenant-a", false, 1);
  alpha.config.record_provenance = true;
  ASSERT_TRUE(manager.add_tenant(std::move(alpha),
                                 {keyed_split(0, {{"akey", "1"}})}));
  serving::TenantSpec beta;
  beta.name = "beta";
  beta.job = identity_job("prov-tenant-b", false, 1);
  beta.config.record_provenance = true;
  ASSERT_TRUE(manager.add_tenant(std::move(beta),
                                 {keyed_split(0, {{"bkey", "1"}})}));
  manager.run_pending();

  // Private recorders: each tenant's lineage is its own.
  const obs::ProvenanceRecorder* a = manager.tenant_provenance("alpha");
  const obs::ProvenanceRecorder* b = manager.tenant_provenance("beta");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->total_recorded(), 1u);
  EXPECT_TRUE(a->explain("akey", 0).found);
  EXPECT_FALSE(a->explain("bkey", 0).found);
  EXPECT_TRUE(b->explain("bkey", 0).found);
  EXPECT_EQ(manager.tenant_provenance("nobody"), nullptr);

  // Fleet endpoint: tenant-routed /explain and /criticalpath.json.
  const auto* server = manager.introspection();
  ASSERT_NE(server, nullptr);
  const std::string ok = server->handle_raw_request(
      "GET /explain?tenant=alpha&key=akey&partition=0 HTTP/1.0\r\n\r\n");
  EXPECT_NE(ok.find("200"), std::string::npos);
  EXPECT_NE(ok.find("\"found\":true"), std::string::npos);
  EXPECT_NE(ok.find("\"tenant\":\"alpha\""), std::string::npos);
  EXPECT_NE(server->handle_raw_request(
                      "GET /explain?key=akey HTTP/1.0\r\n\r\n")
                .find("400"),
            std::string::npos);
  EXPECT_NE(server->handle_raw_request(
                      "GET /explain?tenant=ghost&key=akey HTTP/1.0\r\n\r\n")
                .find("404"),
            std::string::npos);
  const std::string seq = std::to_string(a->explain("akey", 0).sequence);
  const std::string pinned = server->handle_raw_request(
      "GET /explain?tenant=alpha&key=akey&sequence=" + seq +
      " HTTP/1.0\r\n\r\n");
  EXPECT_EQ(status_of(pinned), 200);
  EXPECT_NE(pinned.find("\"found\":true"), std::string::npos);
  for (const char* query :
       {"sequence=abc", "sequence=7x", "partition=-1", "partition=0x",
        "partition=4294967296", "partition=2147483648"}) {
    EXPECT_EQ(status_of(server->handle_raw_request(
                  std::string("GET /explain?tenant=alpha&key=akey&") +
                  query + " HTTP/1.0\r\n\r\n")),
              400)
        << query;
  }
  const std::string cp = server->handle_raw_request(
      "GET /criticalpath.json?tenant=beta HTTP/1.0\r\n\r\n");
  EXPECT_NE(cp.find("200"), std::string::npos);
  EXPECT_NE(cp.find("\"slides\""), std::string::npos);
  EXPECT_NE(server->handle_raw_request(
                      "GET /criticalpath.json HTTP/1.0\r\n\r\n")
                .find("400"),
            std::string::npos);
}

}  // namespace
}  // namespace slider
