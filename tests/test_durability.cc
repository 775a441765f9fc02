// Durability subsystem tests: segment-log wire format and recovery
// contract (torn tails, bit flips, replica merge), the durable memo tier,
// checkpoint manifests, and the end-to-end invariant from the issue: a
// checkpointed, torn-down, restored session produces byte-identical output
// and its first post-restore slide does delta-proportional work.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_set>
#include <utility>
#include <vector>

#include "apps/microbench.h"
#include "common/crc32c.h"
#include "common/rng.h"
#include "data/serde.h"
#include "durability/checkpoint.h"
#include "durability/durable_tier.h"
#include "durability/fault_injector.h"
#include "durability/recovery.h"
#include "durability/scrubber.h"
#include "durability/segment_log.h"
#include "observability/introspection_server.h"
#include "observability/stats.h"
#include "observability/work_ledger.h"
#include "slider/session.h"
#include "tests/test_util.h"

namespace slider {
namespace {

namespace fs = std::filesystem;
using durability::DurableTier;
using durability::DurableTierOptions;
using durability::FileFaultInjector;
using durability::LogRecord;
using durability::LogRecordType;
using durability::LogScanStats;
using durability::RecoveryStats;
using durability::SegmentCursor;
using durability::SegmentLog;
using durability::SegmentLogOptions;
using testing::live_set;

// Fresh scratch directory per test, removed on teardown.
class DurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    temp_.emplace(std::string("slider_durability_") + info->name());
  }
  void TearDown() override { temp_.reset(); }

  std::string path(const std::string& sub = "") const {
    return sub.empty() ? temp_->path.string() : (temp_->path / sub).string();
  }

  std::optional<testing::TempDir> temp_;
};

std::vector<LogRecord> scan_all(const std::string& dir, LogScanStats* stats,
                                bool repair = false) {
  std::vector<LogRecord> records;
  LogScanStats s = SegmentLog::scan_dir(
      dir, [&](const LogRecord& r) { records.push_back(r); }, repair);
  if (stats != nullptr) *stats = s;
  return records;
}

// --- crc32c ----------------------------------------------------------------

// Both paths: crc32c() (the SSE4.2 path where the host and build have it)
// and the portable table loop it must agree with bit for bit.
using Crc32cFn = std::uint32_t (*)(std::string_view, std::uint32_t);
constexpr std::pair<const char*, Crc32cFn> kCrcPaths[] = {
    {"crc32c", &crc32c}, {"crc32c_portable", &crc32c_portable}};

TEST(Crc32c, KnownAnswers) {
  for (const auto& [name, crc] : kCrcPaths) {
    SCOPED_TRACE(name);
    // RFC 3720 §B.4 test vectors.
    EXPECT_EQ(crc(std::string(32, '\0'), 0), 0x8A9136AAu);
    EXPECT_EQ(crc(std::string(32, '\xff'), 0), 0x62A8AB43u);
    std::string ascending(32, '\0');
    for (int i = 0; i < 32; ++i) ascending[static_cast<std::size_t>(i)] =
        static_cast<char>(i);
    EXPECT_EQ(crc(ascending, 0), 0x46DD794Eu);
    EXPECT_EQ(crc("123456789", 0), 0xE3069283u);
  }
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (const auto& [name, crc] : kCrcPaths) {
    SCOPED_TRACE(name);
    for (std::size_t split = 0; split <= data.size(); ++split) {
      const std::uint32_t partial = crc(data.substr(0, split), 0);
      EXPECT_EQ(crc(data.substr(split), partial), crc(data, 0));
    }
  }
}

std::string random_bytes(Rng& rng, std::size_t n) {
  std::string bytes(n, '\0');
  for (char& byte : bytes) byte = static_cast<char>(rng.next_u64());
  return bytes;
}

// Under -DSLIDER_DISABLE_SIMD, or on a host without SSE4.2, this compares
// the portable path with itself, which keeps the scalar CI leg meaningful.
TEST(Crc32c, HardwareMatchesPortable) {
  // Every length 0..1024 at 8 start offsets: the 8-byte main loop, the
  // byte tail and unaligned loads all meet the reference.
  Rng rng(3720);
  const std::string buffer = random_bytes(rng, 1024 + 8);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 1024; ++length) {
      const std::string_view view(buffer.data() + offset, length);
      ASSERT_EQ(crc32c(view), crc32c_portable(view))
          << "offset " << offset << " length " << length;
    }
  }

  // 64 KiB buffers fed in random pieces, seeded from a running crc.
  for (int round = 0; round < 8; ++round) {
    const std::string data = random_bytes(rng, 64 * 1024);
    const std::string_view all(data);
    std::uint32_t running = 0;
    std::size_t at = 0;
    while (at < all.size()) {
      const std::size_t piece = std::min<std::size_t>(
          all.size() - at, rng.next_below(4096) + 1);
      running = crc32c(all.substr(at, piece), running);
      at += piece;
    }
    EXPECT_EQ(running, crc32c_portable(all)) << "round " << round;
  }
}

// --- segment log -----------------------------------------------------------

TEST_F(DurabilityTest, SegmentLogRoundTrip) {
  {
    SegmentLog log(path());
    ASSERT_TRUE(log.append(LogRecordType::kPut, 1, 10, "alpha"));
    ASSERT_TRUE(log.append(LogRecordType::kPut, 2, 20, ""));
    ASSERT_TRUE(log.append(LogRecordType::kTombstone, 3, 10, ""));
    ASSERT_TRUE(log.append(LogRecordType::kPut, 4, 30,
                           std::string("\x00\xff\x7f bytes", 9)));
    log.close();
  }
  LogScanStats stats;
  const auto records = scan_all(path(), &stats);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(stats.torn_records, 0u);
  EXPECT_EQ(stats.crc_failures, 0u);
  EXPECT_EQ(records[0].key, 10u);
  EXPECT_EQ(records[0].payload, "alpha");
  EXPECT_EQ(records[1].payload, "");
  EXPECT_EQ(records[2].type, LogRecordType::kTombstone);
  EXPECT_EQ(records[3].payload, std::string("\x00\xff\x7f bytes", 9));
  // Append order == (seq order here): scan preserves it.
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, i + 1);
  }
}

TEST_F(DurabilityTest, SegmentRotationAndReopenNumbering) {
  SegmentLogOptions options;
  options.segment_bytes = 64;  // force rotation every couple of records
  {
    SegmentLog log(path(), options);
    for (std::uint64_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(log.append(LogRecordType::kPut, i, i, "payload-bytes"));
    }
    EXPECT_GT(log.segments_rotated(), 0u);
    log.close();
  }
  const auto before = SegmentLog::list_segments(path());
  ASSERT_GT(before.size(), 1u);
  {
    // A restarted process must seal the old segments and continue the
    // numbering, never append into a sealed file.
    SegmentLog log(path(), options);
    ASSERT_TRUE(log.append(LogRecordType::kPut, 10, 10, "after-restart"));
    log.close();
  }
  const auto after = SegmentLog::list_segments(path());
  EXPECT_EQ(after.size(), before.size() + 1);
  const auto records = scan_all(path(), nullptr);
  ASSERT_EQ(records.size(), 11u);
  EXPECT_EQ(records.back().payload, "after-restart");
}

TEST_F(DurabilityTest, TornTailIsDetectedAndRepaired) {
  {
    SegmentLog log(path());
    ASSERT_TRUE(log.append(LogRecordType::kPut, 1, 1, "first"));
    ASSERT_TRUE(log.append(LogRecordType::kPut, 2, 2, "second-record"));
    log.close();
  }
  const auto segments = SegmentLog::list_segments(path());
  ASSERT_EQ(segments.size(), 1u);
  // Tear the last record mid-body.
  ASSERT_TRUE(FileFaultInjector::truncate_tail(segments[0], 5));

  LogScanStats stats;
  auto records = scan_all(path(), &stats, /*repair=*/true);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].payload, "first");
  EXPECT_EQ(stats.torn_records, 1u);
  EXPECT_EQ(stats.crc_failures, 0u);

  // Repair truncated the torn frame: a second scan is clean.
  records = scan_all(path(), &stats);
  EXPECT_EQ(records.size(), 1u);
  EXPECT_EQ(stats.torn_records, 0u);
}

TEST_F(DurabilityTest, WriteFaultProducesTornRecordAndFailsLog) {
  FileFaultInjector injector;
  SegmentLog log(path());
  log.set_fault_injector(&injector);
  ASSERT_TRUE(log.append(LogRecordType::kPut, 1, 1, "intact"));
  injector.fail_after_bytes(4);  // next frame is cut after 4 bytes
  EXPECT_FALSE(log.append(LogRecordType::kPut, 2, 2, "torn-away"));
  EXPECT_TRUE(injector.tripped());
  EXPECT_TRUE(log.failed());
  // A failed log refuses everything from then on.
  EXPECT_FALSE(log.append(LogRecordType::kPut, 3, 3, "rejected"));
  log.close();

  LogScanStats stats;
  const auto records = scan_all(path(), &stats, /*repair=*/true);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].payload, "intact");
  EXPECT_EQ(stats.torn_records, 1u);
}

TEST_F(DurabilityTest, BitFlipIsSkippedAndScanResyncs) {
  {
    SegmentLog log(path());
    ASSERT_TRUE(log.append(LogRecordType::kPut, 1, 1, "aaaaaaaa"));
    ASSERT_TRUE(log.append(LogRecordType::kPut, 2, 2, "bbbbbbbb"));
    ASSERT_TRUE(log.append(LogRecordType::kPut, 3, 3, "cccccccc"));
    log.close();
  }
  const auto segments = SegmentLog::list_segments(path());
  ASSERT_EQ(segments.size(), 1u);
  // Flip a payload bit inside the middle record. Frame = 25 + 8 bytes.
  ASSERT_TRUE(FileFaultInjector::flip_bit(segments[0], 33 + 25 + 2, 3));

  LogScanStats stats;
  const auto records = scan_all(path(), &stats);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].payload, "aaaaaaaa");
  EXPECT_EQ(records[1].payload, "cccccccc");  // resynced past the bad frame
  EXPECT_EQ(stats.crc_failures, 1u);
  EXPECT_EQ(stats.torn_records, 0u);
}

TEST_F(DurabilityTest, CleanerKeepsOnlyTheLivePutAtItsSeq) {
  obs::Counter& cleaned =
      obs::StatsRegistry::global().counter("durability.segments_compacted");
  SegmentLog log(path());
  ASSERT_TRUE(log.append(LogRecordType::kPut, 1, 100, "stale"));
  ASSERT_TRUE(log.append(LogRecordType::kPut, 2, 100, "fresh"));
  ASSERT_TRUE(log.append(LogRecordType::kPut, 3, 200, "dead"));
  ASSERT_TRUE(log.append(LogRecordType::kPut, 4, 300, "erased"));
  ASSERT_TRUE(log.append(LogRecordType::kTombstone, 5, 300, ""));
  log.rotate_now();  // only sealed segments are cleaned
  const std::string first = SegmentLog::list_segments(path()).front();
  const std::uint64_t cleaned_before = cleaned.value();
  log.clean(0, live_set({{100, 2}}));
  EXPECT_EQ(cleaned.value() - cleaned_before, 1u);
  EXPECT_FALSE(fs::exists(first));
  // The log keeps accepting appends after cleaning.
  ASSERT_TRUE(log.append(LogRecordType::kPut, 6, 400, "post-clean"));
  log.flush();

  // The erased key's tombstone rides along while its put could still
  // surface from a cleaned segment that a crash left behind...
  auto records = scan_all(path(), nullptr);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].key, 100u);
  EXPECT_EQ(records[0].seq, 2u);  // original seq preserved
  EXPECT_EQ(records[0].payload, "fresh");
  EXPECT_EQ(records[1].type, LogRecordType::kTombstone);
  EXPECT_EQ(records[1].key, 300u);
  EXPECT_EQ(records[2].payload, "post-clean");

  // ...and the next clean of its segment drops it: only the live puts are
  // left, each at its original seq.
  log.rotate_now();
  log.clean(0, live_set({{100, 2}, {400, 6}}));
  log.close();
  records = scan_all(path(), nullptr);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].type, LogRecordType::kPut);
  EXPECT_EQ(records[0].key, 100u);
  EXPECT_EQ(records[0].seq, 2u);
  EXPECT_EQ(records[0].payload, "fresh");
  EXPECT_EQ(records[1].key, 400u);
  EXPECT_EQ(records[1].seq, 6u);
}

// Cleaning stops once the log fits its bound, oldest segment first, and
// a failed log is left alone.
TEST_F(DurabilityTest, CleanerStopsAtTheBoundAndSkipsAFailedLog) {
  SegmentLogOptions options;
  options.segment_bytes = 60;  // two 33-byte frames per segment
  SegmentLog log(path(), options);
  for (std::uint64_t k = 1; k <= 8; ++k) {
    ASSERT_TRUE(log.append(LogRecordType::kPut, k, k, "pppppppp"));
  }
  const auto before = SegmentLog::list_segments(path());
  ASSERT_EQ(before.size(), 5u);  // four sealed, one empty active
  // Nothing live: each cleaned segment frees 66 bytes, and 264 on disk
  // must come down to 140, so the two oldest go.
  log.clean(140, live_set({}));
  const auto after = SegmentLog::list_segments(path());
  ASSERT_EQ(after.size(), 3u);
  EXPECT_EQ(after.front(), before[2]);
  EXPECT_EQ(SegmentLog::dir_bytes(path()), 132u);

  FileFaultInjector injector;
  log.set_fault_injector(&injector);
  injector.fail_after_bytes(0);
  EXPECT_FALSE(log.append(LogRecordType::kPut, 9, 9, "pppppppp"));
  ASSERT_TRUE(log.failed());
  log.clean(0, live_set({}));
  EXPECT_EQ(SegmentLog::list_segments(path()).size(), 3u);
}

// --- durable tier + replica-merge recovery ---------------------------------

// Every fsync policy, driven through DurableTierOptions::log: counts
// durability.fsyncs per append and at close, and recovers the same records.
TEST_F(DurabilityTest, FsyncPoliciesSyncOnScheduleAndRecoverTheSameRecords) {
  using durability::FsyncPolicy;
  using Recovered =
      std::vector<std::tuple<durability::LogKey, std::uint64_t, std::string>>;
  obs::Counter& fsyncs =
      obs::StatsRegistry::global().counter("durability.fsyncs");
  struct Expected {
    FsyncPolicy policy;
    const char* name;
    std::vector<std::uint64_t> per_append;  // summed over both replicas
    std::uint64_t at_close;
  };
  // Frames of 33, 33, 25 and 33 bytes against a 100-byte segment: only the
  // fourth append rotates.
  const Expected cases[] = {
      {FsyncPolicy::kNever, "never", {0, 0, 0, 0}, 0},
      {FsyncPolicy::kOnRotate, "on_rotate", {0, 0, 0, 2}, 2},
      {FsyncPolicy::kEveryAppend, "every_append", {2, 2, 2, 4}, 2},
  };
  std::vector<Recovered> recovered_by_policy;
  for (const Expected& expected : cases) {
    SCOPED_TRACE(expected.name);
    const std::string root = path(expected.name);
    DurableTierOptions options;
    options.log.fsync = expected.policy;
    options.log.segment_bytes = 100;
    {
      DurableTier tier(root, options);
      std::vector<std::uint64_t> per_append;
      const auto counted = [&](auto&& append) {
        const std::uint64_t before = fsyncs.value();
        EXPECT_EQ(append(), 2u);
        per_append.push_back(fsyncs.value() - before);
      };
      counted([&] { return tier.put(1, 1, "payload1"); });
      counted([&] { return tier.put(2, 2, "payload2"); });
      counted([&] { return tier.tombstone(1, 3); });
      counted([&] { return tier.put(3, 4, "payload3"); });
      EXPECT_EQ(per_append, expected.per_append);
      const std::uint64_t before_close = fsyncs.value();
      tier.close();
      EXPECT_EQ(fsyncs.value() - before_close, expected.at_close);
    }
    DurableTier reopened(root);
    Recovered recovered;
    for (const auto& [key, entry] : reopened.recover()) {
      recovered.emplace_back(key, entry.seq, entry.payload);
    }
    std::sort(recovered.begin(), recovered.end());
    recovered_by_policy.push_back(std::move(recovered));
  }
  const Recovered want = {{2, 2, "payload2"}, {3, 4, "payload3"}};
  for (const Recovered& recovered : recovered_by_policy) {
    EXPECT_EQ(recovered, want);
  }
}

TEST_F(DurabilityTest, TierRecoversNewestPerKeyAcrossReplicas) {
  {
    DurableTier tier(path());
    EXPECT_EQ(tier.put(1, 1, "one-v1"), 2u);
    EXPECT_EQ(tier.put(2, 2, "two"), 2u);
    EXPECT_EQ(tier.put(1, 3, "one-v2"), 2u);
    EXPECT_EQ(tier.tombstone(2, 4), 2u);
    tier.close();
  }
  DurableTier tier(path());
  RecoveryStats stats;
  const auto recovered = tier.recover(&stats);
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered.at(1).payload, "one-v2");
  EXPECT_EQ(recovered.at(1).seq, 3u);
  EXPECT_EQ(stats.replicas_scanned, 2u);
  EXPECT_EQ(stats.tombstoned_keys, 1u);
  // Every record exists on both replicas: all but the first sighting of a
  // key/seq pair count as duplicates.
  EXPECT_GT(stats.duplicate_records, 0u);
}

TEST_F(DurabilityTest, SingleIntactReplicaServesEverything) {
  FileFaultInjector injector;
  {
    DurableTier tier(path());
    ASSERT_EQ(tier.put(1, 1, "before-fault"), 2u);
    // Replica 0 dies mid-write from here on; replica 1 stays intact.
    tier.set_fault_injector(0, &injector);
    injector.fail_after_bytes(3);
    EXPECT_EQ(tier.put(2, 2, "replica1-only"), 1u);
    EXPECT_EQ(tier.put(3, 3, "also-replica1"), 1u);
    EXPECT_FALSE(tier.all_failed());
    tier.close();
  }
  // Corrupt a record on replica 1's copy of key 1 too: bit-flip, so the
  // replica-0 copy (written before the fault) serves it.
  const auto replica1_segments =
      SegmentLog::list_segments(durability::replica_dir(path(), 1));
  ASSERT_FALSE(replica1_segments.empty());
  ASSERT_TRUE(FileFaultInjector::flip_bit(replica1_segments[0], 30, 1));

  DurableTier tier(path());
  RecoveryStats stats;
  const auto recovered = tier.recover(&stats);
  ASSERT_EQ(recovered.size(), 3u);
  EXPECT_EQ(recovered.at(1).payload, "before-fault");
  EXPECT_EQ(recovered.at(2).payload, "replica1-only");
  EXPECT_EQ(recovered.at(3).payload, "also-replica1");
  EXPECT_EQ(stats.scan.torn_records, 1u);   // replica 0's cut frame
  EXPECT_GE(stats.scan.crc_failures, 1u);   // replica 1's flipped bit
}

// --- memo store over the durable tier --------------------------------------

TEST_F(DurabilityTest, MemoStoreRestoresFromDurableTier) {
  ClusterConfig cluster_config{.num_machines = 4, .slots_per_machine = 2};
  CostModel cost;
  Cluster cluster(cluster_config);
  const CombineFn combiner = testing::sum_combiner();

  std::vector<std::pair<NodeId, std::shared_ptr<const KVTable>>> written;
  {
    DurableTier tier(path());
    MemoStore store(cluster, cost);
    store.attach_durable_tier(&tier);
    Rng rng(7);
    for (NodeId id = 1; id <= 20; ++id) {
      auto leaf = testing::random_leaf(id, rng, combiner);
      store.put(id * 1000, leaf.table);
      written.emplace_back(id * 1000, leaf.table);
    }
    // Erase one entry: the tombstone must outlive recovery.
    store.erase(5000);
    const MemoStoreStats stats = store.stats();
    EXPECT_GT(stats.persistent_writes, 0u);
    EXPECT_GT(stats.bytes_persisted, 0u);
    store.flush_durable();
    tier.close();
  }

  DurableTier tier(path());
  MemoStore store(cluster, cost);
  store.attach_durable_tier(&tier);
  const std::size_t recovered = store.restore_from_durable();
  EXPECT_EQ(recovered, written.size() - 1);  // minus the tombstoned entry
  EXPECT_EQ(store.stats().recovered_entries, recovered);
  for (const auto& [id, table] : written) {
    auto got = store.peek(id);
    if (id == 5000) {
      EXPECT_EQ(got, nullptr);
      continue;
    }
    ASSERT_NE(got, nullptr) << "lost id " << id;
    EXPECT_EQ(*got, *table) << "id " << id;
    EXPECT_TRUE(store.persisted_durably(id));
  }
}

// --- segment-scan robustness -----------------------------------------------

TEST_F(DurabilityTest, ScanDirAbandonsSegmentOnImplausibleLength) {
  {
    SegmentLog log(path());
    ASSERT_TRUE(log.append(LogRecordType::kPut, 1, 1, "intact"));
    log.close();
  }
  const auto segments = SegmentLog::list_segments(path());
  ASSERT_EQ(segments.size(), 1u);
  // Hand-craft a frame whose u32 length prefix claims ~2GB of body: the
  // scan must abandon the segment (counting a crc failure) rather than
  // trust the length — resyncing past it would mean a 2GB seek/alloc on
  // attacker-controlled bytes.
  std::string frame;
  wire::put_u32(frame, 0x7F000000u);  // > kLogMaxPlausibleBody
  wire::put_u32(frame, 0xDEADBEEFu);  // nonsense "crc"
  frame += "garbage bytes that are not a real record body";
  {
    std::ofstream out(segments[0], std::ios::binary | std::ios::app);
    out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  }
  LogScanStats stats;
  const auto records = scan_all(path(), &stats);
  ASSERT_EQ(records.size(), 1u);  // the intact record, nothing after
  EXPECT_EQ(records[0].payload, "intact");
  EXPECT_EQ(stats.crc_failures, 1u);
  EXPECT_EQ(stats.torn_records, 0u);
}

// --- integrity scrubbing (durability/scrubber.h) ---------------------------

using durability::IntegrityScrubber;
using durability::ScrubStats;

// Fixed 8-byte payloads make every frame 33 bytes, so tests can address
// frame k at byte offset k * 33 (8B header + 17B body prefix + 8B payload).
constexpr std::uint64_t kFrameBytes = 33;

TEST_F(DurabilityTest, ScrubberVerifiesCleanTierQuietly) {
  DurableTier tier(path());
  for (std::uint64_t k = 1; k <= 10; ++k) {
    ASSERT_EQ(tier.put(k, k, "pppppppp"), 2u);
  }
  IntegrityScrubber scrubber(tier);
  const ScrubStats slice = scrubber.scrub_slice(1000);
  EXPECT_EQ(slice.records_verified, 20u);  // 10 records x 2 replicas
  EXPECT_EQ(slice.bytes_verified, 20u * kFrameBytes);
  EXPECT_EQ(slice.corruptions_detected, 0u);
  EXPECT_EQ(slice.repairs, 0u);
  EXPECT_EQ(slice.quarantines, 0u);
  EXPECT_EQ(slice.full_passes, 1u);
  EXPECT_TRUE(scrubber.stats().conserved());
}

TEST_F(DurabilityTest, ScrubberQuarantinesBitRotAndHealsTheGap) {
  DurableTier tier(path());
  for (std::uint64_t k = 1; k <= 8; ++k) {
    ASSERT_EQ(tier.put(k, k, "pppppppp"), 2u);
  }
  tier.flush();
  // Rot a payload bit of frame 2 (key 3) in replica 0.
  const auto segments =
      SegmentLog::list_segments(durability::replica_dir(path(), 0));
  ASSERT_EQ(segments.size(), 1u);
  ASSERT_TRUE(
      FileFaultInjector::flip_bit(segments[0], 2 * kFrameBytes + 25 + 3, 5));

  IntegrityScrubber scrubber(tier);
  const ScrubStats slice = scrubber.scrub_slice(1000);
  // 7 intact frames on replica 0 + 8 on replica 1; the rotted segment is
  // quarantined (one detection) and replica 0's missing newest copy of
  // key 3 is healed from replica 1 (a second detection, resolved as a
  // repair) — conservation holds for both.
  EXPECT_EQ(slice.records_verified, 15u);
  EXPECT_EQ(slice.corruptions_detected, 2u);
  EXPECT_EQ(slice.quarantines, 1u);
  EXPECT_EQ(slice.repairs, 1u);
  EXPECT_GT(slice.repair_bytes_written, 0u);
  EXPECT_TRUE(scrubber.stats().conserved());

  // The quarantined file is renamed, never deleted, and the *.slog
  // pattern keeps it out of every future scan.
  std::size_t quarantined = 0;
  for (const auto& entry :
       fs::directory_iterator(durability::replica_dir(path(), 0))) {
    if (entry.path().extension() == ".quarantine") ++quarantined;
  }
  EXPECT_EQ(quarantined, 1u);
  for (const auto& seg :
       SegmentLog::list_segments(durability::replica_dir(path(), 0))) {
    EXPECT_EQ(fs::path(seg).extension(), ".slog");
  }

  // Every key (including the rotted one) survives recovery with its
  // payload intact.
  tier.close();
  DurableTier reopened(path());
  const auto recovered = reopened.recover(nullptr);
  ASSERT_EQ(recovered.size(), 8u);
  for (std::uint64_t k = 1; k <= 8; ++k) {
    EXPECT_EQ(recovered.at(k).payload, "pppppppp") << "key " << k;
  }

  // A second full pass over the healed tier detects nothing new.
  IntegrityScrubber again(reopened);
  const ScrubStats second = again.scrub_slice(1000);
  EXPECT_EQ(second.corruptions_detected, 0u);
  EXPECT_EQ(second.full_passes, 1u);
}

TEST_F(DurabilityTest, ScrubberHealsDivergedReplica) {
  DurableTier tier(path());
  for (std::uint64_t k = 1; k <= 4; ++k) {
    ASSERT_EQ(tier.put(k, k, "pppppppp"), 2u);
  }
  tier.flush();
  // Drop replica 1's newest record at an exact frame boundary (sealing the
  // segment first, as the chaos kReplicaDivergence event does): every
  // remaining frame stays CRC-intact, so this exercises the pure
  // anti-entropy path with no corruption involved.
  tier.log(1).rotate_now();
  const auto segments =
      SegmentLog::list_segments(durability::replica_dir(path(), 1));
  ASSERT_FALSE(segments.empty());
  ASSERT_TRUE(FileFaultInjector::truncate_tail(segments[0], kFrameBytes));

  IntegrityScrubber scrubber(tier);
  const ScrubStats slice = scrubber.scrub_slice(1000);
  EXPECT_EQ(slice.records_verified, 7u);  // 4 + 3 intact frames
  EXPECT_EQ(slice.corruptions_detected, 1u);
  EXPECT_EQ(slice.repairs, 1u);
  EXPECT_EQ(slice.quarantines, 0u);
  EXPECT_TRUE(scrubber.stats().conserved());

  // Replica 1 alone now serves every key again.
  tier.close();
  bool key4_healed = false;
  SegmentLog::scan_dir(
      durability::replica_dir(path(), 1),
      [&](const LogRecord& r) {
        if (r.key == 4 && r.seq == 4) key4_healed = true;
      },
      /*repair_torn_tail=*/false);
  EXPECT_TRUE(key4_healed);
}

TEST_F(DurabilityTest, ScrubberSlicesResumeAcrossBudgets) {
  DurableTier tier(path());
  for (std::uint64_t k = 1; k <= 10; ++k) {
    ASSERT_EQ(tier.put(k, k, "pppppppp"), 2u);
  }
  IntegrityScrubber scrubber(tier);
  int slices = 0;
  while (scrubber.stats().full_passes == 0) {
    scrubber.scrub_slice(3);
    ASSERT_LT(++slices, 100) << "pass never completed";
  }
  EXPECT_GE(slices, 7);  // 20 frames at <= 3 per slice
  EXPECT_EQ(scrubber.stats().records_verified, 20u);
  EXPECT_EQ(scrubber.stats().corruptions_detected, 0u);
  EXPECT_TRUE(scrubber.stats().conserved());
}

// A cleaning GC between slices deletes segments the pass snapshotted,
// some scanned and some not. The pass carries on: it finishes, verifies
// what is left, and finds nothing to repair, because the records the
// cleaner moved sit past the pass's bounds in both replicas.
TEST_F(DurabilityTest, ScrubPassCompletesAcrossACleaningGc) {
  DurableTierOptions options;
  options.log.segment_bytes = 100;  // four 33-byte frames per segment
  DurableTier tier(path(), options);
  std::vector<std::pair<durability::LogKey, std::uint64_t>> live;
  for (std::uint64_t k = 1; k <= 20; ++k) {
    ASSERT_EQ(tier.put(k, k, "pppppppp"), 2u);
    if (k % 2 == 0) live.emplace_back(k, k);
  }
  const auto replica0 = SegmentLog::list_segments(tier.log(0).dir());
  IntegrityScrubber scrubber(tier);
  scrubber.scrub_slice(22);  // replica 0 done, replica 1 mid-flight

  obs::Counter& cleaned =
      obs::StatsRegistry::global().counter("durability.segments_compacted");
  const std::uint64_t cleaned_before = cleaned.value();
  tier.clean(live.size() * 8, live_set(live));
  EXPECT_GE(cleaned.value() - cleaned_before, 6u);  // both replicas
  EXPECT_FALSE(fs::exists(replica0.front()));

  const ScrubStats slice = scrubber.scrub_slice(1000);
  EXPECT_EQ(slice.full_passes, 1u);  // the same pass, not a restart
  EXPECT_EQ(scrubber.stats().full_passes, 1u);
  EXPECT_LT(scrubber.stats().records_verified, 40u);
  EXPECT_EQ(scrubber.stats().corruptions_detected, 0u);
  EXPECT_EQ(scrubber.stats().repairs, 0u);
  EXPECT_TRUE(scrubber.stats().conserved());

  // The next pass sees the cleaned tier whole and agrees with it.
  while (scrubber.stats().full_passes < 2) scrubber.scrub_slice(1000);
  EXPECT_EQ(scrubber.stats().corruptions_detected, 0u);
  tier.close();
  std::vector<std::pair<durability::LogKey, std::uint64_t>> recovered;
  for (const auto& [key, entry] : DurableTier(path()).recover()) {
    recovered.emplace_back(key, entry.seq);
  }
  std::sort(recovered.begin(), recovered.end());
  EXPECT_EQ(recovered, live);
}

// The Prometheus text format allows one TYPE line per family; a scraper
// rejects the whole page otherwise. Each event is one registry counter:
// the work ledger exports attributed work and its run count, no events.
TEST_F(DurabilityTest, MetricsExposeEachFamilyOnce) {
  DurableTier tier(path());
  for (std::uint64_t k = 1; k <= 4; ++k) {
    ASSERT_EQ(tier.put(k, k, "pppppppp"), 2u);
  }
  IntegrityScrubber scrubber(tier);
  const std::uint64_t verified_before =
      testing::registry_counter("scrub.records_verified");
  ASSERT_EQ(scrubber.scrub_slice(1000).records_verified, 8u);
  EXPECT_EQ(testing::registry_counter("scrub.records_verified") -
                verified_before,
            8u);

  std::istringstream text(
      obs::prometheus_text(obs::StatsRegistry::global().snapshot(),
                           obs::WorkLedger::global().snapshot()));
  std::unordered_set<std::string> families;
  std::string line;
  while (std::getline(text, line)) {
    if (!line.starts_with("# TYPE ")) continue;
    const std::string name = line.substr(7, line.find(' ', 7) - 7);
    EXPECT_TRUE(families.insert(name).second) << "duplicate family " << name;
    if (name.starts_with("slider_ledger_")) {
      EXPECT_EQ(name, "slider_ledger_runs_committed_total");
    }
  }
  EXPECT_TRUE(families.contains("slider_scrub_records_verified_total"));
}

// --- memo payload checksums ------------------------------------------------

TEST_F(DurabilityTest, CorruptPersistentEntryDegradesToFailureMiss) {
  ClusterConfig cluster_config{.num_machines = 4, .slots_per_machine = 2};
  CostModel cost;
  Cluster cluster(cluster_config);
  const CombineFn combiner = testing::sum_combiner();
  MemoStore store(cluster, cost);
  Rng rng(5);
  const auto leaf = testing::random_leaf(1, rng, combiner);
  store.put(42, leaf.table);
  store.set_memory_cache_enabled(false);  // force the persistent path

  auto ok = store.get(42, 0);
  ASSERT_TRUE(ok.found);
  EXPECT_EQ(*ok.table, *leaf.table);

  // Silent corruption of the stored payload: the always-on persistent
  // checksum turns it into a failure-forced miss (recompute), never a
  // crash or a wrong table.
  ASSERT_TRUE(store.debug_corrupt_persistent(42));
  const auto miss = store.get(42, 0);
  EXPECT_FALSE(miss.found);
  EXPECT_TRUE(miss.failure_miss);
  EXPECT_EQ(store.stats().checksum_forced_misses, 1u);
  EXPECT_EQ(store.stats().failure_forced_misses, 1u);
}

TEST_F(DurabilityTest, MemoryChecksumVerifyFallsBackToPersistent) {
  ClusterConfig cluster_config{.num_machines = 4, .slots_per_machine = 2};
  CostModel cost;
  Cluster cluster(cluster_config);
  const CombineFn combiner = testing::sum_combiner();
  MemoStore store(cluster, cost);
  Rng rng(6);
  const auto leaf = testing::random_leaf(1, rng, combiner);
  const auto wrong = testing::random_leaf(2, rng, combiner);
  store.put(42, leaf.table);

  // Swap the in-memory copy for a wrong table, leaving the stored
  // checksum stale: every memory hit is verified, so the read drops the
  // poisoned copy and serves the (independently verified) persistent
  // bytes.
  ASSERT_TRUE(store.debug_swap_memory(42, wrong.table));
  const auto got = store.get(42, 0);
  ASSERT_TRUE(got.found);
  EXPECT_EQ(*got.table, *leaf.table);
  EXPECT_EQ(store.stats().checksum_forced_misses, 1u);

  // The poisoned memory copy is gone; subsequent reads stay correct.
  const auto again = store.get(42, 0);
  ASSERT_TRUE(again.found);
  EXPECT_EQ(*again.table, *leaf.table);
  EXPECT_EQ(store.stats().checksum_forced_misses, 1u);
}

TEST_F(DurabilityTest, CorruptionHooksTouchOnlyTheirOwnTier) {
  // A put stores one shared table in both tiers, so each hook must swap its
  // own tier's pointer rather than change the shared bytes.
  ClusterConfig cluster_config{.num_machines = 4, .slots_per_machine = 2};
  CostModel cost;
  Cluster cluster(cluster_config);
  const CombineFn combiner = testing::sum_combiner();
  MemoStore store(cluster, cost);
  Rng rng(7);
  const auto leaf = testing::random_leaf(1, rng, combiner);
  const auto wrong = testing::random_leaf(2, rng, combiner);
  store.put(42, leaf.table);
  const KVTable before = *leaf.table;

  // A corrupt persistent copy leaves the memory copy serving, unchanged.
  ASSERT_TRUE(store.debug_corrupt_persistent(42));
  const auto hit = store.get(42, 0);
  ASSERT_TRUE(hit.found);
  EXPECT_EQ(*hit.table, before);
  EXPECT_EQ(store.stats().checksum_forced_misses, 0u);

  // With both copies bad, the read degrades to a failure miss.
  ASSERT_TRUE(store.debug_swap_memory(42, wrong.table));
  const auto miss = store.get(42, 0);
  EXPECT_FALSE(miss.found);
  EXPECT_TRUE(miss.failure_miss);
  EXPECT_EQ(store.stats().checksum_forced_misses, 2u);
  EXPECT_EQ(store.peek(42), nullptr);
}

// --- checkpoint manifests --------------------------------------------------

TEST_F(DurabilityTest, CheckpointManifestRoundTrip) {
  const CombineFn combiner = testing::sum_combiner();
  Rng rng(11);
  auto inline_table = testing::random_leaf(1, rng, combiner).table;
  auto shared_table = testing::random_leaf(2, rng, combiner).table;

  durability::CheckpointWriter writer;  // no persisted fn: all inline
  wire::put_u64(writer.blob(), 0xFEEDFACEull);
  writer.put_node(7, inline_table.get());
  writer.put_node(8, shared_table.get());
  writer.put_node(8, shared_table.get());  // repeat: becomes by-ref
  writer.put_node(9, nullptr);
  const std::string manifest = path("ckpt.slckpt");
  ASSERT_TRUE(writer.write_manifest(manifest));

  auto reader = durability::CheckpointReader::open(manifest, nullptr);
  ASSERT_NE(reader, nullptr);
  std::uint64_t magic = 0;
  ASSERT_TRUE(reader->get_u64(&magic));
  EXPECT_EQ(magic, 0xFEEDFACEull);
  std::uint64_t id = 0;
  std::shared_ptr<const KVTable> a;
  std::shared_ptr<const KVTable> b;
  std::shared_ptr<const KVTable> b2;
  std::shared_ptr<const KVTable> c;
  ASSERT_TRUE(reader->get_node(&id, &a));
  EXPECT_EQ(id, 7u);
  EXPECT_EQ(*a, *inline_table);
  ASSERT_TRUE(reader->get_node(&id, &b));
  ASSERT_TRUE(reader->get_node(&id, &b2));
  EXPECT_EQ(*b, *shared_table);
  // Pointer sharing is reconstructed, not just equality.
  EXPECT_EQ(b.get(), b2.get());
  ASSERT_TRUE(reader->get_node(&id, &c));
  EXPECT_EQ(id, 9u);
  EXPECT_EQ(c, nullptr);
  EXPECT_TRUE(reader->done());
}

TEST_F(DurabilityTest, CheckpointRejectsCorruption) {
  durability::CheckpointWriter writer;
  wire::put_u64(writer.blob(), 42);
  const std::string manifest = path("ckpt.slckpt");
  ASSERT_TRUE(writer.write_manifest(manifest));

  EXPECT_NE(durability::CheckpointReader::open(manifest, nullptr), nullptr);
  // Flip one blob bit: CRC must reject the manifest.
  const auto size = FileFaultInjector::file_size(manifest);
  ASSERT_TRUE(size.has_value());
  ASSERT_TRUE(FileFaultInjector::flip_bit(manifest, *size - 1, 0));
  EXPECT_EQ(durability::CheckpointReader::open(manifest, nullptr), nullptr);
  // Missing file is a clean failure, not a crash.
  EXPECT_EQ(durability::CheckpointReader::open(path("absent"), nullptr),
            nullptr);
}

TEST_F(DurabilityTest, CheckpointRejectsTrailingBytes) {
  durability::CheckpointWriter writer;
  wire::put_u64(writer.blob(), 42);
  const std::string manifest = path("ckpt.slckpt");
  ASSERT_TRUE(writer.write_manifest(manifest));
  ASSERT_NE(durability::CheckpointReader::open(manifest, nullptr), nullptr);
  // One byte past the declared blob: the file is not the manifest that was
  // written, even though header, blob and CRC are all intact.
  {
    std::ofstream out(manifest, std::ios::binary | std::ios::app);
    out.put('\0');
  }
  EXPECT_EQ(durability::CheckpointReader::open(manifest, nullptr), nullptr);
}

// --- end-to-end session checkpoint/restore ---------------------------------

struct SessionCase {
  WindowMode mode;
  TreeKind kind;
  bool split_processing;
  // Route through the flat aggregation tier instead of a tree: leaves
  // tree_kind unset and runs the flat-eligible substr job (`kind` is
  // ignored). Covers flat-tier serialize/restore parity.
  bool flat = false;
};

std::string session_case_name(
    const ::testing::TestParamInfo<SessionCase>& info) {
  if (info.param.flat) return "flat_variable";
  std::string name;
  switch (info.param.kind) {
    case TreeKind::kFolding: name = "folding"; break;
    case TreeKind::kRandomizedFolding: name = "randomized"; break;
    case TreeKind::kRotating: name = "rotating"; break;
    case TreeKind::kCoalescing: name = "coalescing"; break;
    case TreeKind::kStrawman: name = "strawman"; break;
  }
  switch (info.param.mode) {
    case WindowMode::kAppendOnly: name += "_append"; break;
    case WindowMode::kFixedWidth: name += "_fixed"; break;
    case WindowMode::kVariableWidth: name += "_variable"; break;
  }
  if (info.param.split_processing) name += "_split";
  return name;
}

class SessionCheckpointRestore
    : public ::testing::TestWithParam<SessionCase> {
 protected:
  void SetUp() override {
    temp_.emplace("slider_ckpt_" +
                  session_case_name(
                      ::testing::TestParamInfo<SessionCase>(GetParam(), 0)));
  }
  void TearDown() override { temp_.reset(); }

  std::optional<testing::TempDir> temp_;
};

TEST_P(SessionCheckpointRestore, ByteIdenticalOutputAndIncrementalSlide) {
  const SessionCase c = GetParam();
  const apps::MicroApp app =
      c.flat ? apps::MicroApp::kSubStr : apps::MicroApp::kHct;
  const auto bench = apps::make_microbenchmark(app);

  ClusterConfig cluster_config{.num_machines = 8, .slots_per_machine = 2};
  CostModel cost;
  Cluster cluster(cluster_config);
  VanillaEngine engine(cluster, cost);

  SliderConfig config;
  config.mode = c.mode;
  if (!c.flat) config.tree_kind = c.kind;
  config.split_processing = c.split_processing;
  config.bucket_width = 3;

  constexpr std::size_t kWindowSplits = 12;
  constexpr std::size_t kRecordsPerSplit = 25;
  constexpr std::size_t kSlide = 3;
  const std::size_t remove = c.mode == WindowMode::kAppendOnly ? 0 : kSlide;

  auto make_batch = [&](std::size_t count, SplitId first_id) {
    Rng rng(900 + first_id);
    auto records = apps::generate_input(app, count * kRecordsPerSplit, rng,
                                        first_id * 1'000'000);
    return make_splits(std::move(records), kRecordsPerSplit, first_id);
  };

  // Control: an uninterrupted session over the same slide schedule.
  MemoStore control_memo(cluster, cost);
  SliderSession control(engine, control_memo, bench.job, config);

  const std::string ckpt_dir = (temp_->path / "checkpoint").string();
  const std::string tier_dir = (temp_->path / "memo").string();
  RunMetrics control_final;
  std::vector<KVTable> checkpoint_output;
  SimDuration checkpoint_clock = 0;
  std::size_t checkpoint_window = 0;
  {
    durability::DurableTier tier(tier_dir);
    MemoStore memo(cluster, cost);
    memo.attach_durable_tier(&tier);
    SliderSession session(engine, memo, bench.job, config);

    auto initial = make_batch(kWindowSplits, 0);
    session.initial_run(initial);
    control.initial_run(std::move(initial));
    SplitId next_id = kWindowSplits;
    for (int slide = 0; slide < 3; ++slide) {
      auto added = make_batch(kSlide, next_id);
      next_id += kSlide;
      session.slide(remove, added);
      control.slide(remove, std::move(added));
      if (c.split_processing) {
        session.run_background();
        control.run_background();
      }
    }
    ASSERT_TRUE(session.checkpoint(ckpt_dir));
    memo.flush_durable();
    tier.close();
    // The process "dies" here: session, memo, and tier all go away. The
    // control session keeps running to produce the expected next step;
    // snapshot its checkpoint-time state first.
    checkpoint_output = control.output();
    checkpoint_clock = control.sim_clock();
    checkpoint_window = control.window().size();
    control_final = control.slide(remove, make_batch(kSlide, next_id));
  }

  // Restart: recover the memo from the log, restore the session from the
  // checkpoint manifest.
  durability::DurableTier tier(tier_dir);
  MemoStore memo(cluster, cost);
  memo.attach_durable_tier(&tier);
  EXPECT_GT(memo.restore_from_durable(), 0u);
  SliderSession restored(engine, memo, bench.job, config);
  ASSERT_TRUE(restored.restore(ckpt_dir));

  // Byte-identical output at the checkpoint...
  ASSERT_EQ(restored.output().size(), checkpoint_output.size());
  for (std::size_t p = 0; p < checkpoint_output.size(); ++p) {
    EXPECT_EQ(restored.output()[p], checkpoint_output[p]) << "partition " << p;
  }
  ASSERT_EQ(restored.window().size(), checkpoint_window);
  EXPECT_EQ(restored.sim_clock(), checkpoint_clock);

  // ...and after the next slide, which must do the same delta-proportional
  // work the uninterrupted control did — not a from-scratch rebuild.
  const SplitId next_id = kWindowSplits + 3 * kSlide;
  const RunMetrics restored_metrics =
      restored.slide(remove, make_batch(kSlide, next_id));
  ASSERT_EQ(restored.output().size(), control.output().size());
  for (std::size_t p = 0; p < restored.output().size(); ++p) {
    EXPECT_EQ(restored.output()[p], control.output()[p]) << "partition " << p;
  }
  EXPECT_EQ(restored_metrics.combiner_invocations,
            control_final.combiner_invocations);
  EXPECT_EQ(restored_metrics.combiner_reused, control_final.combiner_reused);

  // The restored session's first GC swept what recovery resurrected: the
  // store holds its live set exactly.
  std::unordered_set<NodeId> live;
  restored.collect_live_ids(live);
  EXPECT_EQ(memo.size(), live.size());
  for (const NodeId id : live) EXPECT_TRUE(memo.contains(id)) << id;
}

INSTANTIATE_TEST_SUITE_P(
    AllTrees, SessionCheckpointRestore,
    ::testing::Values(
        SessionCase{WindowMode::kVariableWidth, TreeKind::kFolding, false},
        SessionCase{WindowMode::kVariableWidth, TreeKind::kRandomizedFolding,
                    false},
        SessionCase{WindowMode::kVariableWidth, TreeKind::kStrawman, false},
        SessionCase{WindowMode::kFixedWidth, TreeKind::kRotating, false},
        SessionCase{WindowMode::kFixedWidth, TreeKind::kRotating, true},
        SessionCase{WindowMode::kAppendOnly, TreeKind::kCoalescing, false},
        SessionCase{WindowMode::kAppendOnly, TreeKind::kCoalescing, true},
        SessionCase{WindowMode::kVariableWidth, TreeKind::kFolding, false,
                    /*flat=*/true}),
    session_case_name);

// GC writes no tombstones, so restore_from_durable resurrects every entry
// a pre-crash GC dropped whose segment was not cleaned yet. Only
// the restored session's first GC — a one-time full sweep — prunes them;
// every later GC erases released ids only.
TEST_F(DurabilityTest, FirstGcAfterRestorePrunesResurrectedEntries) {
  const auto bench = apps::make_microbenchmark(apps::MicroApp::kHct);
  ClusterConfig cluster_config{.num_machines = 6, .slots_per_machine = 2};
  CostModel cost;
  Cluster cluster(cluster_config);
  VanillaEngine engine(cluster, cost);
  SliderConfig config;
  config.mode = WindowMode::kVariableWidth;
  config.tree_kind = TreeKind::kFolding;

  auto batch = [](std::size_t count, SplitId first_id) {
    Rng rng(40 + first_id);
    auto records = apps::generate_input(apps::MicroApp::kHct, count * 20, rng,
                                        first_id * 1'000'000);
    return make_splits(std::move(records), 20, first_id);
  };
  const std::string ckpt_dir = path("checkpoint");
  const std::string tier_dir = path("memo");
  SplitId next_id = 10;
  {
    // At 1 MiB segments this log stays under the cleaner's trigger (twice
    // the live bytes plus a segment), so it keeps every entry GC dropped.
    DurableTier tier(tier_dir);
    MemoStore memo(cluster, cost);
    memo.attach_durable_tier(&tier);
    SliderSession session(engine, memo, bench.job, config);
    session.initial_run(batch(next_id, 0));
    for (int slide = 0; slide < 4; ++slide) {
      session.slide(2, batch(2, next_id));
      next_id += 2;
    }
    ASSERT_TRUE(session.checkpoint(ckpt_dir));
    memo.flush_durable();
    tier.close();
  }

  DurableTier tier(tier_dir);
  MemoStore memo(cluster, cost);
  memo.attach_durable_tier(&tier);
  ASSERT_GT(memo.restore_from_durable(), 0u);
  SliderSession restored(engine, memo, bench.job, config);
  ASSERT_TRUE(restored.restore(ckpt_dir));
  std::unordered_set<NodeId> live;
  restored.collect_live_ids(live);
  ASSERT_GT(memo.size(), live.size()) << "nothing resurrected to prune";

  restored.slide(2, batch(2, next_id));
  live.clear();
  restored.collect_live_ids(live);
  EXPECT_EQ(memo.size(), live.size());
  for (const NodeId id : live) EXPECT_TRUE(memo.contains(id)) << id;
}

// --- crash states of a cleaning GC ------------------------------------------

// A replica directory's segment files, by name.
using SegmentFiles = std::map<std::string, std::string>;

SegmentFiles read_segments(const std::string& dir) {
  SegmentFiles files;
  for (const auto& segment : SegmentLog::list_segments(dir)) {
    std::ifstream in(segment, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    files[fs::path(segment).filename().string()] = bytes.str();
  }
  return files;
}

void write_segments(const SegmentFiles& files, const fs::path& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (const auto& [name, bytes] : files) {
    std::ofstream out(dir / name, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
}

// Records replica files as they stand at each write the log makes: what a
// process killed just before that write leaves on disk.
class CrashPointRecorder final : public durability::FaultInjector {
 public:
  explicit CrashPointRecorder(std::string dir) : dir_(std::move(dir)) {}
  std::size_t admit(std::size_t want) override {
    states.push_back(read_segments(dir_));
    return want;
  }
  std::vector<SegmentFiles> states;

 private:
  std::string dir_;
};

// The crash states of a GC that cleans segments, built from replica 0's
// files before and after it:
//   (a) the copy-forward torn at every frame boundary, and once mid-frame;
//   (b) the copies flushed, nothing deleted;
//   (c) (b) minus each proper subset of the cleaned segments;
// plus the files as they stood at each write the cleaner made. In each, the
// replica alone must recover every live entry at its seq with its payload,
// bring back no id erased with a tombstone, and restore the checkpoint
// taken before the GC to outputs equal to a from-scratch run.
TEST_F(DurabilityTest, CleaningGcCrashStatesRecoverEveryLiveEntry) {
  const auto bench = apps::make_microbenchmark(apps::MicroApp::kHct);
  ClusterConfig cluster_config{.num_machines = 4, .slots_per_machine = 2};
  CostModel cost;
  Cluster cluster(cluster_config);
  VanillaEngine engine(cluster, cost);
  SliderConfig config;
  config.mode = WindowMode::kVariableWidth;
  config.tree_kind = TreeKind::kFolding;
  const auto batch = [](std::size_t count, SplitId first_id) {
    Rng rng(70 + first_id);
    auto records = apps::generate_input(apps::MicroApp::kHct, count * 5, rng,
                                        first_id * 1'000'000);
    return make_splits(std::move(records), 5, first_id);
  };
  const auto filler = [](NodeId id) {
    return std::make_shared<const KVTable>(KVTable::from_records(
        {{"filler", std::string(1000, static_cast<char>('a' + id % 26))}},
        testing::sum_combiner()));
  };

  DurableTierOptions options;
  options.log.segment_bytes = 16 << 10;
  DurableTier tier(path("tier"), options);
  MemoStore memo(cluster, cost);
  memo.attach_durable_tier(&tier);
  SliderSession session(engine, memo, bench.job, config);
  const std::vector<SplitPtr> window = batch(4, 0);
  session.initial_run(window);

  // A stale put: erased with a tombstone, then put again at a newer seq.
  constexpr NodeId kReput = 0xF000'0000'0000'0000ull;
  memo.put(kReput, filler(0));
  memo.erase(kReput);
  memo.put(kReput, filler(0));
  // Filler for the GC to clean away: the even ids erased with tombstones
  // 20 puts later (over a segment on, so the clean meets the put and
  // then its tombstone), the odd ids dropped by the GC without one.
  std::unordered_set<NodeId> tombstoned;
  for (NodeId i = 1; i <= 120; ++i) {
    memo.put(kReput + i, filler(i));
    if (i > 20 && i % 2 == 0) {
      memo.erase(kReput + i - 20);
      tombstoned.insert(kReput + i - 20);
    }
  }
  ASSERT_TRUE(session.checkpoint(path("ckpt")));
  const std::string replica0 = tier.log(0).dir();
  const SegmentFiles pre = read_segments(replica0);
  const std::string active =
      fs::path(tier.log(0).active_path()).filename().string();
  write_segments(pre, path("pre"));
  const auto pre_recovered =
      durability::recover_replicas({path("pre")}, nullptr);

  std::unordered_set<NodeId> live;
  session.collect_live_ids(live);
  live.insert(kReput);
  CrashPointRecorder recorder(replica0);
  tier.set_fault_injector(0, &recorder);
  memo.retain_only(live);
  tier.set_fault_injector(0, nullptr);
  const SegmentFiles post = read_segments(replica0);

  // Every live entry, at the seq and payload the log held before the GC.
  std::map<NodeId, durability::RecoveredEntry> expected;
  for (const NodeId id : live) {
    const auto table = memo.peek(id);
    ASSERT_NE(table, nullptr) << id;
    const auto it = pre_recovered.find(id);
    ASSERT_NE(it, pre_recovered.end()) << id;
    EXPECT_EQ(it->second.payload, serialize_table(*table)) << id;
    expected.emplace(id, it->second);
  }

  std::vector<std::string> cleaned;
  for (const auto& [name, bytes] : pre) {
    if (post.count(name) == 0) cleaned.push_back(name);
  }
  ASSERT_GE(cleaned.size(), 3u);
  ASSERT_LE(cleaned.size(), 8u);  // keeps (c) to at most 255 states
  // The copies went to the active segment and, past its rotations, to
  // segments that did not exist before: one stream, oldest file first.
  std::vector<std::string> copy_files = {active};
  for (const auto& [name, bytes] : post) {
    if (pre.count(name) == 0) copy_files.push_back(name);
  }

  // The copies are exactly the cleaned segments' live puts, each at its
  // original seq, in log order, plus each tombstone whose put this GC
  // dropped.
  std::vector<std::tuple<LogRecordType, NodeId, std::uint64_t>> want_copies;
  std::unordered_set<NodeId> dropped_puts;
  for (const std::string& name : cleaned) {
    SegmentCursor cursor(path("pre") + "/" + name);
    while (cursor.next() == SegmentCursor::Step::kRecord) {
      const LogRecord& r = cursor.record();
      const auto it = expected.find(r.key);
      if (r.type == LogRecordType::kPut) {
        if (it != expected.end() && it->second.seq == r.seq) {
          want_copies.emplace_back(r.type, r.key, r.seq);
        } else {
          dropped_puts.insert(r.key);
        }
      } else if (dropped_puts.count(r.key) != 0) {
        want_copies.emplace_back(r.type, r.key, r.seq);
      }
    }
  }
  std::vector<std::tuple<LogRecordType, NodeId, std::uint64_t>> copies;
  // Frame ends in the copy stream, as (index into copy_files, offset).
  std::vector<std::pair<std::size_t, std::uint64_t>> boundaries;
  write_segments(post, path("post"));
  const std::uint64_t active_before = pre.at(active).size();
  for (std::size_t f = 0; f < copy_files.size(); ++f) {
    SegmentCursor cursor(path("post") + "/" + copy_files[f],
                         f == 0 ? active_before : 0);
    while (cursor.next() == SegmentCursor::Step::kRecord) {
      const LogRecord& r = cursor.record();
      copies.emplace_back(r.type, r.key, r.seq);
      boundaries.emplace_back(f, cursor.offset());
    }
  }
  EXPECT_EQ(copies, want_copies);
  ASSERT_GE(boundaries.size(), 2u);

  // Replica 0 with the copy stream cut `at` bytes into copy_files[file],
  // every cleaned segment still present.
  const auto torn = [&](std::size_t file, std::uint64_t at) {
    SegmentFiles files = pre;
    for (std::size_t f = 0; f < file; ++f) {
      files[copy_files[f]] = post.at(copy_files[f]);
    }
    files[copy_files[file]] = post.at(copy_files[file]).substr(0, at);
    return files;
  };
  std::vector<std::pair<std::string, SegmentFiles>> states;
  for (const auto& [file, at] : boundaries) {  // (a)
    states.emplace_back(
        "torn at " + copy_files[file] + ":" + std::to_string(at),
        torn(file, at));
  }
  {
    const auto [file, end] = boundaries.back();
    const auto [prev_file, prev_end] = boundaries[boundaries.size() - 2];
    const std::uint64_t start =
        prev_file == file ? prev_end : (file == 0 ? active_before : 0);
    states.emplace_back("torn mid-frame",
                        torn(file, start + (end - start) / 2));
  }
  const SegmentFiles flushed =  // (b)
      torn(copy_files.size() - 1, post.at(copy_files.back()).size());
  const std::size_t subsets = std::size_t{1} << cleaned.size();
  for (std::size_t mask = 0; mask + 1 < subsets; ++mask) {  // (b), (c)
    SegmentFiles partial = flushed;
    for (std::size_t i = 0; i < cleaned.size(); ++i) {
      if ((mask >> i) & 1) partial.erase(cleaned[i]);
    }
    states.emplace_back("deleted subset " + std::to_string(mask),
                        std::move(partial));
  }
  states.emplace_back("after the GC", post);
  ASSERT_GE(recorder.states.size(), copies.size());
  for (std::size_t i = 0; i < recorder.states.size(); ++i) {
    states.emplace_back("killed before write " + std::to_string(i),
                        recorder.states[i]);
  }

  std::vector<SplitPtr> next_window(window.begin() + 2, window.end());
  const std::vector<SplitPtr> added = batch(2, 100);
  next_window.insert(next_window.end(), added.begin(), added.end());
  const JobResult scratch = engine.run(bench.job, next_window);

  for (const auto& [label, files] : states) {
    SCOPED_TRACE(label);
    const fs::path root = temp_->path / "state";
    fs::remove_all(root);
    write_segments(files, root / "replica-0");
    const auto recovered = durability::recover_replicas(
        {(root / "replica-0").string()}, nullptr);
    for (const auto& [id, want] : expected) {
      const auto it = recovered.find(id);
      ASSERT_NE(it, recovered.end()) << "lost live id " << id;
      EXPECT_EQ(it->second.seq, want.seq) << id;
      EXPECT_EQ(it->second.payload, want.payload) << id;
    }
    for (const auto& [id, entry] : recovered) {
      EXPECT_EQ(tombstoned.count(id), 0u) << "erased id came back: " << id;
      // Anything else was in the log before the GC and left the index
      // without a tombstone: a GC release.
      EXPECT_TRUE(pre_recovered.count(id) != 0) << id;
    }

    DurableTier state_tier(root.string());
    MemoStore state_memo(cluster, cost);
    state_memo.attach_durable_tier(&state_tier);
    state_memo.restore_from_durable();
    SliderSession restored(engine, state_memo, bench.job, config);
    ASSERT_TRUE(restored.restore(path("ckpt")));
    restored.slide(2, added);
    ASSERT_EQ(restored.output().size(), scratch.partition_outputs.size());
    for (std::size_t p = 0; p < scratch.partition_outputs.size(); ++p) {
      EXPECT_EQ(restored.output()[p], scratch.partition_outputs[p])
          << "partition " << p;
    }
  }
}

// Seeded property: a store over a small-segment tier takes puts, re-puts
// after eviction, erases, quota evictions and both GC forms. After every
// GC, each replica holds at most twice the live bytes plus two segments,
// and recovery returns every live entry at its write seq with its payload
// and nothing else but ids a GC released without a tombstone. A model
// mirrors the store's write seqs: a new entry and each tombstone (erase or
// quota eviction of a durable entry) take the next one.
TEST_F(DurabilityTest, CleanerPropertyBoundsTheLogAndRecoversTheLiveEntries) {
  ClusterConfig cluster_config{.num_machines = 4, .slots_per_machine = 2};
  CostModel cost;
  Cluster cluster(cluster_config);
  constexpr std::uint64_t kSegment = 4 << 10;
  constexpr std::uint64_t kTenant = 0xA1;  // even ids; odd ids untenanted
  const auto table_for = [](NodeId id) {
    return std::make_shared<const KVTable>(KVTable::from_records(
        {{"k" + std::to_string(id),
          std::string(100 + id * 37 % 500,
                      static_cast<char>('a' + id % 26))}},
        testing::sum_combiner()));
  };
  obs::Counter& cleaned =
      obs::StatsRegistry::global().counter("durability.segments_compacted");
  const std::uint64_t cleaned_before = cleaned.value();

  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::string root = path("seed" + std::to_string(seed));
    DurableTierOptions options;
    options.log.segment_bytes = kSegment;
    DurableTier tier(root, options);
    MemoStore memo(cluster, cost);
    memo.attach_durable_tier(&tier);
    memo.set_tenant_quota(kTenant, TenantQuota{.max_entries = 24});

    std::map<NodeId, std::uint64_t> present;  // id -> write seq
    std::unordered_set<NodeId> gc_released;   // left without a tombstone
    std::vector<NodeId> removed;              // candidates for a re-put
    std::uint64_t next_seq = 0;
    NodeId next_id = 1;
    const auto tombstone = [&](NodeId id) {
      present.erase(id);
      gc_released.erase(id);
      removed.push_back(id);
      ++next_seq;
    };
    const auto put = [&](NodeId id) {
      const std::uint64_t tenant = id % 2 == 0 ? kTenant : 0;
      const bool fresh = present.count(id) == 0;
      memo.put(id, table_for(id), tenant);
      if (!fresh) return;
      present[id] = next_seq++;
      gc_released.erase(id);
      // Quota evictions tombstone the tenant's oldest entries, one seq each.
      std::vector<NodeId> evicted;
      for (const auto& [other, seq] : present) {
        if (other % 2 == 0 && !memo.contains(other)) evicted.push_back(other);
      }
      for (const NodeId other : evicted) tombstone(other);
    };
    const auto check = [&](std::size_t step) {
      SCOPED_TRACE("step " + std::to_string(step));
      for (std::size_t r = 0; r < tier.replicas(); ++r) {
        EXPECT_LE(SegmentLog::dir_bytes(tier.log(r).dir()),
                  durability::kCleanFactor * memo.total_bytes() + 2 * kSegment)
            << "replica " << r;
      }
      const auto recovered = tier.recover();
      for (const auto& [id, seq] : present) {
        const auto it = recovered.find(id);
        ASSERT_NE(it, recovered.end()) << "lost live id " << id;
        EXPECT_EQ(it->second.seq, seq) << id;
        EXPECT_EQ(it->second.payload, serialize_table(*table_for(id))) << id;
      }
      for (const auto& [id, entry] : recovered) {
        EXPECT_TRUE(present.count(id) != 0 || gc_released.count(id) != 0)
            << "id " << id << " came back after a tombstone";
      }
    };

    Rng rng(seed);
    for (std::size_t step = 0; step < 400; ++step) {
      const std::uint64_t op = rng.next_below(100);
      if (op < 40) {
        put(next_id++);
      } else if (op < 55 && !removed.empty()) {
        const std::size_t pick = rng.next_below(removed.size());
        const NodeId id = removed[pick];
        removed.erase(removed.begin() + static_cast<std::ptrdiff_t>(pick));
        if (present.count(id) == 0) put(id);  // re-put after eviction
      } else if (op < 70 && !present.empty()) {
        auto it = present.begin();
        std::advance(it, rng.next_below(present.size()));
        const NodeId id = it->first;
        memo.erase(id);
        tombstone(id);
      } else if (op < 90) {
        std::vector<NodeId> released;
        for (const auto& [id, seq] : present) {
          if (rng.next_below(3) == 0) released.push_back(id);
        }
        if (op < 85) {
          memo.erase_released(released);
        } else {
          std::unordered_set<NodeId> keep;
          for (const auto& [id, seq] : present) keep.insert(id);
          for (const NodeId id : released) keep.erase(id);
          memo.retain_only(keep);
        }
        for (const NodeId id : released) {
          present.erase(id);
          gc_released.insert(id);
          removed.push_back(id);
        }
        check(step);
        if (::testing::Test::HasFatalFailure()) return;
      } else {
        put(next_id++);
      }
    }
  }
  EXPECT_GT(cleaned.value(), cleaned_before);
}

// A rotating-tree manifest whose pending install names bucket slot `slot`
// of two: the split-processing residue a background phase would install.
void write_rotating_manifest(const std::string& manifest, std::uint64_t slot) {
  const CombineFn combiner = testing::sum_combiner();
  Rng rng(3);
  const auto a = testing::random_leaf(0, rng, combiner).table;
  const auto b = testing::random_leaf(1, rng, combiner).table;
  const auto fresh = testing::random_leaf(2, rng, combiner).table;
  const auto root = std::make_shared<const KVTable>(
      KVTable::merge(*a, *b, combiner));
  durability::CheckpointWriter writer;
  std::string& blob = writer.blob();
  wire::put_u64(blob, 2);  // buckets
  wire::put_u64(blob, 0);  // next victim
  wire::put_u64(blob, 2);  // window splits
  wire::put_u32(blob, 2);  // levels: two bucket slots, one root
  wire::put_u32(blob, 2);
  writer.put_node(11, a.get());
  wire::put_u64(blob, 1);
  writer.put_node(12, b.get());
  wire::put_u64(blob, 1);
  wire::put_u32(blob, 1);
  writer.put_node(13, root.get());
  wire::put_u64(blob, 0);
  wire::put_u8(blob, 1);  // pending install
  wire::put_u64(blob, slot);
  writer.put_node(14, fresh.get());
  wire::put_u64(blob, 1);
  wire::put_u8(blob, 1);  // intermediate, computed for victim 1
  wire::put_u64(blob, 1);
  writer.put_node(11, a.get());
  ASSERT_TRUE(writer.write_manifest(manifest));
}

// The next apply_delta or background phase installs the pending bucket at
// its slot index: restore must reject an index past the live buckets
// instead of letting that install write out of range.
TEST_F(DurabilityTest, RotatingRestoreRejectsPendingInstallOutOfRange) {
  MemoContext ctx;
  ctx.job_hash = 0xB0B;
  TreeOptions options;
  options.kind = TreeKind::kRotating;
  options.split_processing = true;
  for (const std::uint64_t slot : {1u, 2u, 7u}) {
    SCOPED_TRACE(slot);
    const std::string manifest = path("rotating.slckpt");
    write_rotating_manifest(manifest, slot);
    auto reader = durability::CheckpointReader::open(manifest, nullptr);
    ASSERT_NE(reader, nullptr);
    auto tree = make_tree(options, ctx, testing::sum_combiner());
    const bool restored = tree->restore(*reader);
    EXPECT_EQ(restored, slot < 2);
    if (restored) {
      TreeUpdateStats stats;
      tree->background_preprocess(&stats);  // installs into slot 1
      EXPECT_EQ(tree->leaf_count(), 2u);
    }
  }
}

TEST_F(DurabilityTest, RestoreRejectsWrongJobOrMissingManifest) {
  const auto bench = apps::make_microbenchmark(apps::MicroApp::kHct);
  const auto other = apps::make_microbenchmark(apps::MicroApp::kKMeans);
  ClusterConfig cluster_config{.num_machines = 4, .slots_per_machine = 2};
  CostModel cost;
  Cluster cluster(cluster_config);
  VanillaEngine engine(cluster, cost);
  SliderConfig config;

  MemoStore memo(cluster, cost);
  SliderSession session(engine, memo, bench.job, config);
  Rng rng(5);
  auto records = apps::generate_input(apps::MicroApp::kHct, 60, rng, 0);
  session.initial_run(make_splits(std::move(records), 20, 0));
  ASSERT_TRUE(session.checkpoint(path("ckpt")));

  MemoStore other_memo(cluster, cost);
  SliderSession wrong_job(engine, other_memo, other.job, config);
  EXPECT_FALSE(wrong_job.restore(path("ckpt")));

  MemoStore fresh_memo(cluster, cost);
  SliderSession no_manifest(engine, fresh_memo, bench.job, config);
  EXPECT_FALSE(no_manifest.restore(path("nonexistent")));
}

// A manifest names durably persisted nodes by reference, so checkpoint()
// fsyncs each replica's active segment before it publishes the manifest:
// else a power cut under kOnRotate could keep the renamed manifest and
// lose the records it names. kNever (every bench tier) syncs nothing. The
// manifest's own fsync is not a log fsync and is not counted.
TEST_F(DurabilityTest, CheckpointSyncsTheLogBeforeTheManifest) {
  using durability::FsyncPolicy;
  const auto bench = apps::make_microbenchmark(apps::MicroApp::kHct);
  ClusterConfig cluster_config{.num_machines = 4, .slots_per_machine = 2};
  CostModel cost;
  Cluster cluster(cluster_config);
  VanillaEngine engine(cluster, cost);
  obs::Counter& fsyncs =
      obs::StatsRegistry::global().counter("durability.fsyncs");
  for (const FsyncPolicy policy :
       {FsyncPolicy::kOnRotate, FsyncPolicy::kNever}) {
    const std::string name =
        policy == FsyncPolicy::kOnRotate ? "on_rotate" : "never";
    SCOPED_TRACE(name);
    DurableTierOptions options;
    options.log.fsync = policy;
    DurableTier tier(path("memo_" + name), options);
    MemoStore memo(cluster, cost);
    memo.attach_durable_tier(&tier);
    SliderSession session(engine, memo, bench.job, SliderConfig{});
    Rng rng(5);
    auto records = apps::generate_input(apps::MicroApp::kHct, 60, rng, 0);
    session.initial_run(make_splits(std::move(records), 20, 0));
    std::unordered_set<NodeId> live;
    session.collect_live_ids(live);
    ASSERT_FALSE(live.empty());
    ASSERT_TRUE(memo.persisted_durably(*live.begin()))
        << "the manifest must name nodes by reference";

    const std::uint64_t before = fsyncs.value();
    ASSERT_TRUE(session.checkpoint(path("ckpt_" + name)));
    const std::uint64_t synced = fsyncs.value() - before;
    if (policy == FsyncPolicy::kOnRotate) {
      EXPECT_GE(synced, durability::kDurableReplicas);
    } else {
      EXPECT_EQ(synced, 0u);
    }
  }
}

}  // namespace
}  // namespace slider
