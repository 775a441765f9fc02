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
#include <memory>
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
using durability::SegmentLog;
using durability::SegmentLogOptions;

// Fresh scratch directory per test, removed on teardown.
class DurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("slider_durability_") + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& sub = "") const {
    return sub.empty() ? dir_.string() : (dir_ / sub).string();
  }

  fs::path dir_;
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

TEST_F(DurabilityTest, CompactionKeepsNewestLivePutOnly) {
  SegmentLog log(path());
  ASSERT_TRUE(log.append(LogRecordType::kPut, 1, 100, "stale"));
  ASSERT_TRUE(log.append(LogRecordType::kPut, 2, 100, "fresh"));
  ASSERT_TRUE(log.append(LogRecordType::kPut, 3, 200, "dead"));
  ASSERT_TRUE(log.append(LogRecordType::kPut, 4, 300, "erased"));
  ASSERT_TRUE(log.append(LogRecordType::kTombstone, 5, 300, ""));
  const auto result = log.compact({100});
  EXPECT_LT(result.bytes_after, result.bytes_before);
  EXPECT_EQ(result.records_dropped, 4u);
  // The log keeps accepting appends after compaction.
  ASSERT_TRUE(log.append(LogRecordType::kPut, 6, 400, "post-compact"));
  log.close();

  const auto records = scan_all(path(), nullptr);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].key, 100u);
  EXPECT_EQ(records[0].payload, "fresh");
  EXPECT_EQ(records[0].seq, 2u);  // original seq preserved
  EXPECT_EQ(records[1].payload, "post-compact");
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
    options.compact_after_bytes = 0;
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

TEST_F(DurabilityTest, ScrubberAbandonsPassWhenTierMutates) {
  DurableTier tier(path());
  std::unordered_set<durability::LogKey> live;
  for (std::uint64_t k = 1; k <= 10; ++k) {
    ASSERT_EQ(tier.put(k, k, "pppppppp"), 2u);
    live.insert(k);
  }
  IntegrityScrubber scrubber(tier);
  scrubber.scrub_slice(2);  // pass now mid-flight
  tier.compact(live);       // replaces segment files, bumps mutation_epoch
  const ScrubStats slice = scrubber.scrub_slice(1000);
  EXPECT_EQ(slice.passes_abandoned, 1u);
  EXPECT_EQ(slice.full_passes, 1u);  // restarted and completed post-compact
  EXPECT_EQ(scrubber.stats().passes_abandoned, 1u);
  EXPECT_EQ(scrubber.stats().corruptions_detected, 0u);
  EXPECT_TRUE(scrubber.stats().conserved());
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
  store.set_verify_checksums(true);
  Rng rng(6);
  const auto leaf = testing::random_leaf(1, rng, combiner);
  const auto wrong = testing::random_leaf(2, rng, combiner);
  store.put(42, leaf.table);

  // Swap the in-memory copy for a wrong table, leaving the stored
  // checksum stale: the verified read drops the poisoned copy and serves
  // the (independently verified) persistent bytes.
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
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("slider_ckpt_") +
            session_case_name(::testing::TestParamInfo<SessionCase>(
                GetParam(), 0)) +
            "_" + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
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

  const std::string ckpt_dir = (dir_ / "checkpoint").string();
  const std::string tier_dir = (dir_ / "memo").string();
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
// a pre-crash GC dropped and compaction had not yet rewritten away. Only
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
    // No compaction: the log keeps every entry the GC dropped.
    DurableTierOptions no_compaction;
    no_compaction.compact_after_bytes = 0;
    DurableTier tier(tier_dir, no_compaction);
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
