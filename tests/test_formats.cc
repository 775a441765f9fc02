// Golden bytes of the on-disk formats: segment-log frames (as appended and
// as the cleaner copies them forward), a checkpoint manifest and a post-mortem
// frame. Any change to how these files are laid out shows up here as an
// edit of the expected hex, never as a silent drift between writer and
// reader.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "data/serde.h"
#include "durability/checkpoint.h"
#include "durability/segment_log.h"
#include "observability/postmortem.h"
#include "tests/test_util.h"

namespace slider {
namespace {

namespace fs = std::filesystem;
using durability::LogRecordType;
using durability::SegmentLog;
using testing::live_set;
using testing::sum_combiner;

class GoldenFormats : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("slider_golden_") + info->name() + "_" +
            std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

std::string hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

std::string file_hex(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return hex(bytes.str());
}

std::vector<std::string> segment_names(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& segment : SegmentLog::list_segments(dir)) {
    names.push_back(fs::path(segment).filename().string());
  }
  return names;
}

// One put and one tombstone: [u32 body_len][u32 crc32c(body)] then
// body = [u8 type][u64 seq][u64 key][payload], all little-endian.
constexpr char kPutThenTombstone[] =
    // put: body_len 22, crc, type 1, seq 1, key 0x2a, "hello"
    "16000000" "90d79b58" "01" "0100000000000000" "2a00000000000000"
    "68656c6c6f"
    // tombstone: body_len 17, crc, type 2, seq 2, key 0x07, no payload
    "11000000" "5e73897e" "02" "0200000000000000" "0700000000000000";
// Cleaning copies only the put forward (the tombstone shadows no put).
constexpr char kPutCompacted[] =
    "16000000" "90d79b58" "01" "0100000000000000" "2a00000000000000"
    "68656c6c6f";

TEST_F(GoldenFormats, SegmentLogPutTombstoneAndCompaction) {
  const std::string dir = path("log");
  SegmentLog log(dir);
  ASSERT_TRUE(log.append(LogRecordType::kPut, /*seq=*/1, /*key=*/0x2A,
                         "hello"));
  ASSERT_TRUE(log.append(LogRecordType::kTombstone, /*seq=*/2, /*key=*/0x07,
                         {}));
  log.flush();
  ASSERT_EQ(segment_names(dir), std::vector<std::string>{"seg-000001.slog"});
  EXPECT_EQ(file_hex(dir + "/seg-000001.slog"), kPutThenTombstone);

  log.rotate_now();
  log.clean(0, live_set({{0x2A, 1}}));
  log.close();
  ASSERT_EQ(segment_names(dir), std::vector<std::string>{"seg-000002.slog"});
  EXPECT_EQ(file_hex(dir + "/seg-000002.slog"), kPutCompacted);
}

// Live puts are copied forward in log order, each at its original seq; the
// stale put of key 3 and the dead put of key 4 are dropped, and key 4's
// tombstone rides along because this clean dropped the put it shadows.
constexpr char kCopiedForwardInLogOrder[] =
    // key 9, seq 1, "nine"
    "15000000" "fc34c39e" "01" "0100000000000000" "0900000000000000"
    "6e696e65"
    // key 5, seq 3, "five"
    "15000000" "e80d74ef" "01" "0300000000000000" "0500000000000000"
    "66697665"
    // key 3, seq 4, "three"
    "16000000" "03000c52" "01" "0400000000000000" "0300000000000000"
    "7468726565"
    // tombstone: key 4, seq 6
    "11000000" "dc58c963" "02" "0600000000000000" "0400000000000000";

TEST_F(GoldenFormats, CleanerCopiesLivePutsForwardInLogOrder) {
  const std::string dir = path("log");
  SegmentLog log(dir);
  ASSERT_TRUE(log.append(LogRecordType::kPut, 1, 9, "nine"));
  ASSERT_TRUE(log.append(LogRecordType::kPut, 2, 3, "three-old"));
  ASSERT_TRUE(log.append(LogRecordType::kPut, 3, 5, "five"));
  ASSERT_TRUE(log.append(LogRecordType::kPut, 4, 3, "three"));
  ASSERT_TRUE(log.append(LogRecordType::kPut, 5, 4, "four"));
  ASSERT_TRUE(log.append(LogRecordType::kTombstone, 6, 4, {}));
  log.rotate_now();
  log.clean(0, live_set({{9, 1}, {5, 3}, {3, 4}}));
  log.close();
  ASSERT_EQ(segment_names(dir), std::vector<std::string>{"seg-000002.slog"});
  EXPECT_EQ(file_hex(dir + "/seg-000002.slog"), kCopiedForwardInLogOrder);
}

// "SLIDRCKP" [u32 version][u32 crc32c(blob)][u64 blob_size][blob], the
// blob holding a u64, an inline node (marker 2 + serialized table) and a
// null node (marker 0).
constexpr char kManifest[] =
    // magic "SLIDRCKP", version 2, crc, blob_size 55
    "534c494452434b50" "02000000" "c287151b" "3700000000000000"
    // u64 0x0123456789abcdef
    "efcdab8967452301"
    // node id 5, marker 2 (inline), u32 len 25, table {a:1, b:22}
    "0500000000000000" "02" "19000000" "02000000" "01000000" "61"
    "01000000" "31" "01000000" "62" "02000000" "3232"
    // node id 6, marker 0 (null)
    "0600000000000000" "00";

TEST_F(GoldenFormats, CheckpointManifest) {
  durability::CheckpointWriter writer;
  wire::put_u64(writer.blob(), 0x0123456789ABCDEFull);
  const KVTable table =
      KVTable::from_records({{"a", "1"}, {"b", "22"}}, sum_combiner());
  writer.put_node(5, &table);
  writer.put_node(6, nullptr);
  const std::string manifest = path("golden.slckpt");
  ASSERT_TRUE(writer.write_manifest(manifest));
  EXPECT_EQ(file_hex(manifest), kManifest);
  EXPECT_FALSE(fs::exists(manifest + ".tmp"));

  auto reader = durability::CheckpointReader::open(manifest, nullptr);
  ASSERT_NE(reader, nullptr);
  std::uint64_t word = 0;
  ASSERT_TRUE(reader->get_u64(&word));
  EXPECT_EQ(word, 0x0123456789ABCDEFull);
}

// "SLIDRPMJ" [u32 version][u32 crc32c(json)][u64 json_size][json].
constexpr char kPostmortem[] =
    // magic "SLIDRPMJ", version 1, crc, json_size 31
    "534c494452504d4a" "01000000" "0d993c62" "1f00000000000000"
    // {"reason":"golden","faults":[]}
    "7b22726561736f6e223a22676f6c64656e222c226661756c7473223a5b5d7d";

TEST_F(GoldenFormats, PostmortemFrame) {
  const std::string json = R"({"reason":"golden","faults":[]})";
  const std::string frame = obs::frame_postmortem(json);
  EXPECT_EQ(hex(frame), kPostmortem);

  const std::string dump = path("golden.pm.json");
  {
    std::ofstream out(dump, std::ios::binary);
    out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  }
  const auto file = obs::read_postmortem(dump);
  ASSERT_TRUE(file.has_value());
  EXPECT_EQ(file->json, json);
}

}  // namespace
}  // namespace slider
