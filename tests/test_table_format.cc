// Pins the KVTable wire format: a table's buffer is its serialized form,
// so these bytes are what memo entries, durable logs and checkpoints hold.
// The golden bytes and hashes were computed from the row-vector tables
// that preceded the one-buffer layout; content hashes (and so node ids)
// must not move. The CRC32C of each buffer, which the memo store checks on
// every read, was computed with a bit-at-a-time reference, so the suite
// holds whichever CRC backend the build dispatches to.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "common/rng.h"
#include "data/record.h"
#include "data/serde.h"

namespace slider {
namespace {

std::string hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xf]);
  }
  return out;
}

// Associative but not commutative, so a merge that swapped its sides
// would show.
std::string concat(const std::string&, const std::string& a,
                   const std::string& b) {
  return a + b;
}

struct Golden {
  const char* name;
  std::vector<Record> rows;
  const char* bytes_hex;
  std::uint64_t hash;
  std::uint32_t crc;
};

TEST(TableFormat, GoldenBytesAndHashes) {
  const std::vector<Golden> goldens = {
      {"empty", {}, "00000000", 0x14650fb0739d0383ull, 0x48674bc7u},
      {"empty key",
       {{"", "v"}},
       "01000000000000000100000076",
       0xdbdef35cfe0fe71cull,
       0xe3a141c8u},
      {"empty value",
       {{"k", ""}},
       "01000000010000006b00000000",
       0x14c974bcc454052cull,
       0xd91a2f55u},
      {"nul bytes",
       {{std::string("a\0b", 3), std::string("\0", 1)}},
       "01000000030000006100620100000000",
       0x03ab37fbf19669a4ull,
       0xd5bfbac1u},
      {"high bytes",
       {{"\xff\xfe", "\x80\x7f"}},
       "0100000002000000fffe02000000807f",
       0xee898d23d1714c97ull,
       0xd75c2c45u},
      {"key past 15 bytes",
       {{"a-key-longer-than-fifteen-bytes",
         "value past the small-string buffer"}},
       "010000001f000000612d6b65792d6c6f6e6765722d7468616e2d6669667465656e2d"
       "62797465732200000076616c756520706173742074686520736d616c6c2d73747269"
       "6e6720627566666572",
       0x5d9346b334e61fc6ull,
       0x385d2e1cu},
      {"mixed",
       {{"", ""},
        {std::string("\0", 1), "x"},
        {"b", std::string("\0\xff", 2)},
        {"key-of-exactly-16", "1"},
        {"\xc3\x28", "high"}},
       "050000000000000000000000010000000001000000780100000062020000000"
       "0ff110000006b65792d6f662d65786163746c792d3136010000003102000000c32"
       "80400000068696768",
       0x6e2e3e11963b0d78ull,
       0x7ec55c15u},
  };
  for (const Golden& g : goldens) {
    const KVTable t = KVTable::from_records(g.rows, concat);
    EXPECT_EQ(hex(t.bytes()), g.bytes_hex) << g.name;
    EXPECT_EQ(t.content_hash(), g.hash) << g.name;
    EXPECT_EQ(crc32c(t.bytes()), g.crc) << g.name;
    EXPECT_EQ(serialize_table(t), t.bytes()) << g.name;
    EXPECT_EQ(t.byte_size(), t.bytes().size() - 4) << g.name;
    // The rows read back as views of the same bytes.
    ASSERT_EQ(t.size(), g.rows.size()) << g.name;
    const auto back = deserialize_table(t.bytes());
    ASSERT_TRUE(back.has_value()) << g.name;
    EXPECT_EQ(back->content_hash(), g.hash) << g.name;
  }
  EXPECT_EQ(hex(KVTable().bytes()), "00000000");
  EXPECT_EQ(KVTable().content_hash(), 0x14650fb0739d0383ull);
}

// A key or value of one of the shapes the golden test pins: empty, a NUL
// byte, high bytes, short, or past the 15-byte small-string buffer.
std::string random_bytes(Rng& rng) {
  switch (rng.next_below(6)) {
    case 0:
      return "";
    case 1:
      return std::string("\0", 1) + static_cast<char>('a' + rng.next_below(4));
    case 2:
      return std::string(1 + rng.next_below(3),
                         static_cast<char>(0x80 + rng.next_below(128)));
    case 3:
      return std::string(1, static_cast<char>('a' + rng.next_below(8)));
    default: {
      std::string s(16 + rng.next_below(24), 'k');
      s.back() = static_cast<char>('a' + rng.next_below(8));
      return s;
    }
  }
}

std::vector<Record> random_records(Rng& rng) {
  std::vector<Record> rows(rng.next_below(24));
  for (Record& r : rows) {
    r.key = random_bytes(rng);
    r.value = random_bytes(rng);
  }
  return rows;
}

// serde's table format written row by row, for the malformed shapes.
std::string encode(const std::vector<Record>& rows) {
  std::string out;
  wire::put_u32(out, static_cast<std::uint32_t>(rows.size()));
  for (const Record& r : rows) {
    wire::put_bytes(out, r.key);
    wire::put_bytes(out, r.value);
  }
  return out;
}

TEST(TableFormat, PropertyMergeRoundTripAndRejections) {
  Rng rng(0x7AB1E);
  for (int iter = 0; iter < 400; ++iter) {
    const std::vector<Record> a_rows = random_records(rng);
    const std::vector<Record> b_rows = random_records(rng);
    const KVTable a = KVTable::from_records(a_rows, concat);
    const KVTable b = KVTable::from_records(b_rows, concat);

    // Merging folds a's value before b's, as a stable sort of a's rows
    // followed by b's does.
    std::vector<Record> both = a_rows;
    both.insert(both.end(), b_rows.begin(), b_rows.end());
    MergeStats stats;
    const KVTable merged = KVTable::merge(a, b, concat, &stats);
    EXPECT_EQ(merged, KVTable::from_records(both, concat)) << iter;
    EXPECT_EQ(stats.rows_scanned, a.size() + b.size());
    EXPECT_EQ(merged.size() + stats.combines_applied, a.size() + b.size());

    // The buffer is the serialized form, so a round trip is the identity,
    // and the rows are views of it.
    for (const KVTable* t : {&a, &b, &merged}) {
      const auto back = deserialize_table(serialize_table(*t));
      ASSERT_TRUE(back.has_value()) << iter;
      EXPECT_EQ(*back, *t) << iter;
      EXPECT_EQ(back->content_hash(), t->content_hash()) << iter;
      std::vector<Record> rows;
      for (const RowView r : back->rows()) {
        rows.push_back({std::string(r.key), std::string(r.value)});
      }
      EXPECT_EQ(encode(rows), t->bytes()) << iter;
      for (const Record& r : rows) {
        const auto found = t->find(r.key);
        ASSERT_TRUE(found.has_value()) << iter;
        EXPECT_EQ(found->value, r.value) << iter;
      }
    }

    // Every malformed shape is rejected.
    const std::string& bytes = merged.bytes();
    const std::size_t cut = rng.next_below(bytes.size());
    EXPECT_FALSE(deserialize_table(bytes.substr(0, cut))) << "truncated";
    EXPECT_FALSE(deserialize_table(bytes + '\0')) << "trailing byte";
    std::string overcount = bytes;
    const auto too_many =
        static_cast<std::uint32_t>((bytes.size() - 4) / 8 + 1);
    overcount.replace(0, 4, encode(std::vector<Record>(too_many)).substr(0, 4));
    EXPECT_FALSE(deserialize_table(overcount)) << "count above bytes/8";
    if (merged.size() >= 2) {
      const RowView first = merged.rows()[0];
      const RowView second = merged.rows()[1];
      const Record r0{std::string(first.key), std::string(first.value)};
      const Record r1{std::string(second.key), std::string(second.value)};
      EXPECT_FALSE(deserialize_table(encode({r1, r0}))) << "out of order";
      EXPECT_FALSE(deserialize_table(encode({r0, r0}))) << "duplicate key";
    }
  }
}

}  // namespace
}  // namespace slider
