// Unit tests for the data module: KVTable semantics, serde round-trips,
// splits, and the text generator.

#include <gtest/gtest.h>

#include "data/record.h"
#include "data/serde.h"
#include "data/split.h"
#include "data/text_gen.h"
#include "tests/test_util.h"

namespace slider {
namespace {

using testing::sum_combiner;

TEST(KVTable, FromRecordsSortsAndCombines) {
  const KVTable t = KVTable::from_records(
      {{"b", "1"}, {"a", "2"}, {"b", "3"}, {"a", "4"}}, sum_combiner());
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t.rows()[0].key, "a");
  EXPECT_EQ(t.rows()[0].value, "6");
  EXPECT_EQ(t.rows()[1].key, "b");
  EXPECT_EQ(t.rows()[1].value, "4");
}

TEST(KVTable, MergeCombinesEqualKeys) {
  const KVTable a =
      KVTable::from_records({{"a", "1"}, {"c", "2"}}, sum_combiner());
  const KVTable b =
      KVTable::from_records({{"b", "5"}, {"c", "7"}}, sum_combiner());
  MergeStats stats;
  const KVTable m = KVTable::merge(a, b, sum_combiner(), &stats);
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(m.find("a")->value, "1");
  EXPECT_EQ(m.find("b")->value, "5");
  EXPECT_EQ(m.find("c")->value, "9");
  EXPECT_FALSE(m.find("d").has_value());
  EXPECT_EQ(stats.rows_scanned, 4u);
  EXPECT_EQ(stats.combines_applied, 1u);
}

TEST(KVTable, MergeWithEmpty) {
  const KVTable a = KVTable::from_records({{"x", "1"}}, sum_combiner());
  const KVTable empty;
  EXPECT_EQ(KVTable::merge(a, empty, sum_combiner()), a);
  EXPECT_EQ(KVTable::merge(empty, a, sum_combiner()), a);
  EXPECT_TRUE(KVTable::merge(empty, empty, sum_combiner()).empty());
}

TEST(KVTable, ContentHashEqualIffEqual) {
  const KVTable a = KVTable::from_records({{"a", "1"}, {"b", "2"}},
                                          sum_combiner());
  const KVTable same = KVTable::from_records({{"b", "2"}, {"a", "1"}},
                                             sum_combiner());
  const KVTable different = KVTable::from_records({{"a", "1"}, {"b", "3"}},
                                                  sum_combiner());
  EXPECT_EQ(a.content_hash(), same.content_hash());
  EXPECT_NE(a.content_hash(), different.content_hash());
}

TEST(KVTable, ByteSizeTracksContent) {
  const KVTable small = KVTable::from_records({{"k", "v"}}, sum_combiner());
  const KVTable big = KVTable::from_records(
      {{"key-with-some-length", std::string(100, 'x')}}, sum_combiner());
  EXPECT_LT(small.byte_size(), big.byte_size());
  EXPECT_EQ(KVTable().byte_size(), 0u);
}

TEST(Serde, RoundTrip) {
  const KVTable t = KVTable::from_records(
      {{"alpha", "1"}, {"beta", "hello world"}, {"gamma", ""}},
      sum_combiner());
  const std::string bytes = serialize_table(t);
  const auto back = deserialize_table(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, t);
}

TEST(Serde, RoundTripEmpty) {
  const auto back = deserialize_table(serialize_table(KVTable()));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->empty());
}

TEST(Serde, RejectsCorruptInput) {
  const KVTable t = KVTable::from_records({{"a", "1"}, {"b", "2"}},
                                          sum_combiner());
  std::string bytes = serialize_table(t);
  EXPECT_FALSE(deserialize_table(bytes.substr(0, bytes.size() - 1)));
  EXPECT_FALSE(deserialize_table(bytes + "x"));
  EXPECT_FALSE(deserialize_table(""));
  // Flip the record count upward: truncation must be detected.
  bytes[0] = 9;
  EXPECT_FALSE(deserialize_table(bytes));
}

TEST(Serde, PropertyRoundTripAcrossSizes) {
  // Property: deserialize(serialize(t)) == t for tables of widely varying
  // shapes — empty, singleton, power-of-two edges, and a few hundred rows
  // of random sizes.
  Rng rng(0xD15C);
  for (const std::size_t rows :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{31},
        std::size_t{32}, std::size_t{257}}) {
    std::vector<Record> records;
    records.reserve(rows);
    for (std::size_t i = 0; i < rows; ++i) {
      std::string key = "k" + std::to_string(i);
      std::string value(rng.next_below(64), 'v');
      records.push_back({std::move(key), std::move(value)});
    }
    const KVTable t =
        KVTable::from_records(std::move(records), sum_combiner());
    const std::string bytes = serialize_table(t);
    const auto back = deserialize_table(bytes);
    ASSERT_TRUE(back.has_value()) << rows << " rows";
    EXPECT_EQ(*back, t) << rows << " rows";
    // And the serialized form itself is stable (no hidden state).
    EXPECT_EQ(serialize_table(*back), bytes) << rows << " rows";
  }
}

TEST(Serde, PropertyRoundTripArbitraryBytes) {
  // Keys and values are raw byte strings, not text: embedded NULs, high
  // bytes, and invalid UTF-8 must all survive the round trip.
  Rng rng(0xB17E5);
  std::vector<Record> records;
  for (int i = 0; i < 64; ++i) {
    std::string key;
    std::string value;
    const std::size_t key_len = 1 + rng.next_below(24);
    const std::size_t value_len = rng.next_below(128);
    for (std::size_t b = 0; b < key_len; ++b) {
      key.push_back(static_cast<char>(rng.next_below(256)));
    }
    for (std::size_t b = 0; b < value_len; ++b) {
      value.push_back(static_cast<char>(rng.next_below(256)));
    }
    records.push_back({std::move(key), std::move(value)});
  }
  records.push_back({std::string("\x00\x00", 2), std::string("\xff\xfe", 2)});
  records.push_back({std::string("\xc3\x28", 2), ""});  // invalid UTF-8
  const KVTable t = KVTable::from_records(
      std::move(records), [](const std::string&, const std::string& a,
                             const std::string& b) { return a + b; });
  const auto back = deserialize_table(serialize_table(t));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, t);
}

TEST(Serde, WirePrimitivesRoundTrip) {
  // The wire primitives carry both the memo format and the durability
  // formats; check the full value range edges round-trip.
  std::string buffer;
  wire::put_u8(buffer, 0);
  wire::put_u8(buffer, 0xFF);
  wire::put_u32(buffer, 0);
  wire::put_u32(buffer, 0xFFFFFFFFu);
  wire::put_u64(buffer, 0);
  wire::put_u64(buffer, 0xFFFFFFFFFFFFFFFFull);
  wire::put_u64(buffer, 0x0123456789ABCDEFull);
  wire::put_bytes(buffer, std::string("\x00pay\xffload", 9));
  wire::put_bytes(buffer, "");

  std::string_view in = buffer;
  std::uint8_t u8 = 1;
  std::uint32_t u32 = 1;
  std::uint64_t u64 = 1;
  std::string bytes;
  ASSERT_TRUE(wire::get_u8(in, &u8));
  EXPECT_EQ(u8, 0u);
  ASSERT_TRUE(wire::get_u8(in, &u8));
  EXPECT_EQ(u8, 0xFFu);
  ASSERT_TRUE(wire::get_u32(in, &u32));
  EXPECT_EQ(u32, 0u);
  ASSERT_TRUE(wire::get_u32(in, &u32));
  EXPECT_EQ(u32, 0xFFFFFFFFu);
  ASSERT_TRUE(wire::get_u64(in, &u64));
  EXPECT_EQ(u64, 0u);
  ASSERT_TRUE(wire::get_u64(in, &u64));
  EXPECT_EQ(u64, 0xFFFFFFFFFFFFFFFFull);
  ASSERT_TRUE(wire::get_u64(in, &u64));
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  ASSERT_TRUE(wire::get_bytes(in, &bytes));
  EXPECT_EQ(bytes, std::string("\x00pay\xffload", 9));
  ASSERT_TRUE(wire::get_bytes(in, &bytes));
  EXPECT_TRUE(bytes.empty());
  EXPECT_TRUE(in.empty());

  // Truncated reads fail without consuming.
  std::string short_buf;
  wire::put_u32(short_buf, 7);
  std::string_view short_in(short_buf.data(), 2);
  EXPECT_FALSE(wire::get_u32(short_in, &u32));
  EXPECT_EQ(short_in.size(), 2u);
}

TEST(Serde, SerializedSizeMatchesByteSizeModel) {
  const KVTable t = KVTable::from_records(
      {{"alpha", "12345"}, {"beta", "xy"}}, sum_combiner());
  // byte_size() is the per-record payload+framing; the wire adds one
  // 4-byte count header.
  EXPECT_EQ(serialize_table(t).size(), t.byte_size() + 4);
}

TEST(Splits, ChopsRecordsEvenly) {
  std::vector<Record> records;
  for (int i = 0; i < 10; ++i) {
    records.push_back({std::to_string(i), "v"});
  }
  const auto splits = make_splits(std::move(records), 4, 100);
  ASSERT_EQ(splits.size(), 3u);
  EXPECT_EQ(splits[0]->id, 100u);
  EXPECT_EQ(splits[0]->records.size(), 4u);
  EXPECT_EQ(splits[2]->records.size(), 2u);  // remainder
  EXPECT_GT(splits[0]->byte_size, 0u);
}

TEST(TextGenerator, DeterministicZipfianDocuments) {
  TextGenerator a;
  TextGenerator b;
  EXPECT_EQ(a.next_document(), b.next_document());

  TextGenOptions options;
  options.words_per_document = 25;
  TextGenerator gen(options);
  const auto docs = gen.documents(10);
  ASSERT_EQ(docs.size(), 10u);
  EXPECT_EQ(docs[0].key, "0000000000");
  for (const Record& doc : docs) {
    EXPECT_EQ(std::count(doc.value.begin(), doc.value.end(), ' '), 24);
  }
}

TEST(TextGenerator, WordSpellingIsInjectiveForSmallRanks) {
  std::set<std::string> words;
  for (std::uint64_t rank = 0; rank < 1000; ++rank) {
    words.insert(TextGenerator::word_for_rank(rank));
  }
  EXPECT_EQ(words.size(), 1000u);
}

}  // namespace
}  // namespace slider
