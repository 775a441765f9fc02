// Unit tests for common utilities: hashing, the key index, RNG, string
// helpers, metrics.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/key_index.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/string_util.h"

namespace slider {
namespace {

TEST(Hash, StableAcrossCalls) {
  EXPECT_EQ(hash_string("slider"), hash_string("slider"));
  EXPECT_NE(hash_string("slider"), hash_string("slidef"));
  EXPECT_NE(hash_string(""), hash_string(std::string_view("\0", 1)));
}

TEST(Hash, CombineIsOrderSensitive) {
  const std::uint64_t a = hash_string("a");
  const std::uint64_t b = hash_string("b");
  EXPECT_NE(hash_combine(a, b), hash_combine(b, a));
}

TEST(Hash, Mix64Disperses) {
  // Consecutive inputs must land far apart (avalanche sanity check).
  std::set<std::uint64_t> high_bytes;
  for (std::uint64_t i = 0; i < 64; ++i) {
    high_bytes.insert(mix64(i) >> 56);
  }
  EXPECT_GT(high_bytes.size(), 32u);
}

// The owner side of a KeyIndex, as the Emitter and the flat tier keep it:
// keys in a vector, the index holding positions into it.
struct IndexedKeys {
  std::uint32_t insert(std::uint64_t hash, const std::string& key) {
    const auto next = static_cast<std::uint32_t>(keys.size());
    const std::uint32_t got = index.insert(
        hash, next, [&](std::uint32_t k) { return keys[k] == key; });
    if (got == next) keys.push_back(key);
    return got;
  }
  std::uint32_t find(std::uint64_t hash, const std::string& key) const {
    return index.find(hash,
                      [&](std::uint32_t k) { return keys[k] == key; });
  }
  std::vector<std::string> keys;
  KeyIndex index;
};

TEST(KeyIndex, DistinctKeysOnOneHashStayDistinct) {
  // The caller supplies the hash, so every key here collides. 100 keys
  // also force two doublings, which must re-place slots by their stored
  // tag: re-hashing the strings would strand them.
  constexpr std::uint64_t kHash = 0x9e3779b97f4a7c15ull;
  // Another tag: the top 32 bits differ.
  constexpr std::uint64_t kOtherTag = kHash ^ (std::uint64_t{1} << 40);
  IndexedKeys t;
  EXPECT_EQ(t.find(kHash, "k0"), KeyIndex::kAbsent);
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(t.insert(kHash, "k" + std::to_string(i)), i);
  }
  for (std::uint32_t i = 0; i < 100; ++i) {
    const std::string key = "k" + std::to_string(i);
    EXPECT_EQ(t.find(kHash, key), i);
    EXPECT_EQ(t.insert(kHash, key), i) << "a present key is not re-recorded";
    EXPECT_EQ(t.find(kOtherTag, key), KeyIndex::kAbsent)
        << "the tag is compared before the key";
  }
  EXPECT_EQ(t.find(kHash, "k100"), KeyIndex::kAbsent);
  EXPECT_EQ(t.keys.size(), 100u);

  t.index.clear();
  EXPECT_EQ(t.find(kHash, "k0"), KeyIndex::kAbsent);
  t.keys.clear();
  EXPECT_EQ(t.insert(kHash, "k5"), 0u);
  EXPECT_EQ(t.find(kHash, "k5"), 0u);
}

TEST(KeyIndex, FindsEveryKeyAfterEachDoubling) {
  // The empty key, keys with an embedded NUL, keys with high bytes and
  // keys past the small-string buffer, 120k in all.
  const auto key_of = [](std::uint32_t id) {
    switch (id % 4) {
      case 0:
        return id == 0 ? std::string() : std::to_string(id);
      case 1:
        return std::string("\0k", 2) + std::to_string(id);
      case 2:
        return std::string("\xff\x80") + std::to_string(id);
      default:
        return "a-key-longer-than-fifteen-bytes/" + std::to_string(id);
    }
  };
  IndexedKeys t;
  constexpr std::uint32_t kKeys = 120'000;
  std::uint32_t doublings = 0;
  for (std::uint32_t i = 0; i < kKeys; ++i) {
    const std::string key = key_of(i);
    ASSERT_EQ(t.insert(hash_string(key), key), i);
    // The table starts at 64 slots and doubles once more than half full,
    // i.e. on the insert that makes 2^k + 1 keys, k >= 5.
    const std::uint32_t size = i + 1;
    if (size > 32 && ((size - 1) & (size - 2)) == 0) {
      ++doublings;
      for (std::uint32_t j = 0; j <= i; ++j) {
        const std::string earlier = key_of(j);
        ASSERT_EQ(t.find(hash_string(earlier), earlier), j)
            << "key " << j << " after " << size << " inserts";
      }
    }
  }
  EXPECT_EQ(doublings, 12u);  // 64 -> 262,144 slots
  EXPECT_EQ(t.find(hash_string("absent"), "absent"), KeyIndex::kAbsent);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
  Rng c(43);
  EXPECT_NE(Rng(42).next_u64(), c.next_u64());
}

TEST(Rng, DoublesInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, ZipfIsSkewedTowardLowRanks) {
  Rng rng(11);
  std::uint64_t low = 0;
  constexpr int kSamples = 10'000;
  for (int i = 0; i < kSamples; ++i) {
    if (rng.next_zipf(1000, 1.1) < 10) ++low;
  }
  // The 1% lowest ranks should absorb far more than 1% of the mass.
  EXPECT_GT(low, kSamples / 10);
}

TEST(Rng, ZipfStaysInRange) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_LT(rng.next_zipf(50, 1.0), 50u);  // s == 1 pole handled
  }
}

TEST(StringUtil, SplitView) {
  const auto parts = split_view("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
  EXPECT_EQ(split_view("", ',').size(), 1u);
  EXPECT_EQ(split_view("xyz", ',').size(), 1u);
}

TEST(StringUtil, ZeroPad) {
  EXPECT_EQ(zero_pad(42, 5), "00042");
  EXPECT_EQ(zero_pad(123456, 3), "123456");
  EXPECT_EQ(zero_pad(0, 4), "0000");
}

TEST(StringUtil, ParseU64) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_u64("12345", &v));
  EXPECT_EQ(v, 12345u);
  EXPECT_FALSE(parse_u64("", &v));
  EXPECT_FALSE(parse_u64("12a", &v));
  EXPECT_FALSE(parse_u64("-3", &v));
  EXPECT_TRUE(parse_u64("007", &v));
  EXPECT_EQ(v, 7u);
  EXPECT_TRUE(parse_u64("18446744073709551615", &v));
  EXPECT_EQ(v, UINT64_MAX);
  // Out of range: rejected, not wrapped, and the output is left alone.
  EXPECT_FALSE(parse_u64("18446744073709551616", &v));
  EXPECT_FALSE(parse_u64("100000000000000000000", &v));
  EXPECT_EQ(v, UINT64_MAX);
}

TEST(RunMetrics, AccumulatesAllFields) {
  RunMetrics a;
  a.map_work = 1;
  a.contraction_work = 2;
  a.reduce_work = 3;
  a.time = 4;
  a.map_tasks = 5;
  RunMetrics b = a;
  b += a;
  EXPECT_DOUBLE_EQ(b.map_work, 2);
  EXPECT_DOUBLE_EQ(b.time, 8);
  EXPECT_EQ(b.map_tasks, 10u);
  EXPECT_DOUBLE_EQ(a.work(), 1 + 2 + 3);
}

}  // namespace
}  // namespace slider
