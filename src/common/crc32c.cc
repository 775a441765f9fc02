#include "common/crc32c.h"

#include <array>
#include <cstring>

#if !defined(SLIDER_DISABLE_SIMD) && defined(__x86_64__)
#define SLIDER_CRC32C_X86 1
#include <nmmintrin.h>
#else
#define SLIDER_CRC32C_X86 0
#endif

namespace slider {
namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli

constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kTable = make_table();

#if SLIDER_CRC32C_X86

// The `crc32` instruction implements the same reflected polynomial; on a
// 64-bit operand it consumes the eight bytes in memory (little-endian)
// order, so it matches eight steps of the table loop.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    std::string_view data, std::uint32_t crc) {
  const char* p = data.data();
  std::size_t n = data.size();
  std::uint64_t state = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    state = _mm_crc32_u64(state, word);
  }
  auto tail = static_cast<std::uint32_t>(state);
  for (; n > 0; ++p, --n) {
    tail = _mm_crc32_u8(tail, static_cast<std::uint8_t>(*p));
  }
  return ~tail;
}

bool use_sse42() {
  static const bool enabled = __builtin_cpu_supports("sse4.2") != 0;
  return enabled;
}

#endif  // SLIDER_CRC32C_X86

}  // namespace

std::uint32_t crc32c_portable(std::string_view data, std::uint32_t crc) {
  crc = ~crc;
  for (const char c : data) {
    crc = kTable[(crc ^ static_cast<std::uint8_t>(c)) & 0xffu] ^ (crc >> 8);
  }
  return ~crc;
}

std::uint32_t crc32c(std::string_view data, std::uint32_t crc) {
#if SLIDER_CRC32C_X86
  if (use_sse42()) return crc32c_sse42(data, crc);
#endif
  return crc32c_portable(data, crc);
}

}  // namespace slider
