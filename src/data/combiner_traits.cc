#include "data/combiner_traits.h"

#include <bit>
#include <limits>


namespace slider::flat {
namespace {

// Canonical unsigned-decimal parse: digits only, no leading zeros except
// the single digit "0", no overflow past UINT64_MAX.
bool parse_canonical_u64(std::string_view text, std::uint64_t* out) {
  if (text.empty()) return false;
  if (text.size() > 1 && text.front() == '0') return false;
  std::uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return false;
    }
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

// Canonical signed-decimal parse; rejects "-0" and magnitudes outside
// [INT64_MIN, INT64_MAX].
bool parse_canonical_i64(std::string_view text, std::int64_t* out) {
  const bool negative = !text.empty() && text.front() == '-';
  if (negative) text.remove_prefix(1);
  std::uint64_t magnitude = 0;
  if (!parse_canonical_u64(text, &magnitude)) return false;
  if (negative) {
    if (magnitude == 0) return false;  // "-0" is not canonical
    // |INT64_MIN| == 2^63.
    if (magnitude > (std::uint64_t{1} << 63)) return false;
    *out = static_cast<std::int64_t>(~magnitude + 1);  // two's complement
  } else {
    if (magnitude >
        static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max())) {
      return false;
    }
    *out = static_cast<std::int64_t>(magnitude);
  }
  return true;
}

}  // namespace

const char* kernel_name(FlatKernel kernel) {
  switch (kernel) {
    case FlatKernel::kNone: return "none";
    case FlatKernel::kSumU64: return "sum_u64";
    case FlatKernel::kSumI64: return "sum_i64";
  }
  return "?";
}

bool decode_value(FlatKernel kernel, std::string_view text, Lane* out) {
  switch (kernel) {
    case FlatKernel::kSumU64:
      return parse_canonical_u64(text, out);
    case FlatKernel::kSumI64: {
      std::int64_t value = 0;
      if (!parse_canonical_i64(text, &value)) return false;
      *out = std::bit_cast<Lane>(value);
      return true;
    }
    case FlatKernel::kNone:
      return false;
  }
  return false;
}

std::string encode_value(FlatKernel kernel, Lane lane) {
  if (kernel == FlatKernel::kSumI64) {
    return std::to_string(std::bit_cast<std::int64_t>(lane));
  }
  return std::to_string(lane);
}

}  // namespace slider::flat
