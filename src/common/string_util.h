// Small string helpers shared across modules.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace slider {

std::vector<std::string_view> split_view(std::string_view text, char sep);

// Fixed-width unsigned decimal with leading zeros, e.g. zero_pad(42, 5) ==
// "00042". Used to build sortable record keys.
std::string zero_pad(std::uint64_t value, int width);

// Parses a non-negative decimal integer that fits in 64 bits (leading zeros
// allowed); returns false on any other input, including an empty one.
bool parse_u64(std::string_view text, std::uint64_t* out);

}  // namespace slider
