#include "common/string_util.h"

#include <charconv>

namespace slider {

std::vector<std::string_view> split_view(std::string_view text, char sep) {
  std::vector<std::string_view> parts;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find(sep, start);
    if (end == std::string_view::npos) {
      parts.push_back(text.substr(start));
      break;
    }
    parts.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return parts;
}

std::string zero_pad(std::uint64_t value, int width) {
  std::string digits = std::to_string(value);
  if (static_cast<int>(digits.size()) >= width) return digits;
  return std::string(width - digits.size(), '0') + digits;
}

bool parse_u64(std::string_view text, std::uint64_t* out) {
  const char* end = text.data() + text.size();
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  *out = value;
  return true;
}

}  // namespace slider
