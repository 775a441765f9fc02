#include "observability/postmortem.h"

#include <cctype>
#include <cstdlib>

#include "common/logging.h"
#include "data/serde.h"

namespace slider::obs {
namespace {

constexpr FileFrame kPostmortemFrame{"SLIDRPMJ", kPostmortemVersion,
                                     "postmortem dump"};

}  // namespace

const JsonValue& JsonValue::operator[](std::string_view key) const {
  static const JsonValue kNull;
  if (type_ != Type::kObject) return kNull;
  const auto it = object_.find(std::string(key));
  return it == object_.end() ? kNull : it->second;
}

namespace {

// Recursive-descent JSON parser. Strict: no comments, no trailing commas,
// no unquoted keys. Depth-limited so a hostile file cannot blow the stack.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> parse() {
    std::optional<JsonValue> value = parse_value(0);
    if (!value.has_value()) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  std::optional<std::string> parse_string() {
    if (pos_ >= text_.size() || text_[pos_] != '"') return std::nullopt;
    ++pos_;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) return std::nullopt;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return std::nullopt;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return std::nullopt;
          }
          // The writer only escapes control characters; decode the BMP
          // code point as UTF-8.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: return std::nullopt;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<JsonValue> parse_value(int depth) {
    if (depth > kMaxDepth) return std::nullopt;
    skip_ws();
    if (pos_ >= text_.size()) return std::nullopt;
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      JsonValue::Object object;
      skip_ws();
      if (consume('}')) return JsonValue(std::move(object));
      while (true) {
        skip_ws();
        std::optional<std::string> key = parse_string();
        if (!key.has_value() || !consume(':')) return std::nullopt;
        std::optional<JsonValue> value = parse_value(depth + 1);
        if (!value.has_value()) return std::nullopt;
        object[std::move(*key)] = std::move(*value);
        if (consume(',')) continue;
        if (consume('}')) return JsonValue(std::move(object));
        return std::nullopt;
      }
    }
    if (c == '[') {
      ++pos_;
      JsonValue::Array array;
      skip_ws();
      if (consume(']')) return JsonValue(std::move(array));
      while (true) {
        std::optional<JsonValue> value = parse_value(depth + 1);
        if (!value.has_value()) return std::nullopt;
        array.push_back(std::move(*value));
        if (consume(',')) continue;
        if (consume(']')) return JsonValue(std::move(array));
        return std::nullopt;
      }
    }
    if (c == '"') {
      std::optional<std::string> s = parse_string();
      if (!s.has_value()) return std::nullopt;
      return JsonValue(std::move(*s));
    }
    if (consume_literal("null")) return JsonValue();
    if (consume_literal("true")) return JsonValue(true);
    if (consume_literal("false")) return JsonValue(false);
    // Number: delegate validation to strtod over the longest plausible
    // prefix (JSON numbers are a strict subset of strtod's grammar, and
    // the writer only emits %.12g / integers).
    if (c == '-' || (c >= '0' && c <= '9')) {
      const char* begin = text_.data() + pos_;
      char* end = nullptr;
      const double number = std::strtod(begin, &end);
      if (end == begin) return std::nullopt;
      pos_ += static_cast<std::size_t>(end - begin);
      return JsonValue(number);
    }
    return std::nullopt;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<JsonValue> parse_json(std::string_view text) {
  return JsonParser(text).parse();
}

std::string frame_postmortem(std::string_view json) {
  return encode_file_frame(kPostmortemFrame, json);
}

bool write_postmortem(const std::string& path, std::string_view json) {
  return write_file_frame(path, kPostmortemFrame, json);
}

std::optional<PostmortemFile> read_postmortem(const std::string& path) {
  std::optional<std::string> json = read_file_frame(path, kPostmortemFrame);
  if (!json.has_value()) return std::nullopt;
  PostmortemFile file;
  file.version = kPostmortemVersion;
  file.json = *std::move(json);
  std::optional<JsonValue> root = parse_json(file.json);
  if (!root.has_value()) {
    SLIDER_LOG(Warning) << "postmortem: payload is not valid JSON: " << path;
    return std::nullopt;
  }
  file.root = std::move(*root);
  return file;
}

}  // namespace slider::obs
