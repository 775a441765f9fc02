// Post-mortem file format and reader.
//
// A flight-recorder dump is a single file in the CRC file frame that
// checkpoint manifests also use (data/serde.h), with its own magic:
//
//   "SLIDRPMJ" [u32 version] [u32 crc32c(json)] [u64 json_size] [json]
//
// where `json` is one UTF-8 JSON document (schema: docs/observability.md).
// The frame makes truncation and corruption detectable — a post-mortem
// that lies is worse than none — and the file carries the .pm.json suffix
// so the payload is still one `tail -c +24` away from any JSON tool.
//
// This header also hosts the repo's minimal JSON reader (the repo's other
// JSON machinery is write-only): a strict recursive-descent parser into a
// JsonValue tree, sufficient for the doctor CLI and round-trip tests.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace slider::obs {

inline constexpr std::uint32_t kPostmortemVersion = 1;

// --- minimal JSON reader -----------------------------------------------------

class JsonValue {
 public:
  enum class Type : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject,
  };

  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue>;

  JsonValue() = default;
  explicit JsonValue(bool b) : type_(Type::kBool), bool_(b) {}
  explicit JsonValue(double n) : type_(Type::kNumber), number_(n) {}
  explicit JsonValue(std::string s)
      : type_(Type::kString), string_(std::move(s)) {}
  explicit JsonValue(Array a) : type_(Type::kArray), array_(std::move(a)) {}
  explicit JsonValue(Object o) : type_(Type::kObject), object_(std::move(o)) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }

  bool as_bool(bool fallback = false) const {
    return type_ == Type::kBool ? bool_ : fallback;
  }
  double as_double(double fallback = 0) const {
    return type_ == Type::kNumber ? number_ : fallback;
  }
  std::uint64_t as_u64(std::uint64_t fallback = 0) const {
    return type_ == Type::kNumber ? static_cast<std::uint64_t>(number_)
                                  : fallback;
  }
  const std::string& as_string() const { return string_; }

  const Array& items() const { return array_; }
  const Object& members() const { return object_; }

  // Object member lookup; null-typed reference when absent or not an
  // object, so lookups chain without null checks.
  const JsonValue& operator[](std::string_view key) const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  Array array_;
  Object object_;
};

// Strict parse of one complete JSON document (trailing garbage fails).
// std::nullopt on any syntax error.
std::optional<JsonValue> parse_json(std::string_view text);

// --- framing -----------------------------------------------------------------

// Frames `json` per the header comment (magic + version + crc + size).
std::string frame_postmortem(std::string_view json);

// Atomically publishes the framed `json` at `path` (write_file_frame).
bool write_postmortem(const std::string& path, std::string_view json);

struct PostmortemFile {
  std::uint32_t version = 0;
  std::string json;  // the raw payload
  JsonValue root;    // parsed payload
};

// Loads and validates a dump: the frame (read_file_frame: magic, version,
// exact size, CRC), then a JSON parse. std::nullopt (with a log line) on
// any failure.
std::optional<PostmortemFile> read_postmortem(const std::string& path);

}  // namespace slider::obs
