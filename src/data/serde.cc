#include "data/serde.h"

#include <cstring>

namespace slider {
namespace wire {

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u32(std::string& out, std::uint32_t v) {
  char buf[4];
  buf[0] = static_cast<char>(v & 0xff);
  buf[1] = static_cast<char>((v >> 8) & 0xff);
  buf[2] = static_cast<char>((v >> 16) & 0xff);
  buf[3] = static_cast<char>((v >> 24) & 0xff);
  out.append(buf, 4);
}

void put_u64(std::string& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v & 0xffffffffull));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

void put_bytes(std::string& out, std::string_view bytes) {
  put_u32(out, static_cast<std::uint32_t>(bytes.size()));
  out.append(bytes);
}

bool get_u8(std::string_view& in, std::uint8_t* v) {
  if (in.empty()) return false;
  *v = static_cast<std::uint8_t>(in[0]);
  in.remove_prefix(1);
  return true;
}

bool get_u32(std::string_view& in, std::uint32_t* v) {
  if (in.size() < 4) return false;
  *v = static_cast<std::uint8_t>(in[0]) |
       (static_cast<std::uint32_t>(static_cast<std::uint8_t>(in[1])) << 8) |
       (static_cast<std::uint32_t>(static_cast<std::uint8_t>(in[2])) << 16) |
       (static_cast<std::uint32_t>(static_cast<std::uint8_t>(in[3])) << 24);
  in.remove_prefix(4);
  return true;
}

bool get_u64(std::string_view& in, std::uint64_t* v) {
  if (in.size() < 8) return false;
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
  get_u32(in, &lo);
  get_u32(in, &hi);
  *v = static_cast<std::uint64_t>(lo) | (static_cast<std::uint64_t>(hi) << 32);
  return true;
}

bool get_bytes(std::string_view& in, std::string* out) {
  std::uint32_t len = 0;
  if (!get_u32(in, &len)) return false;
  if (in.size() < len) return false;
  out->assign(in.data(), len);
  in.remove_prefix(len);
  return true;
}

}  // namespace wire

namespace {

bool get_raw(std::string_view& in, std::uint32_t len, std::string* out) {
  if (in.size() < len) return false;
  out->assign(in.data(), len);
  in.remove_prefix(len);
  return true;
}

}  // namespace

std::string serialize_table(const KVTable& table) {
  std::string out;
  out.reserve(table.byte_size() + 4);
  wire::put_u32(out, static_cast<std::uint32_t>(table.size()));
  for (const Record& r : table.rows()) {
    wire::put_u32(out, static_cast<std::uint32_t>(r.key.size()));
    out.append(r.key);
    wire::put_u32(out, static_cast<std::uint32_t>(r.value.size()));
    out.append(r.value);
  }
  return out;
}

std::optional<KVTable> deserialize_table(std::string_view bytes) {
  std::uint32_t count = 0;
  if (!wire::get_u32(bytes, &count)) return std::nullopt;
  std::vector<Record> rows;
  // A corrupt header must not drive allocation: each record occupies at
  // least 8 framing bytes, so a count beyond bytes/8 is provably invalid.
  if (count > bytes.size() / 8) return std::nullopt;
  rows.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t len = 0;
    Record r;
    if (!wire::get_u32(bytes, &len) || !get_raw(bytes, len, &r.key)) {
      return std::nullopt;
    }
    if (!wire::get_u32(bytes, &len) || !get_raw(bytes, len, &r.value)) {
      return std::nullopt;
    }
    rows.push_back(std::move(r));
  }
  if (!bytes.empty()) return std::nullopt;  // trailing garbage
  // Rows were serialized from a sorted, unique, already-combined table.
  // Keys out of order or repeated indicate corruption, which we surface as
  // a parse failure.
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (rows[i - 1].key >= rows[i].key) return std::nullopt;
  }
  return KVTable::from_sorted_unique(std::move(rows));
}

}  // namespace slider
