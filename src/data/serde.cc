#include "data/serde.h"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "common/crc32c.h"
#include "common/logging.h"

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

// A larger declared payload size is rejected before any allocation.
constexpr std::uint64_t kFileFrameMaxPayload = 1ull << 32;

std::string file_frame_header(const FileFrame& format,
                              std::string_view payload) {
  std::string header;
  header.reserve(kFileFrameHeaderBytes);
  header.append(format.magic);
  wire::put_u32(header, format.version);
  wire::put_u32(header, crc32c(payload));
  wire::put_u64(header, payload.size());
  return header;
}

}  // namespace

std::string encode_file_frame(const FileFrame& format,
                              std::string_view payload) {
  std::string frame = file_frame_header(format, payload);
  frame.append(payload);
  return frame;
}

bool write_file_frame(const std::string& path, const FileFrame& format,
                      std::string_view payload) {
  const std::string header = file_frame_header(format, payload);
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  // The stdio buffer must reach the kernel before fsync, and fsync must
  // succeed before rename publishes the file.
  bool ok =
      std::fwrite(header.data(), 1, header.size(), f) == header.size() &&
      std::fwrite(payload.data(), 1, payload.size(), f) == payload.size() &&
      std::fflush(f) == 0 && ::fsync(fileno(f)) == 0;
  ok = std::fclose(f) == 0 && ok;
  std::error_code ec;
  if (ok) std::filesystem::rename(tmp, path, ec);
  if (!ok || ec) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  return true;
}

std::optional<std::string> read_file_frame(const std::string& path,
                                           const FileFrame& format) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::error_code ec;
  const std::uint64_t file_bytes = std::filesystem::file_size(path, ec);
  char header[kFileFrameHeaderBytes];
  std::uint32_t version = 0;
  std::uint32_t expect_crc = 0;
  std::uint64_t size = 0;
  std::string payload;
  bool ok = !ec && std::fread(header, 1, sizeof(header), f) == sizeof(header);
  if (ok) {
    std::string_view cursor(header, sizeof(header));
    ok = cursor.substr(0, format.magic.size()) == format.magic;
    cursor.remove_prefix(format.magic.size());
    wire::get_u32(cursor, &version);
    wire::get_u32(cursor, &expect_crc);
    wire::get_u64(cursor, &size);
    // Checked before allocating, so a corrupt size cannot drive a huge
    // allocation: the payload must fill the rest of the file exactly.
    ok = ok && version == format.version && size <= kFileFrameMaxPayload &&
         file_bytes - sizeof(header) == size;
  }
  if (ok) {
    payload.resize(static_cast<std::size_t>(size));
    ok = std::fread(payload.data(), 1, payload.size(), f) == payload.size();
  }
  std::fclose(f);
  if (!ok) {
    SLIDER_LOG(Warning) << "rejecting " << format.noun << " " << path
                        << ": bad magic, version, or size (declared " << size
                        << " payload bytes at file offset "
                        << kFileFrameHeaderBytes
                        << "; the file must hold exactly that many)";
    return std::nullopt;
  }
  const std::uint32_t actual_crc = crc32c(payload);
  if (actual_crc != expect_crc) {
    char expect_hex[16];
    char actual_hex[16];
    std::snprintf(expect_hex, sizeof(expect_hex), "0x%08x", expect_crc);
    std::snprintf(actual_hex, sizeof(actual_hex), "0x%08x", actual_crc);
    SLIDER_LOG(Warning) << "rejecting " << format.noun << " " << path
                        << ": payload crc mismatch (expected " << expect_hex
                        << ", actual " << actual_hex << " over "
                        << payload.size() << " bytes at file offset "
                        << kFileFrameHeaderBytes
                        << "; header intact, corruption is inside the "
                           "payload)";
    return std::nullopt;
  }
  return payload;
}

const std::string& serialize_table(const KVTable& table) {
  return table.bytes();
}

std::optional<KVTable> deserialize_table(std::string bytes) {
  std::string_view in = bytes;
  std::uint32_t count = 0;
  if (!wire::get_u32(in, &count)) return std::nullopt;
  // A corrupt header must not drive allocation: each record occupies at
  // least 8 framing bytes, so a count beyond bytes/8 is provably invalid.
  if (count > in.size() / 8) return std::nullopt;
  std::vector<std::uint32_t> offsets;
  offsets.reserve(count);
  std::string_view previous_key;
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto offset = static_cast<std::uint32_t>(bytes.size() - in.size());
    std::uint32_t len = 0;
    if (!wire::get_u32(in, &len) || in.size() < len) return std::nullopt;
    const std::string_view key = in.substr(0, len);
    in.remove_prefix(len);
    if (!wire::get_u32(in, &len) || in.size() < len) return std::nullopt;
    in.remove_prefix(len);
    // Rows were serialized from a sorted, unique, already-combined table.
    // Keys out of order or repeated indicate corruption, which we surface
    // as a parse failure.
    if (i > 0 && previous_key >= key) return std::nullopt;
    previous_key = key;
    offsets.push_back(offset);
  }
  if (!in.empty()) return std::nullopt;  // trailing garbage
  return KVTable(std::move(bytes), std::move(offsets));
}

}  // namespace slider
