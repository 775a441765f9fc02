// The KVTable wire format, and the primitives and file frame built on it.
//
// Table format: u32 row count, then per row (u32 key length, key bytes,
// u32 value length, value bytes). Little-endian, length-prefixed. A
// KVTable holds exactly these bytes (data/record.h), so serializing is
// returning its buffer, and the per-record framing matches
// KVTable::byte_size() so cost-model bytes and real bytes agree.
//
// The `wire` namespace exposes the little-endian primitives of that
// format. The durability subsystem (segment-log records and session
// checkpoints, src/durability/) uses the same primitives, so the on-disk
// formats and the memo wire format can never drift apart.
//
// Whole files that must be published atomically and checked on read —
// checkpoint manifests and post-mortem dumps — share one CRC frame:
//
//   [8-byte magic][u32 version][u32 crc32c(payload)][u64 payload_size][payload]
//
// with one writer and one reader below.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "data/record.h"

namespace slider {

namespace wire {

void put_u8(std::string& out, std::uint8_t v);
void put_u32(std::string& out, std::uint32_t v);
void put_u64(std::string& out, std::uint64_t v);
// Length-prefixed byte string: u32 length + raw bytes.
void put_bytes(std::string& out, std::string_view bytes);

// Readers consume from the front of `in`; they return false (and leave the
// output untouched) on a truncated buffer.
bool get_u8(std::string_view& in, std::uint8_t* v);
bool get_u32(std::string_view& in, std::uint32_t* v);
bool get_u64(std::string_view& in, std::uint64_t* v);
bool get_bytes(std::string_view& in, std::string* out);

}  // namespace wire

// --- CRC-framed files --------------------------------------------------------

// Names one framed format: its magic, its version and the noun diagnostics
// use for its files (e.g. "checkpoint manifest").
struct FileFrame {
  std::string_view magic;  // exactly 8 bytes
  std::uint32_t version = 0;
  std::string_view noun;
};

inline constexpr std::size_t kFileFrameHeaderBytes = 8 + 4 + 4 + 8;

// Header + payload in one buffer.
std::string encode_file_frame(const FileFrame& format,
                              std::string_view payload);

// Publishes header + payload at `path` atomically: writes <path>.tmp, then
// fflush, fsync and fclose, then renames it over `path`, checking every
// step. False on any failure; the tmp file is removed and a previous file
// at `path` is left untouched.
bool write_file_frame(const std::string& path, const FileFrame& format,
                      std::string_view payload);

// The payload of `path` if its magic and version match, its declared size
// is at most 4 GiB, exactly that many bytes follow the header and their
// CRC matches. nullopt otherwise, with a log line naming
// the failed check (silent when the file cannot be opened).
std::optional<std::string> read_file_frame(const std::string& path,
                                           const FileFrame& format);

// The table's buffer: its serialized form, with no copy made.
const std::string& serialize_table(const KVTable& table);

// Validates `bytes` and adopts them as the table's buffer. Returns nullopt
// on malformed input: a truncated buffer, a row count above bytes/8,
// trailing bytes, or keys out of order or repeated.
std::optional<KVTable> deserialize_table(std::string bytes);

}  // namespace slider
