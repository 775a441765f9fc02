// CRC32C (Castagnoli, reflected polynomial 0x82F63B78) — the checksum the
// durability subsystem stamps on every segment-log record and checkpoint
// manifest, and the memo store on every payload it writes.
//
// Two paths compute the same values. On x86-64 hosts with SSE4.2,
// crc32c() runs the `crc32` instruction eight bytes at a time, chosen at
// run time via __builtin_cpu_supports. Everywhere else, and in builds with
// -DSLIDER_DISABLE_SIMD=ON, it runs crc32c_portable(): the byte-at-a-time
// table loop, which is also the reference the tests hold the hardware path
// to. The choice never changes a checksum, so on-disk formats do not
// depend on the host that wrote them.
#pragma once

#include <cstdint>
#include <string_view>

namespace slider {

// Incremental: feed the previous return value back in as `crc` to checksum
// a logically concatenated byte stream. `crc = 0` starts a fresh stream.
std::uint32_t crc32c(std::string_view data, std::uint32_t crc = 0);

// The portable table loop; same contract and values as crc32c().
std::uint32_t crc32c_portable(std::string_view data, std::uint32_t crc = 0);

}  // namespace slider
