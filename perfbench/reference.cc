// The reference kernel: a fixed amount of single-threaded work, owned by the
// benchmark and shared with no library, whose duration tracks how fast the
// host runs right now.

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "bench_common.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace perfbench {
namespace {

constexpr std::size_t kTableSlots = std::size_t{1} << 23;  // 64 MiB of slots
constexpr std::size_t kKeys = 32'768;
constexpr std::size_t kKeyBytes = 24;
constexpr std::size_t kSortItems = 16'384;

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t fnv1a(const unsigned char* p, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ULL;
  return h;
}

// The key's slot in `table`: its own, or the empty one it would take.
std::size_t find_slot(const std::vector<std::uint64_t>& table,
                      std::uint64_t h) {
  std::size_t slot = h & (kTableSlots - 1);
  while (table[slot] != 0 && table[slot] != h) {
    slot = (slot + 1) & (kTableSlots - 1);
  }
  return slot;
}

std::uint64_t key_hash(const std::vector<unsigned char>& keys, std::size_t k) {
  return fnv1a(&keys[k * kKeyBytes], kKeyBytes) | 1;  // 0 marks empty
}

}  // namespace

Reference::Reference()
    : keys_(kKeys * kKeyBytes), table_(kTableSlots), sort_src_(kSortItems),
      sort_buf_(kSortItems) {
  std::uint64_t state = 0x5eed;
  for (unsigned char& c : keys_) {
    c = static_cast<unsigned char>('a' + splitmix(state) % 26);
  }
  for (std::uint64_t& v : sort_src_) v = splitmix(state);
  for (std::size_t k = 0; k < kKeys; ++k) {
    const std::uint64_t h = key_hash(keys_, k);
    const std::size_t slot = find_slot(table_, h);
    table_[slot] = h;
    slots_.push_back(slot);
  }
}

double Reference::sample_ms() {
  run_ms();
#if defined(__x86_64__) || defined(__i386__)
  for (const std::size_t slot : slots_) _mm_clflush(&table_[slot]);
  for (std::size_t i = 0; i < keys_.size(); i += 64) _mm_clflush(&keys_[i]);
  _mm_mfence();
#endif
  return run_ms();
}

double Reference::resident_mb() const {
  const double bytes = static_cast<double>(
      keys_.size() + sizeof(std::size_t) * slots_.size() +
      sizeof(std::uint64_t) *
          (table_.size() + sort_src_.size() + sort_buf_.size()));
  return bytes / (1 << 20);
}

double Reference::run_ms() {
  const double start = wall_ms();
  // Hash every key and look it up in an open-addressing table spread over
  // 64 MiB (string hashing plus cache- and TLB-missing probes, like a map
  // stage and memo lookups), then sort a fixed shuffled array (like a merge
  // of sorted runs).
  std::uint64_t sum = 0;
  for (std::size_t k = 0; k < kKeys; ++k) {
    sum += find_slot(table_, key_hash(keys_, k));
  }
  std::memcpy(sort_buf_.data(), sort_src_.data(),
              kSortItems * sizeof(std::uint64_t));
  std::sort(sort_buf_.begin(), sort_buf_.end());
  sink_ += sum + sort_buf_[kSortItems / 2];
  return wall_ms() - start;
}

}  // namespace perfbench
