// Open-addressing index from keys to the dense indices their owner assigns.
//
// The map-side Emitter and the flat aggregation tier each keep their keys
// in a vector of their own and ask one question per record: which index
// holds this key? KeyIndex answers it without owning a key. The owner
// passes the key's 64-bit hash in and supplies key equality; a slot holds
// the hash's top 32 bits (its tag) and the owner's index. A table of 2^k
// slots places a key at the top k bits of its tag, so growth re-places
// each slot from its own tag and no key string is hashed twice.
//
// Power-of-two capacity starting at 64 slots, linear probing, at most half
// full, 8 bytes a slot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace slider {

class KeyIndex {
 public:
  static constexpr std::uint32_t kAbsent = 0xFFFFFFFFu;

  // The index recorded for the key whose hash is `hash` and for which
  // `same(index)` holds, or kAbsent. `same` sees the index of every
  // recorded key whose tag equals this hash's tag, whatever the rest of
  // its hash, so it must hold for the key itself and nothing else.
  template <typename Same>
  std::uint32_t find(std::uint64_t hash, Same same) const {
    if (slots_.empty()) return kAbsent;
    return slots_[probe(tag_of(hash), same)].index;
  }

  // The index already recorded for the key, or `index` after recording it
  // (`index` must not be kAbsent).
  template <typename Same>
  std::uint32_t insert(std::uint64_t hash, std::uint32_t index, Same same) {
    if (slots_.empty()) slots_.assign(std::size_t{1} << kInitialBits, Slot{});
    const std::uint32_t tag = tag_of(hash);
    Slot& slot = slots_[probe(tag, same)];
    if (slot.index != kAbsent) return slot.index;
    slot = {tag, index};
    if (++size_ * 2 > slots_.size()) grow();
    return index;
  }

  void clear() {
    slots_.clear();
    size_ = 0;
    shift_ = 32 - kInitialBits;
  }

 private:
  struct Slot {
    std::uint32_t tag = 0;
    std::uint32_t index = kAbsent;
  };
  static constexpr int kInitialBits = 6;  // 64 slots

  static std::uint32_t tag_of(std::uint64_t hash) {
    return static_cast<std::uint32_t>(hash >> 32);
  }

  // Position of the key's slot, or of the empty slot where it would go.
  template <typename Same>
  std::size_t probe(std::uint32_t tag, Same& same) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = tag >> shift_;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.index == kAbsent || (slot.tag == tag && same(slot.index))) {
        return i;
      }
    }
  }

  // Doubles the capacity; every recorded key is distinct, so each slot
  // moves to the first empty position from its tag's new home.
  void grow() {
    SLIDER_CHECK(shift_ > 0) << "KeyIndex cannot grow past 2^32 slots";
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    --shift_;
    auto distinct = [](std::uint32_t) { return false; };
    for (const Slot& slot : old) {
      if (slot.index != kAbsent) slots_[probe(slot.tag, distinct)] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  int shift_ = 32 - kInitialBits;  // tag bits below a slot position
};

}  // namespace slider
