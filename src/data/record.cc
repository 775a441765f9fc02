#include "data/record.h"

#include <algorithm>
#include <limits>

#include "common/hash.h"
#include "common/logging.h"

namespace slider {
namespace {

void append_u32(std::string& out, std::uint32_t v) {
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

// True when more than an eighth of a buffer of `capacity` is spare.
bool mostly_spare(std::size_t size, std::size_t capacity) {
  return capacity - size > size / 8;
}

}  // namespace

KVTable::Builder::Builder(std::size_t rows_hint, std::size_t bytes_hint) {
  offsets_.reserve(rows_hint);
  buf_.reserve(kCountBytes + bytes_hint);
  buf_.append(kCountBytes, '\0');  // the row count, written by finish()
}

#ifndef NDEBUG
void KVTable::Builder::check_order(std::string_view next_key) const {
  if (offsets_.empty()) return;
  const char* p = buf_.data() + offsets_.back();
  const std::string_view last(p + 4, load_u32(p));
  SLIDER_CHECK(last < next_key) << "rows out of key order";
}
#endif

void KVTable::Builder::add(std::string_view key, std::string_view value) {
#ifndef NDEBUG
  check_order(key);
#endif
  offsets_.push_back(static_cast<std::uint32_t>(buf_.size()));
  append_u32(buf_, static_cast<std::uint32_t>(key.size()));
  buf_.append(key);
  append_u32(buf_, static_cast<std::uint32_t>(value.size()));
  buf_.append(value);
}

void KVTable::Builder::append_rows(const KVTable& from, std::size_t first,
                                   std::size_t last) {
  if (first >= last) return;
#ifndef NDEBUG
  check_order(from.row(first).key);
#endif
  const std::size_t begin = from.offsets_[first];
  const std::size_t end = from.row_end(last - 1);
  const std::size_t shift = buf_.size();
  for (std::size_t i = first; i < last; ++i) {
    offsets_.push_back(
        static_cast<std::uint32_t>(from.offsets_[i] - begin + shift));
  }
  buf_.append(from.buf_, begin, end - begin);
}

KVTable KVTable::Builder::finish() && {
  SLIDER_CHECK(buf_.size() <= std::numeric_limits<std::uint32_t>::max())
      << "table past 4 GiB";
  auto count = static_cast<std::uint32_t>(offsets_.size());
  if constexpr (std::endian::native == std::endian::big) {
    count = __builtin_bswap32(count);
  }
  std::memcpy(buf_.data(), &count, kCountBytes);
  if (mostly_spare(buf_.size(), buf_.capacity())) buf_.shrink_to_fit();
  if (mostly_spare(offsets_.size(), offsets_.capacity())) {
    offsets_.shrink_to_fit();
  }
  return KVTable(std::move(buf_), std::move(offsets_));
}

KVTable KVTable::from_records(std::vector<Record> rows,
                              const CombineFn& combine) {
  std::stable_sort(rows.begin(), rows.end(),
                   [](const Record& a, const Record& b) { return a.key < b.key; });
  Builder out(rows.size());
  for (std::size_t i = 0; i < rows.size();) {
    std::string value = std::move(rows[i].value);
    std::size_t j = i + 1;
    for (; j < rows.size() && rows[j].key == rows[i].key; ++j) {
      value = combine(rows[i].key, value, rows[j].value);
    }
    out.add(rows[i].key, value);
    i = j;
  }
  return std::move(out).finish();
}

KVTable KVTable::merge(const KVTable& a, const KVTable& b,
                       const CombineFn& combine, MergeStats* stats) {
  Builder out(a.size() + b.size(), a.byte_size() + b.byte_size());
  // The combiner takes std::strings: hand it the views through three
  // strings reused across rows. Per call, not thread_local, because a
  // combiner may itself merge.
  std::string key;
  std::string left;
  std::string right;
  std::size_t i = 0;
  std::size_t j = 0;
  std::uint64_t combines = 0;
  while (i < a.size() && j < b.size()) {
    const RowView ra = a.row(i);
    const RowView rb = b.row(j);
    const int order = ra.key.compare(rb.key);
    if (order < 0) {
      out.append_rows(a, i, i + 1);
      ++i;
    } else if (order > 0) {
      out.append_rows(b, j, j + 1);
      ++j;
    } else {
      key.assign(ra.key);
      left.assign(ra.value);
      right.assign(rb.value);
      out.add(ra.key, combine(key, left, right));
      ++combines;
      ++i;
      ++j;
    }
  }
  out.append_rows(a, i, a.size());
  out.append_rows(b, j, b.size());
  if (stats != nullptr) {
    stats->rows_scanned += a.size() + b.size();
    stats->combines_applied += combines;
  }
  return std::move(out).finish();
}

std::optional<RowView> KVTable::find(std::string_view key) const {
  std::size_t lo = 0;
  std::size_t hi = size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (row(mid).key < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == size() || row(lo).key != key) return std::nullopt;
  return row(lo);
}

std::uint64_t KVTable::content_hash() const {
  std::uint64_t h = kFnvOffset;
  for (const RowView r : rows()) {
    h = hash_combine(h, hash_string(r.key));
    h = hash_combine(h, hash_string(r.value));
  }
  return h;
}

KVTable KVTable::debug_flip_bits(std::size_t pos, char mask) const {
  KVTable copy = *this;
  copy.buf_[pos] ^= mask;
  return copy;
}

}  // namespace slider
