// Key/value records and the KVTable payload type.
//
// Slider interposes a tree of Combiner invocations between shuffle and
// Reduce (paper §2.2). In this reproduction a tree node's payload is a
// KVTable: the key-sorted, per-key-combined output of a subtree of map
// outputs. Combining two sibling nodes is a sorted merge that applies the
// job's Combiner to equal keys — exactly "apply the Combiner to pairs of
// partitions" from the paper, with per-key granularity built in.
//
// A KVTable is stored in its wire format (serde.h): one immutable buffer
// holding a u32 row count, then per row a u32 key length, the key, a u32
// value length and the value, plus a u32 offset per row. rows() yields
// views into that buffer, and the buffer itself is the serialized form the
// memo store, durable logs and checkpoints keep.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace slider {

// A producer's row: split records, Emitter output, and the input to
// KVTable::from_records.
struct Record {
  std::string key;
  std::string value;

  friend bool operator==(const Record&, const Record&) = default;
};

// One row of a KVTable: views into the table's buffer, valid while the
// table lives.
struct RowView {
  std::string_view key;
  std::string_view value;
};

// Binary, associative combiner: (key, a, b) -> combined value.
// The rotating contraction tree additionally requires commutativity
// (paper §4.1); tests/property suites verify both for every shipped app.
using CombineFn = std::function<std::string(
    const std::string& key, const std::string& a, const std::string& b)>;

struct MergeStats {
  std::uint64_t rows_scanned = 0;    // rows read from both inputs
  std::uint64_t combines_applied = 0;  // per-key combiner applications
};

// Immutable-after-build, key-sorted table with unique keys.
class KVTable {
 public:
  class Builder;
  class Rows;

  // Bytes of the leading row count; the rest of the buffer is rows, each
  // framed by two u32 lengths.
  static constexpr std::size_t kCountBytes = 4;
  static constexpr std::size_t kRowFraming = 8;

  KVTable() : buf_(kCountBytes, '\0') {}

  // Stable-sorts an arbitrary record batch by key and folds each key's
  // values left to right in batch order. Map tasks no longer build their
  // output this way (they fold on emit, see mapreduce/api.h's Emitter);
  // this stays as the sort-and-fold reference that tests build tables with
  // and compare map output against.
  static KVTable from_records(std::vector<Record> rows,
                              const CombineFn& combine);

  // Sorted merge of two tables; equal keys are combined. Rows on one side
  // only are copied as framed byte runs.
  static KVTable merge(const KVTable& a, const KVTable& b,
                       const CombineFn& combine, MergeStats* stats = nullptr);

  Rows rows() const;
  std::size_t size() const { return offsets_.size(); }
  bool empty() const { return offsets_.empty(); }

  // The row with this key, if any. A row, not a bare value view, so that
  // a pointer-style `find(k) != nullptr` does not compile.
  std::optional<RowView> find(std::string_view key) const;

  // The serialized form (serde.h's table format).
  const std::string& bytes() const { return buf_; }

  // Serialized size in bytes (keys + values + framing, without the row
  // count); used by the cost model and the memo store.
  std::size_t byte_size() const { return buf_.size() - kCountBytes; }

  // Stable content hash: equal tables hash equal across runs/processes.
  std::uint64_t content_hash() const;

  friend bool operator==(const KVTable& a, const KVTable& b) {
    return a.buf_ == b.buf_;
  }

  // Test hook for corruption drills: a copy whose buffer has the bits of
  // `mask` flipped in byte `pos` but keeps this table's row offsets, so
  // its rows must not be read. The memo store's readers check bytes()
  // against the put-time CRC first and never get that far.
  KVTable debug_flip_bits(std::size_t pos, char mask) const;

 private:
  // Adopts a buffer and its row offsets; deserialize_table is the one
  // caller outside this file, after validating the buffer.
  friend std::optional<KVTable> deserialize_table(std::string bytes);

  KVTable(std::string buf, std::vector<std::uint32_t> offsets)
      : buf_(std::move(buf)), offsets_(std::move(offsets)) {}

  static std::uint32_t load_u32(const char* p) {
    std::uint32_t v = 0;
    std::memcpy(&v, p, sizeof v);
    if constexpr (std::endian::native == std::endian::big) {
      v = __builtin_bswap32(v);
    }
    return v;
  }

  RowView row(std::size_t i) const {
    const char* p = buf_.data() + offsets_[i];
    const std::uint32_t key_len = load_u32(p);
    const std::uint32_t value_len = load_u32(p + 4 + key_len);
    return {{p + 4, key_len}, {p + 8 + key_len, value_len}};
  }

  // End of row i's bytes: where row i + 1 (or the buffer) starts.
  std::size_t row_end(std::size_t i) const {
    return i + 1 < offsets_.size() ? offsets_[i + 1] : buf_.size();
  }

  std::string buf_;
  std::vector<std::uint32_t> offsets_;  // start of each row's framing
};

// Random-access range over a table's rows; each element is a RowView.
class KVTable::Rows {
 public:
  class iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = RowView;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = RowView;

    iterator() = default;
    RowView operator*() const { return table_->row(i_); }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.i_ == b.i_;
    }

   private:
    friend class Rows;
    iterator(const KVTable* table, std::size_t i) : table_(table), i_(i) {}
    const KVTable* table_ = nullptr;
    std::size_t i_ = 0;
  };

  explicit Rows(const KVTable* table) : table_(table) {}
  std::size_t size() const { return table_->size(); }
  RowView operator[](std::size_t i) const { return table_->row(i); }
  RowView front() const { return table_->row(0); }
  RowView back() const { return table_->row(size() - 1); }
  iterator begin() const { return {table_, 0}; }
  iterator end() const { return {table_, size()}; }

 private:
  const KVTable* table_;
};

inline KVTable::Rows KVTable::rows() const { return Rows(this); }

// Appends rows in ascending key order (checked in debug builds) into one
// buffer in the table format; finish() adopts it. The hints size the
// buffer up front; finish() trims the buffer and the offsets when more
// than an eighth of either is spare, because a memoized table keeps its
// capacity for life.
class KVTable::Builder {
 public:
  explicit Builder(std::size_t rows_hint = 0, std::size_t bytes_hint = 0);

  void add(std::string_view key, std::string_view value);
  // Copies rows [first, last) of `from` as one framed byte run.
  void append_rows(const KVTable& from, std::size_t first, std::size_t last);

  std::size_t size() const { return offsets_.size(); }

  KVTable finish() &&;

 private:
#ifndef NDEBUG
  void check_order(std::string_view next_key) const;
#endif

  std::string buf_;
  std::vector<std::uint32_t> offsets_;
};

}  // namespace slider
