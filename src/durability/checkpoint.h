// Session checkpoint manifests (paper §6: a restarted process resumes
// sliding incrementally instead of recomputing from scratch).
//
// A checkpoint is a single manifest file:
//
//   "SLIDRCKP" [u32 version] [u32 crc32c(blob)] [u64 blob_size] [blob]
//
// where `blob` is session-defined state built from slider::wire
// primitives. The frame is the CRC file frame of data/serde.h, written
// atomically (tmp file + fsync + rename), so a crash mid-checkpoint leaves
// the previous manifest intact.
//
// The blob mostly stores tree *structure* — node ids — not payloads:
// payloads already live in the durable memo tier, and the reader resolves
// them from the recovered store. Node references use a 1-byte marker:
//
//   [u64 id][u8 marker]
//     marker 0: null node (no table)
//     marker 1: by-ref — resolve the table from the recovered memo store
//               (or from an earlier inline entry of the same checkpoint)
//     marker 2: inline — [u32 len][serialize_table bytes] follows; used
//               for tables the store does not hold durably (id 0, or
//               entries that were never persisted / already GC'd)
//
// The reader caches resolved tables per id, so nodes that shared one
// KVTable before the checkpoint share one again after restore.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "data/record.h"

namespace slider::durability {

// Version 2: a flat-tier partition's state ends after its element list
// (version 1 appended a two-stacks boundary), so a version-1 manifest is
// refused rather than misread.
inline constexpr std::uint32_t kCheckpointVersion = 2;

class CheckpointWriter {
 public:
  // `persisted(id)` answers whether the durable tier holds `id`, i.e.
  // whether a by-ref marker will be resolvable after recovery. With no
  // callback every table is inlined.
  using PersistedFn = std::function<bool(std::uint64_t)>;

  explicit CheckpointWriter(PersistedFn persisted = {})
      : persisted_(std::move(persisted)) {}

  // Append session state here with slider::wire::put_*.
  std::string& blob() { return blob_; }

  // Appends one node reference per the marker scheme above. A null table
  // always encodes as marker 0, whatever the id says.
  void put_node(std::uint64_t id, const KVTable* table);

  // Atomically writes the manifest (write_file_frame). False on any I/O
  // failure (the previous manifest, if any, is left untouched).
  bool write_manifest(const std::string& path) const;

 private:
  PersistedFn persisted_;
  std::string blob_;
  std::unordered_set<std::uint64_t> inlined_;  // ids already written inline
};

class CheckpointReader {
 public:
  // Resolves a by-ref node id to its table (typically a MemoStore peek
  // after recovery). Returning null fails the read.
  using ResolveFn =
      std::function<std::shared_ptr<const KVTable>(std::uint64_t)>;

  // Loads and validates `path` (read_file_frame: magic, version, exact
  // size, CRC). Null on a missing, truncated, padded or corrupt manifest.
  static std::unique_ptr<CheckpointReader> open(const std::string& path,
                                                ResolveFn resolve);

  CheckpointReader(const CheckpointReader&) = delete;
  CheckpointReader& operator=(const CheckpointReader&) = delete;

  // Cursor reads over the blob; false on exhaustion/malformed data.
  bool get_u8(std::uint8_t* v);
  bool get_u32(std::uint32_t* v);
  bool get_u64(std::uint64_t* v);
  bool get_bytes(std::string* out);

  // Counterpart of CheckpointWriter::put_node. False when the blob is
  // malformed, an inline table fails to deserialize, or a by-ref id
  // cannot be resolved.
  bool get_node(std::uint64_t* id, std::shared_ptr<const KVTable>* table);

  // True once the whole blob has been consumed.
  bool done() const { return pos_ == blob_.size(); }

 private:
  CheckpointReader(std::string blob, ResolveFn resolve)
      : blob_(std::move(blob)), resolve_(std::move(resolve)) {}

  std::string_view rest() const {
    return std::string_view(blob_).substr(pos_);
  }
  void advance_to(std::string_view remaining) {
    pos_ = blob_.size() - remaining.size();
  }

  std::string blob_;
  std::size_t pos_ = 0;
  ResolveFn resolve_;
  // Tables already materialized this restore, keyed by node id — preserves
  // pointer sharing across by-ref and repeated inline references.
  std::unordered_map<std::uint64_t, std::shared_ptr<const KVTable>> cache_;
};

}  // namespace slider::durability
