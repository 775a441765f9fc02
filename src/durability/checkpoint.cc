#include "durability/checkpoint.h"

#include <optional>
#include <utility>

#include "common/logging.h"
#include "data/serde.h"
#include "observability/stats.h"

namespace slider::durability {
namespace {

constexpr FileFrame kManifestFrame{"SLIDRCKP", kCheckpointVersion,
                                   "checkpoint manifest"};

enum NodeMarker : std::uint8_t {
  kNull = 0,
  kByRef = 1,
  kInline = 2,
};

}  // namespace

void CheckpointWriter::put_node(std::uint64_t id, const KVTable* table) {
  wire::put_u64(blob_, id);
  if (table == nullptr) {
    wire::put_u8(blob_, kNull);
    return;
  }
  const bool resolvable =
      id != 0 && (inlined_.count(id) != 0 ||
                  (persisted_ && persisted_(id)));
  if (resolvable) {
    wire::put_u8(blob_, kByRef);
    return;
  }
  wire::put_u8(blob_, kInline);
  wire::put_bytes(blob_, table->bytes());
  if (id != 0) inlined_.insert(id);
}

bool CheckpointWriter::write_manifest(const std::string& path) const {
  if (!write_file_frame(path, kManifestFrame, blob_)) return false;
  auto& reg = obs::StatsRegistry::global();
  reg.counter("durability.checkpoints_written").add();
  reg.counter("durability.checkpoint_bytes")
      .add(kFileFrameHeaderBytes + blob_.size());
  return true;
}

std::unique_ptr<CheckpointReader> CheckpointReader::open(
    const std::string& path, ResolveFn resolve) {
  std::optional<std::string> blob = read_file_frame(path, kManifestFrame);
  if (!blob.has_value()) return nullptr;
  obs::StatsRegistry::global().counter("durability.checkpoints_loaded").add();
  return std::unique_ptr<CheckpointReader>(
      new CheckpointReader(*std::move(blob), std::move(resolve)));
}

bool CheckpointReader::get_u8(std::uint8_t* v) {
  std::string_view cursor = rest();
  if (!wire::get_u8(cursor, v)) return false;
  advance_to(cursor);
  return true;
}

bool CheckpointReader::get_u32(std::uint32_t* v) {
  std::string_view cursor = rest();
  if (!wire::get_u32(cursor, v)) return false;
  advance_to(cursor);
  return true;
}

bool CheckpointReader::get_u64(std::uint64_t* v) {
  std::string_view cursor = rest();
  if (!wire::get_u64(cursor, v)) return false;
  advance_to(cursor);
  return true;
}

bool CheckpointReader::get_bytes(std::string* out) {
  std::string_view cursor = rest();
  if (!wire::get_bytes(cursor, out)) return false;
  advance_to(cursor);
  return true;
}

bool CheckpointReader::get_node(std::uint64_t* id,
                                std::shared_ptr<const KVTable>* table) {
  std::uint8_t marker = 0;
  if (!get_u64(id) || !get_u8(&marker)) return false;
  switch (marker) {
    case kNull:
      table->reset();
      return true;
    case kByRef: {
      const auto cached = cache_.find(*id);
      if (cached != cache_.end()) {
        *table = cached->second;
        return true;
      }
      if (!resolve_) return false;
      auto resolved = resolve_(*id);
      if (resolved == nullptr) {
        SLIDER_LOG(Warning)
            << "checkpoint: unresolvable node reference " << *id;
        return false;
      }
      cache_.emplace(*id, resolved);
      *table = std::move(resolved);
      return true;
    }
    case kInline: {
      std::string bytes;
      if (!get_bytes(&bytes)) return false;
      auto decoded = deserialize_table(std::move(bytes));
      if (!decoded.has_value()) return false;
      auto shared = std::make_shared<const KVTable>(*std::move(decoded));
      if (*id != 0) cache_.emplace(*id, shared);
      *table = std::move(shared);
      return true;
    }
    default:
      return false;
  }
}

}  // namespace slider::durability
