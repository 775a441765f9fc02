#include "contraction/rotating_tree.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"
#include "data/serde.h"

namespace slider {

void RotatingTree::initial_build(std::vector<Leaf> leaves,
                                 TreeUpdateStats* stats) {
  // Group leaves into buckets.
  std::vector<std::size_t> sizes = initial_bucket_sizes_;
  if (sizes.empty()) {
    SLIDER_CHECK(bucket_width_ > 0) << "bucket_width must be positive";
    for (std::size_t done = 0; done < leaves.size(); done += bucket_width_) {
      sizes.push_back(std::min(bucket_width_, leaves.size() - done));
    }
  }
  std::size_t total = 0;
  for (const std::size_t s : sizes) total += s;
  SLIDER_CHECK(total == leaves.size())
      << "bucket sizes (" << total << ") must cover all leaves ("
      << leaves.size() << ")";

  held_.drop_all();
  buckets_ = sizes.size();
  window_splits_ = leaves.size();
  next_victim_ = 0;
  pending_install_.reset();
  intermediate_.reset();
  fresh_bucket_table_.reset();
  root_override_.reset();

  const std::size_t capacity = std::bit_ceil(buckets_);
  levels_.assign(1, std::vector<LevelSlot>(capacity));
  for (std::size_t size = capacity >> 1; size >= 1; size >>= 1) {
    levels_.emplace_back(size);
  }
  bucket_splits_.assign(capacity, 0);

  std::vector<std::size_t> dirty(buckets_);
  std::size_t offset = 0;
  for (std::size_t b = 0; b < buckets_; ++b) {
    MemoNode bucket = fold_batch(
        ctx_, combiner_, std::span<const Leaf>(leaves).subspan(offset, sizes[b]),
        stats);
    offset += sizes[b];
    LevelSlot& slot = levels_[0][b];
    slot.id = bucket.id;
    slot.table = std::move(bucket.table);
    slot.recomputed_this_run = true;
    held_.hold(slot.id);
    bucket_splits_[b] = sizes[b];
    dirty[b] = b;
  }
  recompute_paths(ctx_, combiner_, levels_, std::move(dirty), held_, stats);
}

void RotatingTree::install_bucket(std::size_t slot_index, Bucket bucket,
                                  TreeUpdateStats* stats) {
  LevelSlot& leaf = levels_[0][slot_index];
  held_.hold(bucket.id);
  held_.drop(leaf.id);
  leaf.id = bucket.id;
  leaf.table = std::move(bucket.table);
  leaf.recomputed_this_run = true;
  bucket_splits_[slot_index] = bucket.split_count;
  recompute_paths(ctx_, combiner_, levels_, {slot_index}, held_, stats);
}

void RotatingTree::install_pending(TreeUpdateStats* stats) {
  const NodeId id = pending_install_->second.id;
  install_bucket(pending_install_->first, std::move(pending_install_->second),
                 stats);
  pending_install_.reset();
  held_.drop(id);
}

void RotatingTree::reset_intermediate() {
  if (intermediate_.has_value()) held_.drop(intermediate_->id);
  intermediate_.reset();
}

void RotatingTree::apply_delta(std::size_t remove_front,
                               std::vector<Leaf> added,
                               TreeUpdateStats* stats) {
  SLIDER_CHECK(!levels_.empty()) << "apply_delta before initial_build";
  root_override_.reset();
  fresh_bucket_table_.reset();
  if (remove_front == 0 && added.empty()) return;

  // A best-effort background phase may have been skipped: catch up in the
  // foreground before handling this slide.
  if (pending_install_.has_value()) {
    install_pending(stats);
    reset_intermediate();
  }

  SLIDER_CHECK(levels_[0][next_victim_].table != nullptr)
      << "victim bucket is void";
  SLIDER_CHECK(remove_front == bucket_splits_[next_victim_])
      << "fixed-width slide must drop exactly the oldest bucket ("
      << bucket_splits_[next_victim_] << " splits), got " << remove_front;
  SLIDER_CHECK(!added.empty()) << "fixed-width slide must add a bucket";

  window_splits_ += added.size() - remove_front;
  MemoNode folded = fold_batch(ctx_, combiner_, added, stats);
  Bucket bucket{folded.id, std::move(folded.table), added.size()};
  fresh_bucket_table_ = bucket.table;

  const bool can_use_intermediate =
      split_processing_ && intermediate_.has_value() &&
      intermediate_->victim == next_victim_;
  if (can_use_intermediate) {
    // Foreground: Reduce will stream over {I, fresh bucket}. The tree
    // itself is updated in the next background phase.
    held_.hold(bucket.id);
    pending_install_ = {next_victim_, std::move(bucket)};
  } else {
    reset_intermediate();
    install_bucket(next_victim_, std::move(bucket), stats);
  }
  next_victim_ = (next_victim_ + 1) % buckets_;
}

void RotatingTree::compute_intermediate(TreeUpdateStats* stats) {
  // Fold the off-path sibling node outputs of the next victim, bottom-up.
  std::shared_ptr<const KVTable> acc;
  NodeId acc_id = 0;
  std::size_t index = next_victim_;
  for (std::size_t k = 0; k + 1 < levels_.size(); ++k) {
    const std::size_t sibling_index = index ^ 1;
    const LevelSlot& sibling = levels_[k][sibling_index];
    index /= 2;
    if (sibling.table == nullptr) continue;  // void padding
    if (stats != nullptr) stats->level = static_cast<std::uint16_t>(k);
    auto sibling_table = fetch_reused(ctx_, sibling.id, sibling.table, stats);
    if (acc == nullptr) {
      acc = std::move(sibling_table);
      acc_id = sibling.id;
      held_.hold(acc_id);
      continue;
    }
    const NodeId prev_id = acc_id;
    acc_id = internal_node_id(ctx_, acc_id, sibling.id);
    acc = combine_and_memoize(ctx_, combiner_, acc_id, *acc, *sibling_table,
                              stats, prev_id, sibling.id);
    // Each partial fold is memoized, then superseded by the next.
    held_.hold(acc_id);
    held_.drop(prev_id);
  }
  if (stats != nullptr) stats->level = 0;
  if (acc == nullptr) acc = std::make_shared<const KVTable>();  // N == 1
  reset_intermediate();
  intermediate_ = Intermediate{next_victim_, acc_id, std::move(acc)};
}

void RotatingTree::background_preprocess(TreeUpdateStats* stats) {
  if (!split_processing_) return;
  if (pending_install_.has_value()) install_pending(stats);
  compute_intermediate(stats);
}

std::shared_ptr<const KVTable> RotatingTree::root() const {
  if (pending_install_.has_value()) {
    // Foreground split mode: the authoritative window content is
    // I ⊕ fresh bucket. Materialize lazily and uncharged — the session
    // prices the equivalent streaming merge as reduce-side work.
    if (root_override_ == nullptr) {
      SLIDER_CHECK(intermediate_.has_value()) << "pending without I";
      root_override_ = std::make_shared<const KVTable>(KVTable::merge(
          *intermediate_->table, *fresh_bucket_table_, combiner_));
    }
    return root_override_;
  }
  const LevelSlot& top = levels_.back()[0];
  if (top.table == nullptr) return std::make_shared<const KVTable>();
  return top.table;
}

std::vector<std::shared_ptr<const KVTable>> RotatingTree::reduce_inputs()
    const {
  if (pending_install_.has_value()) {
    SLIDER_CHECK(intermediate_.has_value() && fresh_bucket_table_ != nullptr)
        << "split-mode reduce inputs unavailable";
    return {intermediate_->table, fresh_bucket_table_};
  }
  return {root()};
}

void RotatingTree::serialize(durability::CheckpointWriter& writer) const {
  std::string& blob = writer.blob();
  wire::put_u64(blob, buckets_);
  wire::put_u64(blob, next_victim_);
  wire::put_u64(blob, window_splits_);
  wire::put_u32(blob, static_cast<std::uint32_t>(levels_.size()));
  for (std::size_t k = 0; k < levels_.size(); ++k) {
    wire::put_u32(blob, static_cast<std::uint32_t>(levels_[k].size()));
    for (std::size_t j = 0; j < levels_[k].size(); ++j) {
      writer.put_node(levels_[k][j].id, levels_[k][j].table.get());
      // One split count per slot: the bucket's at the leaf level, 0 above.
      wire::put_u64(blob, k == 0 ? bucket_splits_[j] : 0);
    }
  }
  // Split-processing residue. fresh_bucket_table_ is only meaningful
  // alongside a pending install (root()/reduce_inputs() read it then) and
  // always aliases the pending bucket's table, so it is not stored
  // separately.
  wire::put_u8(blob, pending_install_.has_value() ? 1 : 0);
  if (pending_install_.has_value()) {
    wire::put_u64(blob, pending_install_->first);
    writer.put_node(pending_install_->second.id,
                    pending_install_->second.table.get());
    wire::put_u64(blob, pending_install_->second.split_count);
  }
  wire::put_u8(blob, intermediate_.has_value() ? 1 : 0);
  if (intermediate_.has_value()) {
    wire::put_u64(blob, intermediate_->victim);
    writer.put_node(intermediate_->id, intermediate_->table.get());
  }
}

bool RotatingTree::restore(durability::CheckpointReader& reader) {
  std::uint64_t buckets = 0;
  std::uint64_t next_victim = 0;
  std::uint64_t window_splits = 0;
  std::uint32_t level_count = 0;
  if (!reader.get_u64(&buckets) || !reader.get_u64(&next_victim) ||
      !reader.get_u64(&window_splits) || !reader.get_u32(&level_count) ||
      level_count == 0) {
    return false;
  }
  Levels levels;
  levels.reserve(level_count);
  std::vector<std::size_t> bucket_splits;
  for (std::uint32_t k = 0; k < level_count; ++k) {
    std::uint32_t slot_count = 0;
    if (!reader.get_u32(&slot_count)) return false;
    std::vector<LevelSlot> level(slot_count);
    for (LevelSlot& slot : level) {
      std::uint64_t split_count = 0;
      if (!reader.get_node(&slot.id, &slot.table) ||
          !reader.get_u64(&split_count)) {
        return false;
      }
      if (k == 0) bucket_splits.push_back(split_count);
    }
    levels.push_back(std::move(level));
  }
  if (levels.back().size() != 1 || buckets > levels.front().size() ||
      (buckets > 0 && next_victim >= buckets)) {
    return false;
  }

  std::uint8_t has_pending = 0;
  std::optional<std::pair<std::size_t, Bucket>> pending;
  if (!reader.get_u8(&has_pending)) return false;
  if (has_pending != 0) {
    std::uint64_t slot_index = 0;
    Bucket bucket;
    std::uint64_t split_count = 0;
    if (!reader.get_u64(&slot_index) ||
        !reader.get_node(&bucket.id, &bucket.table) ||
        !reader.get_u64(&split_count) || bucket.table == nullptr) {
      return false;
    }
    // The next apply_delta or background phase installs the bucket into
    // this slot: it must be a live bucket slot.
    if (slot_index >= buckets) return false;
    bucket.split_count = static_cast<std::size_t>(split_count);
    pending = {static_cast<std::size_t>(slot_index), std::move(bucket)};
  }
  std::uint8_t has_intermediate = 0;
  std::optional<Intermediate> intermediate;
  if (!reader.get_u8(&has_intermediate)) return false;
  if (has_intermediate != 0) {
    Intermediate i;
    std::uint64_t victim = 0;
    if (!reader.get_u64(&victim) || !reader.get_node(&i.id, &i.table) ||
        i.table == nullptr) {
      return false;
    }
    i.victim = static_cast<std::size_t>(victim);
    intermediate = std::move(i);
  }
  // Foreground split mode requires both halves of {I, fresh bucket}.
  if (pending.has_value() && !intermediate.has_value()) return false;

  levels_ = std::move(levels);
  bucket_splits_ = std::move(bucket_splits);
  buckets_ = static_cast<std::size_t>(buckets);
  next_victim_ = static_cast<std::size_t>(next_victim);
  window_splits_ = static_cast<std::size_t>(window_splits);
  pending_install_ = std::move(pending);
  intermediate_ = std::move(intermediate);
  fresh_bucket_table_ = pending_install_.has_value()
                            ? pending_install_->second.table
                            : nullptr;
  root_override_.reset();  // lazy cache; rebuilt on demand, uncharged
  held_.reset();
  hold_level_ids(levels_, held_);
  if (pending_install_.has_value()) held_.hold(pending_install_->second.id);
  if (intermediate_.has_value()) held_.hold(intermediate_->id);
  return true;
}

TreeDescription RotatingTree::describe() const {
  TreeDescription desc = describe_levels(*this, levels_);
  for (TreeNodeDescription& node : desc.nodes) {
    if (node.level == 0 && node.index == next_victim_) {
      node.role = "leaf:next_victim";
    }
  }
  if (pending_install_.has_value()) {
    TreeNodeDescription node;
    node.id = pending_install_->second.id;
    node.level = 0;
    node.index = pending_install_->first;
    node.rows = pending_install_->second.table->size();
    node.bytes = pending_install_->second.table->byte_size();
    node.materialized = true;
    node.role = "pending";
    desc.nodes.push_back(std::move(node));
  }
  if (intermediate_.has_value() && intermediate_->table != nullptr) {
    TreeNodeDescription node;
    node.id = intermediate_->id;
    node.level = height();
    node.index = intermediate_->victim;
    node.rows = intermediate_->table->size();
    node.bytes = intermediate_->table->byte_size();
    node.materialized = true;
    node.role = "intermediate";
    desc.nodes.push_back(std::move(node));
  }
  return desc;
}

void RotatingTree::collect_live_ids(std::unordered_set<NodeId>& live) const {
  collect_level_ids(levels_, live);
  // Split-processing state must survive GC until the background phase
  // folds it into the tree.
  if (pending_install_.has_value()) live.insert(pending_install_->second.id);
  if (intermediate_.has_value() && intermediate_->id != 0) {
    live.insert(intermediate_->id);
  }
}

}  // namespace slider
