#include "contraction/coalescing_tree.h"

#include "common/logging.h"
#include "data/serde.h"

namespace slider {

void CoalescingTree::initial_build(std::vector<Leaf> leaves,
                                   TreeUpdateStats* stats) {
  held_.drop_all();
  leaf_count_ = leaves.size();
  height_ = 1;
  pending_delta_.reset();
  root_override_.reset();
  if (leaves.empty()) {
    root_node_ = MemoNode{0, std::make_shared<const KVTable>()};
    return;
  }
  root_node_ = fold_batch(ctx_, combiner_, leaves, stats);
  held_.hold(root_node_.id);
}

void CoalescingTree::coalesce_pending(TreeUpdateStats* stats) {
  if (pending_delta_ == nullptr) return;
  // The spine merge happens at the running root's level.
  if (stats != nullptr) stats->level = static_cast<std::uint16_t>(height_);
  // Reuse of the previous root is a memoized read (it was produced by an
  // earlier run's combiner).
  auto prev = fetch_reused(ctx_, root_node_.id, root_node_.table, stats);
  const NodeId id = internal_node_id(ctx_, root_node_.id, pending_delta_id_);
  root_node_.table =
      combine_and_memoize(ctx_, combiner_, id, *prev, *pending_delta_, stats,
                          root_node_.id, pending_delta_id_);
  held_.hold(id);
  held_.drop(root_node_.id);
  held_.drop(pending_delta_id_);
  root_node_.id = id;
  pending_delta_.reset();
  root_override_.reset();
  ++height_;
  if (stats != nullptr) stats->level = 0;
}

void CoalescingTree::apply_delta(std::size_t remove_front,
                                 std::vector<Leaf> added,
                                 TreeUpdateStats* stats) {
  SLIDER_CHECK(remove_front == 0)
      << "coalescing tree is append-only; cannot remove " << remove_front;
  if (added.empty()) return;
  root_override_.reset();

  // A skipped background phase leaves a pending delta: coalesce it now in
  // the foreground before accepting the new batch.
  coalesce_pending(stats);

  leaf_count_ += added.size();
  MemoNode delta = fold_batch(ctx_, combiner_, added, stats);
  held_.hold(delta.id);
  pending_delta_ = std::move(delta.table);
  pending_delta_id_ = delta.id;
  // Split processing leaves the coalesce to the background phase.
  if (!split_processing_) coalesce_pending(stats);
}

void CoalescingTree::background_preprocess(TreeUpdateStats* stats) {
  if (!split_processing_) return;
  coalesce_pending(stats);
}

std::shared_ptr<const KVTable> CoalescingTree::root() const {
  SLIDER_CHECK(root_node_.table != nullptr) << "root() before build";
  if (pending_delta_ == nullptr) return root_node_.table;
  if (root_override_ == nullptr) {
    // Materialized lazily and uncharged; the session prices the streaming
    // merge as reduce-side work (see tree.h: reduce_inputs).
    root_override_ = std::make_shared<const KVTable>(
        KVTable::merge(*root_node_.table, *pending_delta_, combiner_));
  }
  return root_override_;
}

std::vector<std::shared_ptr<const KVTable>> CoalescingTree::reduce_inputs()
    const {
  if (pending_delta_ != nullptr) return {root_node_.table, pending_delta_};
  return {root()};
}

void CoalescingTree::serialize(durability::CheckpointWriter& writer) const {
  std::string& blob = writer.blob();
  wire::put_u64(blob, leaf_count_);
  wire::put_u32(blob, static_cast<std::uint32_t>(height_));
  writer.put_node(root_node_.id, root_node_.table.get());
  wire::put_u8(blob, pending_delta_ != nullptr ? 1 : 0);
  if (pending_delta_ != nullptr) {
    writer.put_node(pending_delta_id_, pending_delta_.get());
  }
}

bool CoalescingTree::restore(durability::CheckpointReader& reader) {
  std::uint64_t leaf_count = 0;
  std::uint32_t height = 0;
  MemoNode root_node;
  std::uint8_t has_pending = 0;
  if (!reader.get_u64(&leaf_count) || !reader.get_u32(&height) ||
      !reader.get_node(&root_node.id, &root_node.table) ||
      root_node.table == nullptr || !reader.get_u8(&has_pending)) {
    return false;
  }
  std::shared_ptr<const KVTable> pending;
  NodeId pending_id = 0;
  if (has_pending != 0) {
    if (!reader.get_node(&pending_id, &pending) || pending == nullptr) {
      return false;
    }
  }
  leaf_count_ = static_cast<std::size_t>(leaf_count);
  height_ = static_cast<int>(height);
  root_node_ = std::move(root_node);
  pending_delta_ = std::move(pending);
  pending_delta_id_ = pending_id;
  root_override_.reset();  // lazy cache; rebuilt on demand, uncharged
  held_.reset();
  held_.hold(root_node_.id);
  held_.hold(pending_delta_id_);
  return true;
}

TreeDescription CoalescingTree::describe() const {
  TreeDescription d;
  d.kind = std::string(kind());
  d.height = height_;
  d.leaf_count = leaf_count_;
  d.root_id = root_node_.id;
  if (root_node_.table != nullptr) {
    TreeNodeDescription root;
    root.id = root_node_.id;
    root.level = height_;
    root.index = 0;
    root.rows = root_node_.table->size();
    root.bytes = root_node_.table->byte_size();
    root.materialized = true;
    root.role = "root";
    d.nodes.push_back(std::move(root));
  }
  if (pending_delta_ != nullptr) {
    TreeNodeDescription pending;
    pending.id = pending_delta_id_;
    pending.level = 0;
    pending.index = 1;
    pending.rows = pending_delta_->size();
    pending.bytes = pending_delta_->byte_size();
    pending.materialized = true;
    pending.role = "pending";
    d.nodes.push_back(std::move(pending));
  }
  return d;
}

void CoalescingTree::collect_live_ids(std::unordered_set<NodeId>& live) const {
  if (root_node_.table != nullptr && root_node_.id != 0) {
    live.insert(root_node_.id);
  }
  if (pending_delta_ != nullptr) live.insert(pending_delta_id_);
}

}  // namespace slider
