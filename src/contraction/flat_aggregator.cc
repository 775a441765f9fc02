#include "contraction/flat_aggregator.h"

#include <algorithm>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "data/serde.h"

namespace slider {

namespace {

// Directory slots reclaimed only once dead keys dominate and the absolute
// count is worth the refold; keeps compaction off the hot path for small,
// stable key spaces.
constexpr std::size_t kCompactionMinDead = 64;

}  // namespace

FlatAggregator::FlatAggregator(MemoContext ctx, CombineFn combiner,
                               CombinerTraits traits,
                               TreeOptions fallback_options)
    : ctx_(ctx),
      combiner_(std::move(combiner)),
      traits_(traits),
      fallback_options_(fallback_options) {
  SLIDER_CHECK(traits_.flat_eligible());
}

std::uint32_t FlatAggregator::intern_key(std::string_view key) {
  const auto next = static_cast<std::uint32_t>(keys_.size());
  const std::uint32_t idx = index_.insert(
      hash_string(key), next, [&](std::uint32_t k) { return keys_[k] == key; });
  if (idx == next) keys_.emplace_back(key);
  return idx;
}

std::uint32_t FlatAggregator::find_key(std::string_view key) const {
  return index_.find(hash_string(key),
                     [&](std::uint32_t k) { return keys_[k] == key; });
}

bool FlatAggregator::decode_element(
    SplitId split_id, const std::shared_ptr<const KVTable>& table,
    Element* out) {
  if (table == nullptr) return false;
  Element e;
  e.split_id = split_id;
  // Hashing the table contents is only needed when the id leaves this
  // tier (memoization, checkpointing); without a store it is computed on
  // demand, keeping content_hash off the per-insert hot path.
  e.id = ctx_.store != nullptr ? leaf_node_id(ctx_, split_id, *table) : 0;
  e.table = table;
  e.key_idx.reserve(table->size());
  e.values.reserve(table->size());
  for (const RowView row : table->rows()) {
    flat::Lane lane = 0;
    if (!flat::decode_value(traits_.flat_kernel, row.value, &lane)) {
      return false;
    }
    e.key_idx.push_back(intern_key(row.key));
    e.values.push_back(lane);
  }
  *out = std::move(e);
  return true;
}

NodeId FlatAggregator::element_id(const Element& e) const {
  return e.id != 0 ? e.id : leaf_node_id(ctx_, e.split_id, *e.table);
}

NodeId FlatAggregator::root_id(std::vector<NodeId>* children) const {
  NodeId id = hash_combine(ctx_.job_hash,
                           static_cast<std::uint64_t>(ctx_.partition));
  children->reserve(elements_.size());
  for (const Element& e : elements_) {
    children->push_back(element_id(e));
    id = hash_combine(id, children->back());
  }
  return id;
}

void FlatAggregator::add_element(Element element, TreeUpdateStats* stats) {
  counts_.resize(keys_.size(), 0);
  for (const std::uint32_t k : element.key_idx) {
    if (counts_[k]++ == 0) root_order_dirty_ = true;
  }

  running_.resize(keys_.size(), 0);
  for (std::size_t j = 0; j < element.key_idx.size(); ++j) {
    running_[element.key_idx[j]] += element.values[j];
  }

  // One invocation per inserted element: the lane update is the flat
  // tier's analogue of a leaf-level combine over the element's rows.
  stats->charge_visits(1);
  charge_node(stats,
              {.id = element.id,
               .op = obs::LineageOp::kLeaf,
               .invocations = 1,
               .rows_scanned = element.table->size(),
               .write = memo_put(ctx_, element.id, element.table)},
              *element.table);
  held_.hold(element.id);
  elements_.push_back(std::move(element));
}

void FlatAggregator::evict_front(TreeUpdateStats* stats) {
  SLIDER_CHECK(!elements_.empty());
  const Element& e = elements_.front();
  for (std::size_t j = 0; j < e.key_idx.size(); ++j) {
    running_[e.key_idx[j]] -= e.values[j];
  }
  stats->charge_visits(1);
  const NodeId kids[] = {e.id};
  charge_node(stats,
              {.id = e.id,
               .op = obs::LineageOp::kPassthrough,
               .children = kids,
               .invocations = 1,
               .rows_scanned = e.table->size()},
              *e.table);
  for (const std::uint32_t k : e.key_idx) {
    if (--counts_[k] == 0) root_order_dirty_ = true;
  }
  held_.drop(e.id);
  elements_.pop_front();
}

void FlatAggregator::rebuild_aggregate() {
  running_.assign(keys_.size(), 0);
  for (const Element& e : elements_) {
    for (std::size_t j = 0; j < e.key_idx.size(); ++j) {
      running_[e.key_idx[j]] += e.values[j];
    }
  }
}

void FlatAggregator::reclaim_dead_keys(TreeUpdateStats* stats) {
  std::size_t dead = 0;
  for (const std::uint32_t c : counts_) dead += (c == 0) ? 1 : 0;
  if (dead <= kCompactionMinDead || dead * 2 <= keys_.size()) return;

  std::vector<std::uint32_t> remap(keys_.size(), 0);
  std::vector<std::string> live_keys;
  std::vector<std::uint32_t> live_counts;
  live_keys.reserve(keys_.size() - dead);
  for (std::size_t k = 0; k < keys_.size(); ++k) {
    if (counts_[k] == 0) continue;
    remap[k] = static_cast<std::uint32_t>(live_keys.size());
    live_keys.push_back(std::move(keys_[k]));
    live_counts.push_back(counts_[k]);
  }
  keys_ = std::move(live_keys);
  counts_ = std::move(live_counts);
  index_.clear();
  // Live keys are distinct, so no equality check is needed.
  for (std::size_t k = 0; k < keys_.size(); ++k) {
    index_.insert(hash_string(keys_[k]), static_cast<std::uint32_t>(k),
                  [](std::uint32_t) { return false; });
  }
  for (Element& e : elements_) {
    for (std::uint32_t& k : e.key_idx) k = remap[k];
  }
  rebuild_aggregate();
  root_order_dirty_ = true;  // directory indices just moved
  stats->charge_visits(1);
}

void FlatAggregator::rebuild_root(TreeUpdateStats* stats) {
  if (root_order_dirty_) {
    root_order_.clear();
    for (std::size_t k = 0; k < keys_.size(); ++k) {
      if (counts_[k] > 0) {
        root_order_.push_back(static_cast<std::uint32_t>(k));
      }
    }
    std::sort(root_order_.begin(), root_order_.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                return keys_[a] < keys_[b];
              });
    root_order_dirty_ = false;
  }
  // The previous root's size is a close hint for this one's.
  KVTable::Builder rows(root_order_.size(),
                        root_ != nullptr ? root_->byte_size() : 0);
  for (const std::uint32_t k : root_order_) {
    rows.add(keys_[k], flat::encode_value(traits_.flat_kernel, running_[k]));
  }
  root_ = std::make_shared<const KVTable>(std::move(rows).finish());
  if (stats == nullptr) return;
  // The output materialization is the tier's one per-run combine pass —
  // the flat analogue of a tree's root recomputation. Only a lineage
  // record needs the root's id and children.
  stats->charge_visits(1);
  std::vector<NodeId> kids;
  if (stats->record_lineage) last_root_id_ = root_id(&kids);
  charge_node(stats,
              {.id = last_root_id_,
               .children = kids,
               .invocations = 1,
               .rows_scanned = root_->size()},
              *root_);
}

std::vector<Leaf> FlatAggregator::live_leaves() const {
  std::vector<Leaf> leaves;
  leaves.reserve(elements_.size());
  for (const Element& e : elements_) {
    leaves.push_back(Leaf{e.split_id, e.table});
  }
  return leaves;
}

void FlatAggregator::poison(std::vector<Leaf> leaves,
                            TreeUpdateStats* stats) {
  SLIDER_LOG(Warning) << "flat tier: non-canonical value for kernel "
                      << flat::kernel_name(traits_.flat_kernel)
                      << " in partition " << ctx_.partition
                      << "; demoting to contraction tree";
  fallback_ = make_tree(fallback_options_, ctx_, combiner_);
  elements_.clear();
  keys_.clear();
  index_.clear();
  counts_.clear();
  running_.clear();
  root_.reset();
  fallback_->initial_build(std::move(leaves), stats);
}

void FlatAggregator::initial_build(std::vector<Leaf> leaves,
                                   TreeUpdateStats* stats) {
  if (fallback_ != nullptr) {
    fallback_->initial_build(std::move(leaves), stats);
    return;
  }
  SLIDER_CHECK(elements_.empty());
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    Element e;
    if (!decode_element(leaves[i].split_id, leaves[i].table, &e)) {
      poison(std::move(leaves), stats);
      return;
    }
    add_element(std::move(e), stats);
  }
  rebuild_root(stats);
}

void FlatAggregator::apply_delta(std::size_t remove_front,
                                 std::vector<Leaf> added,
                                 TreeUpdateStats* stats) {
  if (fallback_ != nullptr) {
    fallback_->apply_delta(remove_front, std::move(added), stats);
    return;
  }
  SLIDER_CHECK(remove_front <= elements_.size());
  for (std::size_t i = 0; i < remove_front; ++i) evict_front(stats);
  // The surviving window rides on the standing aggregate — the flat
  // tier's analogue of a memoized-subtree hit.
  if (!elements_.empty()) {
    charge_node(stats, {.id = last_root_id_, .op = obs::LineageOp::kReuse},
                root_ != nullptr ? *root_ : *elements_.front().table);
  }
  for (std::size_t i = 0; i < added.size(); ++i) {
    Element e;
    if (!decode_element(added[i].split_id, added[i].table, &e)) {
      std::vector<Leaf> window = live_leaves();
      for (std::size_t j = i; j < added.size(); ++j) {
        window.push_back(std::move(added[j]));
      }
      poison(std::move(window), stats);
      return;
    }
    add_element(std::move(e), stats);
  }
  reclaim_dead_keys(stats);
  rebuild_root(stats);
}

std::shared_ptr<const KVTable> FlatAggregator::root() const {
  return fallback_ != nullptr ? fallback_->root() : root_;
}

int FlatAggregator::height() const {
  return fallback_ != nullptr ? fallback_->height() : 1;
}

std::size_t FlatAggregator::leaf_count() const {
  return fallback_ != nullptr ? fallback_->leaf_count() : elements_.size();
}

std::string_view FlatAggregator::kind() const {
  return fallback_ != nullptr ? fallback_->kind() : "flat";
}

TreeDescription FlatAggregator::describe() const {
  if (fallback_ != nullptr) return fallback_->describe();
  TreeDescription d;
  d.kind = "flat";
  d.height = 1;
  d.leaf_count = elements_.size();
  std::vector<NodeId> children;
  d.root_id = root_id(&children);
  for (std::size_t i = 0; i < elements_.size(); ++i) {
    const Element& e = elements_[i];
    TreeNodeDescription leaf;
    leaf.id = children[i];
    leaf.level = 0;
    leaf.index = i;
    leaf.rows = e.table->size();
    leaf.bytes = e.table->byte_size();
    leaf.materialized = true;
    leaf.role = "leaf";
    d.nodes.push_back(std::move(leaf));
  }
  TreeNodeDescription root;
  root.id = d.root_id;
  root.level = 1;
  root.index = 0;
  root.children = std::move(children);
  if (root_ != nullptr) {
    root.rows = root_->size();
    root.bytes = root_->byte_size();
    root.materialized = true;
  }
  root.role = "root";
  d.nodes.push_back(std::move(root));
  return d;
}

void FlatAggregator::collect_live_ids(
    std::unordered_set<NodeId>& live) const {
  if (fallback_ != nullptr) {
    fallback_->collect_live_ids(live);
    return;
  }
  for (const Element& e : elements_) live.insert(element_id(e));
}

void FlatAggregator::take_released_ids(std::vector<NodeId>& released) {
  held_.take(released);
  if (fallback_ != nullptr) {
    held_.reset();
    fallback_->take_released_ids(released);
  }
}

void FlatAggregator::serialize(durability::CheckpointWriter& writer) const {
  std::string& blob = writer.blob();
  wire::put_u8(blob, fallback_ != nullptr ? 1 : 0);
  if (fallback_ != nullptr) {
    fallback_->serialize(writer);
    return;
  }
  wire::put_u32(blob, static_cast<std::uint32_t>(keys_.size()));
  for (const std::string& key : keys_) wire::put_bytes(blob, key);
  wire::put_u32(blob, static_cast<std::uint32_t>(elements_.size()));
  for (const Element& e : elements_) {
    wire::put_u64(blob, e.split_id);
    writer.put_node(element_id(e), e.table.get());
  }
}

bool FlatAggregator::restore(durability::CheckpointReader& reader) {
  std::uint8_t poisoned_flag = 0;
  if (!reader.get_u8(&poisoned_flag)) return false;
  if (poisoned_flag != 0) {
    fallback_ = make_tree(fallback_options_, ctx_, combiner_);
    return fallback_->restore(reader);
  }

  std::uint32_t key_count = 0;
  if (!reader.get_u32(&key_count)) return false;
  keys_.clear();
  index_.clear();
  keys_.reserve(key_count);
  for (std::uint32_t k = 0; k < key_count; ++k) {
    std::string key;
    if (!reader.get_bytes(&key)) return false;
    if (intern_key(key) != k) return false;  // duplicate directory key
  }

  std::uint32_t element_count = 0;
  if (!reader.get_u32(&element_count)) return false;
  elements_.clear();
  for (std::uint32_t i = 0; i < element_count; ++i) {
    std::uint64_t split_id = 0;
    if (!reader.get_u64(&split_id)) return false;
    NodeId id = 0;
    std::shared_ptr<const KVTable> table;
    if (!reader.get_node(&id, &table)) return false;
    if (table == nullptr) return false;
    Element e;
    e.split_id = split_id;
    e.id = id;
    e.table = table;
    for (const RowView row : table->rows()) {
      const std::uint32_t idx = find_key(row.key);
      if (idx == KeyIndex::kAbsent) return false;
      flat::Lane lane = 0;
      if (!flat::decode_value(traits_.flat_kernel, row.value, &lane)) {
        return false;
      }
      e.key_idx.push_back(idx);
      e.values.push_back(lane);
    }
    held_.hold(e.id);
    elements_.push_back(std::move(e));
  }

  counts_.assign(keys_.size(), 0);
  for (const Element& e : elements_) {
    for (const std::uint32_t k : e.key_idx) ++counts_[k];
  }
  rebuild_aggregate();
  root_order_dirty_ = true;
  rebuild_root(nullptr);
  return true;
}

}  // namespace slider
