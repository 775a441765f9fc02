// Flat aggregation tier for flat-eligible combiners.
//
// Contraction trees pay pointer-chasing, node-id hashing, and per-node
// serde on every slide even when the combiner is a cheap commutative
// integer sum. For those combiners (CombinerTraits::flat_eligible) this
// tier replaces the tree with a flat per-key lane array over a circular
// buffer of window elements, in the style of HammerSlide:
//
//   * every key ever seen gets a slot in an append-ordered key directory;
//     each window element is a sparse {directory index, lane} list decoded
//     once at insert;
//   * every flat kernel is a wrapping sum, so one dense running aggregate
//     covers the window: insert adds an element's values into the lanes
//     of its own keys, evict subtracts them, both exact under two's-
//     complement wraparound: O(rows) per element, whatever the window;
//   * the per-window output table is rebuilt from the dense lanes, keys
//     with zero live occurrences filtered out.
//
// Composition with the rest of the stack:
//   * each insert, eviction, standing-aggregate reuse and root fold is one
//     charge_node() call, so the causal work ledger's conservation
//     property and lineage-equals-ledger hold with the tier engaged
//     (inserts bill to the window_add cause, evictions to window_remove,
//     the standing aggregate's reuse shows up in the memo hit-rate
//     gauges);
//   * element payloads are memoized under their leaf node ids, so GC,
//     by-ref checkpointing, and the durable tier see the same ids a tree
//     would produce;
//   * serialize()/restore() round-trip the key directory and element set;
//     integer math makes the refolded aggregate bit-identical to the
//     pre-checkpoint state;
//   * values that fail the strict canonical decode poison the tier: it
//     builds an inner contraction tree (the session's fallback options)
//     over the buffered window and delegates everything to it from then
//     on, so a traits misdeclaration degrades to tree speed, never to a
//     wrong answer.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/key_index.h"
#include "contraction/tree_common.h"
#include "data/combiner_traits.h"

namespace slider {

class FlatAggregator : public ContractionTree {
 public:
  // `fallback_options` describe the contraction tree to degrade to when a
  // value fails the canonical-decode check (traits promised more than the
  // serde delivers).
  FlatAggregator(MemoContext ctx, CombineFn combiner, CombinerTraits traits,
                 TreeOptions fallback_options);

  void initial_build(std::vector<Leaf> leaves,
                     TreeUpdateStats* stats) override;
  void apply_delta(std::size_t remove_front, std::vector<Leaf> added,
                   TreeUpdateStats* stats) override;
  std::shared_ptr<const KVTable> root() const override;
  int height() const override;
  std::size_t leaf_count() const override;
  std::string_view kind() const override;
  TreeDescription describe() const override;
  void collect_live_ids(std::unordered_set<NodeId>& live) const override;
  void take_released_ids(std::vector<NodeId>& released) override;
  void serialize(durability::CheckpointWriter& writer) const override;
  bool restore(durability::CheckpointReader& reader) override;

  // True once a non-canonical value demoted this partition to the inner
  // fallback tree.
  bool poisoned() const { return fallback_ != nullptr; }

 private:
  // One window element (= one tree leaf), decoded once into sparse
  // {directory index, lane} form.
  struct Element {
    SplitId split_id = 0;
    NodeId id = 0;
    std::shared_ptr<const KVTable> table;
    std::vector<std::uint32_t> key_idx;
    std::vector<flat::Lane> values;
  };

  // Directory index of `key`, interning it when absent.
  std::uint32_t intern_key(std::string_view key);
  // Directory index of `key`, or KeyIndex::kAbsent.
  std::uint32_t find_key(std::string_view key) const;
  // Decodes `table` into an Element; false on a non-canonical value (the
  // poison trigger). Does not mutate aggregate state.
  bool decode_element(SplitId split_id,
                      const std::shared_ptr<const KVTable>& table,
                      Element* out);
  // The element's leaf node id; computed on demand when insert skipped it
  // (no memo store attached).
  NodeId element_id(const Element& e) const;
  // The root's id: the context seed folded with every element id in window
  // order, so the lineage, /tree and dot views agree. Appends the element
  // ids to `children`.
  NodeId root_id(std::vector<NodeId>* children) const;
  void add_element(Element element, TreeUpdateStats* stats);
  void evict_front(TreeUpdateStats* stats);
  // Recomputes running_ from elements_ (restore, compaction). Uncharged.
  void rebuild_aggregate();
  // Drops directory slots with zero live occurrences once they dominate.
  void reclaim_dead_keys(TreeUpdateStats* stats);
  void rebuild_root(TreeUpdateStats* stats);
  // Demote to the fallback tree over `leaves` (the full current window).
  void poison(std::vector<Leaf> leaves, TreeUpdateStats* stats);
  std::vector<Leaf> live_leaves() const;

  MemoContext ctx_;
  CombineFn combiner_;
  CombinerTraits traits_;
  TreeOptions fallback_options_;

  // Append-ordered key directory; a key's index is stable until the next
  // compaction. Lookups go through index_, on the per-row path of every
  // insert. Behind the same interface, std::unordered_multimap made
  // substr-flat-w800 slides 48% slower (p50 11.40 ms against 7.69 ms,
  // 10 rotated release runs on a 4-vCPU VM).
  std::vector<std::string> keys_;
  KeyIndex index_;
  // Live-occurrence count per directory slot; 0 = dead key (filtered from
  // the output, reclaimed by compaction).
  std::vector<std::uint32_t> counts_;

  // Window elements, oldest first.
  std::deque<Element> elements_;
  // Dense running aggregate of every live element, one lane per directory
  // slot.
  std::vector<flat::Lane> running_;

  std::shared_ptr<const KVTable> root_;
  // Lineage id of the last recorded root fold; the standing-aggregate
  // reuse record of the next slide points at it (armed sessions only).
  NodeId last_root_id_ = 0;

  // Key-sorted directory indices of the live keys, cached across slides:
  // rebuild_root appends the root's rows to a KVTable::Builder in this
  // order, so a steady-state slide pays no re-sort. Invalidated whenever
  // the live key set or the directory layout changes.
  std::vector<std::uint32_t> root_order_;
  bool root_order_dirty_ = true;

  // Element ids (memoized ones; ids are 0 without a store). A demotion
  // leaves the window it hands to the fallback counted here until the
  // next take, so ids the fallback took over are never reported.
  HeldIds held_;

  // Non-null once poisoned; every call delegates to it.
  std::unique_ptr<ContractionTree> fallback_;
};

}  // namespace slider
