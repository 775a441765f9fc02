// Replicated persistent tier for the memoization layer (paper §6).
//
// A DurableTier owns kDurableReplicas segment logs under one root directory:
//
//   <root>/replica-0/seg-*.slog
//   <root>/replica-1/seg-*.slog
//
// and mirrors every put/tombstone into all of them, so any single replica
// surviving intact is enough to recover every entry. Writer sequence
// numbers are assigned by the caller (MemoStore owns the sequence space);
// recovery merges replicas by highest seq per key (recovery.h).
//
// Every memo GC (MemoStore::erase_released, MemoStore::retain_only) runs
// clean(): each replica's oldest segments are cleaned while the replica
// holds more than kCleanFactor times the store's live payload bytes plus
// one segment. Liveness comes from the store's index, so the tier keeps
// no per-key state of its own.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "durability/recovery.h"
#include "durability/segment_log.h"

namespace slider::durability {

// Replica logs per tier. MemoStore::kReplicas bills the same copies in the
// cost model; memo_store.cc checks at compile time that the two agree.
inline constexpr std::size_t kDurableReplicas = 2;

// clean() keeps each replica within this many times the live payload
// bytes, plus one segment.
inline constexpr std::uint64_t kCleanFactor = 2;

struct DurableTierOptions {
  SegmentLogOptions log;
};

class DurableTier {
 public:
  explicit DurableTier(std::string root, DurableTierOptions options = {});

  DurableTier(const DurableTier&) = delete;
  DurableTier& operator=(const DurableTier&) = delete;

  // Merges all replica logs into the newest per-key state (tolerating torn
  // tails and corrupt records per the SegmentLog recovery contract). Call
  // before the first put of a fresh process; appends made earlier in this
  // process would be scanned too (harmlessly — they are the newest).
  std::unordered_map<LogKey, RecoveredEntry> recover(
      RecoveryStats* stats = nullptr);

  // Appends one put/tombstone to every replica. Returns how many replicas
  // accepted the record — 0 means the entry is not durable at all, any
  // value > 0 means it will survive recovery.
  std::size_t put(LogKey key, std::uint64_t seq, std::string_view payload);
  std::size_t tombstone(LogKey key, std::uint64_t seq);

  void flush();
  // Fsyncs every replica's active segment, unless the fsync policy is
  // kNever. Appends reach the page cache one by one, so afterwards every
  // record appended so far survives a power cut.
  void sync();
  void close();

  // True when every replica log has failed (nothing is durable anymore).
  bool all_failed() const;

  // Reopens every failed replica log in a fresh segment (degraded-mode
  // recovery: transient write errors mark logs failed; once the condition
  // clears, reopen and resume). Returns how many logs were reopened.
  std::size_t reopen_failed();

  // Cleans every healthy replica (SegmentLog::clean) while it holds more
  // than kCleanFactor * `live_bytes` plus one segment.
  void clean(std::uint64_t live_bytes, const SegmentLog::LivePredicate& live);

  // Fault injection on one replica's low-level writes. Not owned.
  void set_fault_injector(std::size_t replica, FaultInjector* injector);

  const std::string& root() const { return root_; }
  std::size_t replicas() const { return logs_.size(); }
  SegmentLog& log(std::size_t replica) { return *logs_[replica]; }
  std::uint64_t bytes_on_disk() const;
  std::uint64_t records_appended() const;

 private:
  // Mirrors one record into every replica; returns how many accepted it.
  std::size_t append(LogRecordType type, LogKey key, std::uint64_t seq,
                     std::string_view payload);

  std::string root_;
  DurableTierOptions options_;
  std::vector<std::unique_ptr<SegmentLog>> logs_;
};

}  // namespace slider::durability
