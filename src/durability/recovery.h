// Replica-merging recovery (paper §6: two persistent copies of every memo
// entry survive single-replica loss).
//
// The durable tier keeps one segment log per replica:
//
//   <root>/replica-0/seg-*.slog
//   <root>/replica-1/seg-*.slog
//
// Recovery scans every replica's log (tolerating torn tails and CRC
// failures per the SegmentLog recovery contract) and merges records by
// key: the record with the highest writer sequence number wins, across
// replicas. A key whose winning record is a tombstone is dropped. Because
// both replicas carry every record, a record lost to corruption in one
// replica is still served from the other — the property the bit-flip
// fault-injection tests pin down.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "durability/segment_log.h"

namespace slider::durability {

struct RecoveredEntry {
  std::uint64_t seq = 0;
  std::string payload;
};

struct RecoveryStats {
  LogScanStats scan;  // summed over all replicas
  std::uint64_t replicas_scanned = 0;
  std::uint64_t entries_recovered = 0;   // live keys after the merge
  std::uint64_t tombstoned_keys = 0;     // keys whose winner was a tombstone
  std::uint64_t duplicate_records = 0;   // superseded by a higher seq
  double wall_seconds = 0;
};

// Path of replica `index` under a durable-tier root.
std::string replica_dir(const std::string& root, std::size_t index);

// The merge behind recovery and SegmentLog::compact: scans the segment
// logs in `dirs` (repairing torn tails) and keeps the newest record of
// every key — the highest seq, the first one scanned on a tie — tombstones
// included. Fills `stats.scan`, `replicas_scanned` and `duplicate_records`.
std::unordered_map<LogKey, LogRecord> newest_records(
    const std::vector<std::string>& dirs, RecoveryStats& stats);

// Merges the segment logs in `replica_dirs` into the per-key newest state.
// Torn tails are physically repaired so a writer can reopen the logs.
// Counts land in the durability.* instruments and `stats` (if non-null).
std::unordered_map<LogKey, RecoveredEntry> recover_replicas(
    const std::vector<std::string>& replica_dirs, RecoveryStats* stats);

}  // namespace slider::durability
