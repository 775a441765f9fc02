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
//
// The segment cleaner (SegmentLog::clean) copies live puts forward with
// their original seq before it deletes a segment, so the merge needs no
// notion of cleaning: a crash at any point of a clean leaves either the
// old record or its same-seq copy (or both) for the merge to find.
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

// Merges the segment logs in `replica_dirs` into the per-key newest state:
// the highest seq wins, the first one scanned on a tie. Torn tails are
// physically repaired so a writer can reopen the logs.
// Counts land in the durability.* instruments and `stats` (if non-null).
std::unordered_map<LogKey, RecoveredEntry> recover_replicas(
    const std::vector<std::string>& replica_dirs, RecoveryStats* stats);

}  // namespace slider::durability
