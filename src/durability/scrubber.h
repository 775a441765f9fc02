// Online integrity scrubbing + anti-entropy replica repair (paper §6,
// extended for long-lived serving: recovery-time merging is not enough
// when the process does not restart for weeks).
//
// An IntegrityScrubber walks a DurableTier's at-rest segment records in
// budgeted slices — the session drives one slice per slide boundary
// (SliderConfig::scrub_records_per_slide; 0 keeps the scrubber disarmed
// with zero overhead). A full pass over every replica:
//
//   1. re-verifies each record's CRC32C frame against the bytes on disk;
//   2. tracks the newest seq per key per replica, plus a global winner
//      locator (replica, segment, offset) for each key;
//   3. at pass end, cross-checks replicas against the winners: a replica
//      whose newest seq for a key lags the winner is healed by re-reading
//      the winner frame from the donor replica (re-verified) and
//      re-appending it — recovery merges by max seq per key, so duplicate
//      same-seq records are harmless;
//   4. a segment with a corrupt frame is quarantined: its still-decodable
//      records are re-appended to the replica's live log, then the file is
//      renamed `*.quarantine` (never deleted; the `seg-*.slog` pattern in
//      list_segments keeps quarantined files out of every future scan).
//
// Conservation invariant, counted at resolution time so it holds at every
// instant: corruptions_detected == repairs + quarantines. A detection that
// cannot be resolved yet (replica log failed/degraded, donor unreadable)
// is not counted and is retried on the next pass.
//
// Concurrency: the scrubber is NOT thread-safe and shares segment files
// with the writer — MemoStore drives it under the same durable mutex that
// serializes appends, cleaning, and the degraded-mode drain. Between
// slices the segment cleaner may delete snapshot segments; it first copies
// their live records past the snapshot bounds, where this pass does not
// look. So a vanished segment counts as finished, a replica that lost one
// before scanning it sits out the pass's cross-check (the next pass's
// snapshot covers it), and a winner whose donor segment vanished was moved
// by the cleaner, not lost.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "durability/durable_tier.h"

namespace slider::durability {

struct ScrubStats {
  std::uint64_t records_verified = 0;
  std::uint64_t bytes_verified = 0;
  std::uint64_t corruptions_detected = 0;
  std::uint64_t repairs = 0;      // healed via re-append from a donor replica
  std::uint64_t quarantines = 0;  // corrupt segments renamed *.quarantine
  std::uint64_t repair_bytes_written = 0;
  std::uint64_t full_passes = 0;  // completed walks of the whole tier

  // Every detection is resolved as exactly one repair or one quarantine.
  bool conserved() const {
    return corruptions_detected == repairs + quarantines;
  }

  ScrubStats& operator+=(const ScrubStats& o) {
    records_verified += o.records_verified;
    bytes_verified += o.bytes_verified;
    corruptions_detected += o.corruptions_detected;
    repairs += o.repairs;
    quarantines += o.quarantines;
    repair_bytes_written += o.repair_bytes_written;
    full_passes += o.full_passes;
    return *this;
  }
};

class IntegrityScrubber {
 public:
  explicit IntegrityScrubber(DurableTier& tier);

  IntegrityScrubber(const IntegrityScrubber&) = delete;
  IntegrityScrubber& operator=(const IntegrityScrubber&) = delete;

  // Verifies up to `record_budget` at-rest record frames, resuming where
  // the previous slice left off; the slice that finishes the last replica
  // also runs the cross-replica anti-entropy check and its repairs.
  // Returns the slice's delta (also folded into stats()). The caller must
  // hold whatever lock serializes writes to the tier.
  ScrubStats scrub_slice(std::uint64_t record_budget);

  // Lifetime totals across every slice.
  const ScrubStats& stats() const { return stats_; }

 private:
  struct SegmentState {
    std::string path;        // current path (updated on quarantine rename)
    std::uint64_t bound = 0; // size at pass start; bytes past it are unscanned
  };
  // Where the newest copy of a key lives, for donor re-reads at pass end.
  struct Winner {
    std::uint64_t seq = 0;
    std::uint32_t replica = 0;
    std::uint32_t segment = 0;  // index into segments_[replica]
    std::uint64_t offset = 0;   // frame start within the segment file
  };

  void begin_pass();
  // Scans frames of the current segment until the budget runs out or the
  // segment is finished. Returns true when the segment is finished.
  bool scan_segment_slice(ScrubStats& slice, std::uint64_t& budget);
  // Segment finished: quarantine it if corrupt, then advance the cursor.
  void finish_segment(ScrubStats& slice);
  void cross_check(ScrubStats& slice);

  DurableTier& tier_;
  ScrubStats stats_;

  bool pass_active_ = false;
  std::vector<std::vector<SegmentState>> segments_;  // per replica, oldest first
  // Per replica: a snapshot segment vanished before the pass finished
  // scanning it, so this pass's view of the replica is incomplete.
  std::vector<bool> lost_segment_;
  std::size_t replica_i_ = 0;
  std::size_t segment_i_ = 0;
  std::uint64_t offset_ = 0;
  bool segment_corrupt_ = false;
  // Intact records of the in-progress segment, kept so a quarantine can
  // re-append them to the live log (bounded by the segment size).
  std::vector<LogRecord> survivors_;
  std::vector<std::unordered_map<LogKey, std::uint64_t>> newest_;  // per replica
  std::unordered_map<LogKey, Winner> winners_;
};

}  // namespace slider::durability
