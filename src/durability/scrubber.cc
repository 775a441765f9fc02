#include "durability/scrubber.h"

#include <filesystem>
#include <system_error>

#include "common/logging.h"
#include "observability/flight_recorder.h"
#include "observability/stats.h"

namespace slider::durability {
namespace {

namespace fs = std::filesystem;
using Step = SegmentCursor::Step;

}  // namespace

IntegrityScrubber::IntegrityScrubber(DurableTier& tier) : tier_(tier) {}

void IntegrityScrubber::begin_pass() {
  // Flush active segments so every completed append is within the bounds
  // we are about to snapshot.
  tier_.flush();
  segments_.assign(tier_.replicas(), {});
  lost_segment_.assign(tier_.replicas(), false);
  newest_.assign(tier_.replicas(), {});
  winners_.clear();
  survivors_.clear();
  replica_i_ = 0;
  segment_i_ = 0;
  offset_ = 0;
  segment_corrupt_ = false;
  bool any = false;
  for (std::size_t r = 0; r < tier_.replicas(); ++r) {
    for (const std::string& path :
         SegmentLog::list_segments(tier_.log(r).dir())) {
      std::error_code ec;
      const auto size = fs::file_size(path, ec);
      if (ec) continue;
      segments_[r].push_back(
          SegmentState{path, static_cast<std::uint64_t>(size)});
      any = any || size > 0;
    }
  }
  pass_active_ = any;
}

bool IntegrityScrubber::scan_segment_slice(ScrubStats& slice,
                                           std::uint64_t& budget) {
  const SegmentState& seg = segments_[replica_i_][segment_i_];
  // Reopened every slice: between slices the segment may be quarantined
  // (renamed) or cleaned away.
  SegmentCursor cursor(seg.path, offset_, seg.bound);
  if (!cursor.is_open()) {
    // Cleaned: its live records were copied past this pass's bounds, and
    // whatever corruption it held went with it.
    lost_segment_[replica_i_] = true;
    segment_corrupt_ = false;
    survivors_.clear();
    return true;
  }
  while (budget > 0) {
    const Step step = cursor.next();
    // Bit rot (a plausible length, so the cursor resyncs at the next frame
    // and the scan keeps collecting survivors) or framing garbage (the
    // rest of the segment is unverifiable). Either way the segment is
    // quarantined once the scan reaches its end.
    if ((step == Step::kCrcMismatch || step == Step::kImplausible) &&
        !segment_corrupt_) {
      segment_corrupt_ = true;
      obs::FlightRecorder::global().note_fault(
          "scrub_corruption",
          std::string(step == Step::kCrcMismatch ? "crc mismatch"
                                                 : "implausible frame length") +
              " in " + seg.path + " at offset " +
              std::to_string(cursor.frame_offset()));
    }
    // A torn tail is relative to the snapshot bound: appends after it are
    // the next pass's business.
    if (step != Step::kRecord && step != Step::kCrcMismatch) return true;
    offset_ = cursor.offset();
    --budget;
    if (step == Step::kCrcMismatch) continue;

    const LogRecord& record = cursor.record();
    ++slice.records_verified;
    slice.bytes_verified += cursor.offset() - cursor.frame_offset();
    auto& replica_newest = newest_[replica_i_][record.key];
    if (record.seq > replica_newest) replica_newest = record.seq;
    Winner& win = winners_[record.key];
    if (record.seq > win.seq) {
      win.seq = record.seq;
      win.replica = static_cast<std::uint32_t>(replica_i_);
      win.segment = static_cast<std::uint32_t>(segment_i_);
      win.offset = cursor.frame_offset();
    }
    // Survivors are only kept once corruption has been seen (the frames
    // the resync scan recovered *after* the first corrupt one); the intact
    // prefix before it is re-read from the file by finish_segment(), so
    // the happy path never copies payloads aside.
    if (segment_corrupt_) survivors_.push_back(record);
  }
  return false;
}

void IntegrityScrubber::finish_segment(ScrubStats& slice) {
  SegmentState& seg = segments_[replica_i_][segment_i_];
  if (segment_corrupt_) {
    SegmentLog& log = tier_.log(replica_i_);
    if (!log.failed()) {
      // Seal the active segment first: renaming the file under the writer
      // would silently divert future appends into the quarantine file.
      if (seg.path == log.active_path()) log.rotate_now();
      // Re-append the segment's still-decodable records to the live log
      // (original seqs: recovery merges by max seq, duplicates are
      // harmless). The intact prefix before the first corrupt frame was
      // not copied aside during the scan; re-read it from the file — the
      // read stops exactly at the corrupt frame. Frames the resync scan
      // recovered past it are in survivors_.
      const std::uint64_t appended_before = log.bytes_appended();
      bool saved = true;
      SegmentCursor prefix(seg.path, 0, seg.bound);
      while (saved && prefix.next() == Step::kRecord) {
        const LogRecord& record = prefix.record();
        saved = log.append(record.type, record.seq, record.key,
                           record.payload);
      }
      for (std::size_t i = 0; saved && i < survivors_.size(); ++i) {
        const LogRecord& record = survivors_[i];
        saved = log.append(record.type, record.seq, record.key,
                           record.payload);
      }
      slice.repair_bytes_written += log.bytes_appended() - appended_before;
      log.flush();
      if (saved) {
        const std::string quarantine_path = seg.path + ".quarantine";
        std::error_code ec;
        fs::rename(seg.path, quarantine_path, ec);
        if (!ec) {
          SLIDER_LOG(Warning)
              << "scrub: quarantined corrupt segment " << seg.path << " -> "
              << quarantine_path;
          seg.path = quarantine_path;  // winner locators keep resolving
          ++slice.corruptions_detected;
          ++slice.quarantines;
          obs::FlightRecorder::global().note_fault(
              "scrub_quarantine", quarantine_path);
        }
      }
      // On any failure above the detection stays uncounted and the segment
      // stays in place; the next pass retries once the log is healthy.
    }
  }
  survivors_.clear();
  segment_corrupt_ = false;
  ++segment_i_;
  offset_ = 0;
}

void IntegrityScrubber::cross_check(ScrubStats& slice) {
  for (const auto& [key, win] : winners_) {
    for (std::size_t r = 0; r < newest_.size(); ++r) {
      if (r == win.replica || lost_segment_[r]) continue;
      const auto it = newest_[r].find(key);
      if (it != newest_[r].end() && it->second >= win.seq) continue;
      // Replica r lags the winner for this key: anti-entropy repair by
      // re-appending the donor's copy (re-verified from disk; the donor
      // segment may since have been quarantined, which only renamed it,
      // or cleaned, which moved a live record where the next pass finds
      // it).
      const SegmentState& donor_seg = segments_[win.replica][win.segment];
      SegmentCursor donor_cursor(donor_seg.path, win.offset);
      if (!donor_cursor.is_open()) continue;
      const LogRecord& donor = donor_cursor.record();
      if (donor_cursor.next() != Step::kRecord || donor.key != key ||
          donor.seq != win.seq) {
        obs::FlightRecorder::global().note_fault(
            "scrub_donor_lost",
            "donor frame unreadable in " + donor_seg.path,
            /*sim_time=*/-1, /*machine=*/-1, /*request_dump=*/false);
        continue;
      }
      SegmentLog& log = tier_.log(r);
      if (log.failed()) continue;  // degraded; the next pass retries
      const std::uint64_t appended_before = log.bytes_appended();
      if (!log.append(donor.type, donor.seq, donor.key, donor.payload)) {
        continue;
      }
      ++slice.corruptions_detected;
      ++slice.repairs;
      slice.repair_bytes_written += log.bytes_appended() - appended_before;
      obs::FlightRecorder::global().note_fault(
          "scrub_divergence",
          "replica " + std::to_string(r) + " healed for key " +
              std::to_string(key) + " to seq " + std::to_string(win.seq),
          /*sim_time=*/-1, /*machine=*/-1, /*request_dump=*/false);
    }
  }
  for (std::size_t r = 0; r < tier_.replicas(); ++r) {
    if (!tier_.log(r).failed()) tier_.log(r).flush();
  }
  ++slice.full_passes;
}

ScrubStats IntegrityScrubber::scrub_slice(std::uint64_t record_budget) {
  ScrubStats slice;
  if (record_budget == 0) return slice;
  if (!pass_active_) begin_pass();
  std::uint64_t budget = record_budget;
  while (pass_active_ && budget > 0) {
    while (replica_i_ < segments_.size() &&
           segment_i_ >= segments_[replica_i_].size()) {
      ++replica_i_;
      segment_i_ = 0;
      offset_ = 0;
    }
    if (replica_i_ >= segments_.size()) {
      cross_check(slice);
      pass_active_ = false;
      break;
    }
    if (scan_segment_slice(slice, budget)) finish_segment(slice);
  }
  // Process-wide outcome counters (slider_scrub_*_total), looked up once.
  // They conserve like ScrubStats: detected == repairs + quarantines.
  obs::StatsRegistry& stats = obs::StatsRegistry::global();
  static obs::Counter& verified = stats.counter("scrub.records_verified");
  static obs::Counter& detected = stats.counter("scrub.corruptions_detected");
  static obs::Counter& repairs = stats.counter("scrub.repairs");
  static obs::Counter& quarantines = stats.counter("scrub.quarantines");
  verified.add(slice.records_verified);
  detected.add(slice.corruptions_detected);
  repairs.add(slice.repairs);
  quarantines.add(slice.quarantines);
  stats_ += slice;
  return slice;
}

}  // namespace slider::durability
