// Log-structured segment store (paper §6, made real).
//
// An append-only log of length-prefixed, CRC32C-checksummed records,
// split across rotating segment files:
//
//   <dir>/seg-000001.slog, seg-000002.slog, ...
//
// Record wire format (little-endian, built on slider::wire):
//
//   [u32 body_len][u32 crc32c(body)][body]
//   body = [u8 type][u64 seq][u64 key][payload (body_len - 17 bytes)]
//
// The writer rotates to a fresh segment once the active one exceeds
// `segment_bytes`, flushes after every record, and fsyncs per policy.
// Every process (re)start opens a fresh segment — sealed segments are
// immutable, which is what makes tail-scan recovery and cleaning simple.
//
// SegmentCursor is the only reader of the framing: recovery scans, the
// integrity scrubber and the chaos engine all walk frames through it.
//
// Recovery contract (see recovery.h for the replica-merging layer):
//   * a torn record at the tail (incomplete header or body — the shape a
//     crash mid-write leaves behind) is truncated away and counted;
//   * a checksum-mismatched record mid-file is skipped and counted; the
//     scan resyncs at the next frame using the (untrusted) length, and
//     gives up on the segment if the length is implausible;
//   * everything else is surfaced to the callback in append order.
//
// Cleaning (the memo GC's log half, in the style of log-structured file
// systems) walks sealed segments oldest first, copies each put the caller
// still holds to the active segment with its original seq, and deletes
// the cleaned segments once the copies are flushed. Oldest first is what
// lets it drop tombstones: by the time a tombstone's segment is cleaned,
// every older segment, and so every put it shadows, is gone.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "durability/fault_injector.h"

namespace slider::durability {

using LogKey = std::uint64_t;

enum class FsyncPolicy : std::uint8_t {
  kNever,        // rely on the OS page cache (tests, benches)
  kOnRotate,     // fsync each segment as it seals + on close
  kEveryAppend,  // fsync after every record (durable but slow)
};

struct SegmentLogOptions {
  std::uint64_t segment_bytes = 1ull << 20;  // rotate threshold
  FsyncPolicy fsync = FsyncPolicy::kNever;
};

enum class LogRecordType : std::uint8_t {
  kPut = 1,
  kTombstone = 2,  // key erased (explicit erase / budget eviction)
};

struct LogRecord {
  LogRecordType type = LogRecordType::kPut;
  std::uint64_t seq = 0;  // writer-assigned, monotone across segments
  LogKey key = 0;
  std::string payload;  // empty for tombstones
};

struct LogScanStats {
  std::uint64_t segments_scanned = 0;
  std::uint64_t records_scanned = 0;  // intact records delivered
  std::uint64_t bytes_scanned = 0;
  std::uint64_t torn_records = 0;   // incomplete tails dropped
  std::uint64_t crc_failures = 0;   // checksum mismatches skipped

  LogScanStats& operator+=(const LogScanStats& o);
};

// Walks the frames of one segment file, opened at `offset` (a frame
// start). Frames reaching past `bound` bytes read as torn, so a caller can
// stop at a size it snapshotted earlier; by default the file's end is the
// only bound. Each next() examines one frame; a scan ends at the first
// kTorn, kImplausible or kEnd.
class SegmentCursor {
 public:
  enum class Step : std::uint8_t {
    kRecord,       // intact frame, decoded into record()
    kCrcMismatch,  // plausible length but bad checksum: skipped, and the
                   // cursor resyncs at the next frame by that length
    kTorn,         // incomplete header or body at the end of the file or
                   // past the bound (a crash mid-write); offset() is its start
    kImplausible,  // length no record can have: framing garbage, and
                   // resyncing would trust it to jump anywhere
    kEnd,          // clean end of the frames (or the file could not be read)
  };

  explicit SegmentCursor(
      const std::string& path, std::uint64_t offset = 0,
      std::uint64_t bound = std::numeric_limits<std::uint64_t>::max());
  ~SegmentCursor();

  SegmentCursor(const SegmentCursor&) = delete;
  SegmentCursor& operator=(const SegmentCursor&) = delete;

  bool is_open() const { return file_ != nullptr; }
  Step next();
  // The record of the last kRecord step; its buffers are reused by the
  // next step.
  const LogRecord& record() const { return record_; }
  // Start of the frame the last step examined.
  std::uint64_t frame_offset() const { return frame_offset_; }
  // Start of the next frame: past a kRecord or kCrcMismatch frame, else
  // unchanged (a torn or implausible frame's own start).
  std::uint64_t offset() const { return offset_; }

 private:
  std::FILE* file_ = nullptr;
  std::uint64_t offset_;
  std::uint64_t bound_;
  std::uint64_t frame_offset_;
  std::string body_;
  LogRecord record_;
};

class SegmentLog {
 public:
  explicit SegmentLog(std::string dir, SegmentLogOptions options = {});
  ~SegmentLog();

  SegmentLog(const SegmentLog&) = delete;
  SegmentLog& operator=(const SegmentLog&) = delete;

  // Appends one record. Returns false — and permanently marks the log
  // failed — when the fault injector cut the write short (torn record on
  // disk) or the underlying file write failed.
  bool append(LogRecordType type, std::uint64_t seq, LogKey key,
              std::string_view payload);

  // fflush() the active segment (counts durability.bytes_flushed).
  void flush();
  // flush + fsync the active segment (counts durability.fsyncs).
  void sync();
  void close();

  bool failed() const { return failed_; }

  // Clears the failed flag and resumes appending in a fresh segment (the
  // torn segment stays behind; tail-scan recovery already tolerates it).
  // This is the degraded-mode recovery hook: a transient write error (disk
  // full, injected fault) marks the log failed, and once the condition
  // clears the owner reopens instead of discarding the log forever. No-op
  // on a healthy log.
  void reopen();

  // Injects write faults on the *next* low-level writes. Not owned.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  const std::string& dir() const { return dir_; }
  // Path of the segment currently open for append. The scrubber must not
  // quarantine (rename) this file under the writer; it seals it first.
  const std::string& active_path() const { return active_path_; }
  // Seals the active segment and continues in a fresh one (the scrubber's
  // pre-quarantine hook). No-op on a failed log.
  void rotate_now() {
    if (!failed_) rotate();
  }
  std::uint64_t bytes_appended() const { return bytes_appended_; }
  std::uint64_t records_appended() const { return records_appended_; }
  std::uint64_t segments_rotated() const { return segments_rotated_; }

  // Whether a put is still its key's current record: the cleaner's
  // liveness test, answered by the caller's index.
  using LivePredicate = std::function<bool(LogKey key, std::uint64_t seq)>;

  // Cleans sealed segments oldest first while the segments on disk exceed
  // `max_bytes`. Each put `live` accepts is appended to the active
  // segment with its original seq and payload. A tombstone is carried
  // forward only when this clean dropped an older put of its key, so the
  // cleaned segments may vanish in any order; every other record is
  // dropped. The cleaned segments are deleted only after the copies are
  // flushed (and fsynced unless the policy is kNever); a torn copy keeps
  // them all. A segment that vanished counts as cleaned. No-op on a
  // failed log.
  void clean(std::uint64_t max_bytes, const LivePredicate& live);

  // --- static scan interface (usable without opening for append) ------

  using ScanCallback = std::function<void(const LogRecord&)>;

  // Scans every segment in `dir` oldest-first, invoking `cb` for each
  // intact record. With `repair_torn_tail`, an incomplete trailing record
  // is physically truncated away so a reopened writer never follows
  // garbage.
  static LogScanStats scan_dir(const std::string& dir, const ScanCallback& cb,
                               bool repair_torn_tail);

  // Segment files in `dir`, sorted oldest-first. Empty if no directory.
  static std::vector<std::string> list_segments(const std::string& dir);

  // Total size of all segment files in `dir`.
  static std::uint64_t dir_bytes(const std::string& dir);

 private:
  void open_fresh_segment();
  void rotate();
  // Low-level write honoring the fault injector; updates failed_.
  bool write_raw(std::string_view bytes);

  std::string dir_;
  SegmentLogOptions options_;
  std::FILE* active_ = nullptr;
  std::string active_path_;
  std::uint64_t next_segment_index_ = 1;
  std::uint64_t active_bytes_ = 0;
  std::uint64_t unflushed_bytes_ = 0;
  std::uint64_t bytes_appended_ = 0;
  std::uint64_t records_appended_ = 0;
  std::uint64_t segments_rotated_ = 0;
  bool failed_ = false;
  FaultInjector* injector_ = nullptr;
};

}  // namespace slider::durability
