#include "durability/segment_log.h"

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <filesystem>
#include <system_error>
#include <unordered_set>

#include "common/crc32c.h"
#include "common/logging.h"
#include "data/serde.h"
#include "observability/stats.h"

namespace slider::durability {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kHeaderBytes = 8;      // u32 body_len + u32 crc
constexpr std::size_t kBodyFixedBytes = 17;  // u8 type + u64 seq + u64 key
// A body longer than this is taken as framing garbage rather than a real
// record: resyncing past it would mean trusting a corrupt length to jump
// anywhere in the file, so scans abandon the segment instead.
constexpr std::uint32_t kMaxPlausibleBody = 1u << 30;

struct DurabilityInstruments {
  obs::Counter& records_appended;
  obs::Counter& bytes_appended;
  obs::Counter& bytes_flushed;
  obs::Counter& fsyncs;
  obs::Counter& segments_rotated;
  obs::Counter& segments_compacted;
  obs::Counter& compaction_bytes_reclaimed;
  obs::Counter& bytes_copied_forward;
  obs::Counter& torn_records;
  obs::Counter& crc_failures;
};

DurabilityInstruments& instruments() {
  auto& reg = obs::StatsRegistry::global();
  static DurabilityInstruments inst{
      reg.counter("durability.records_appended"),
      reg.counter("durability.bytes_appended"),
      reg.counter("durability.bytes_flushed"),
      reg.counter("durability.fsyncs"),
      reg.counter("durability.segments_rotated"),
      reg.counter("durability.segments_compacted"),
      reg.counter("durability.compaction_bytes_reclaimed"),
      reg.counter("durability.bytes_copied_forward"),
      reg.counter("durability.torn_records"),
      reg.counter("durability.crc_failures"),
  };
  return inst;
}

std::string segment_name(std::uint64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "seg-%06" PRIu64 ".slog", index);
  return buf;
}

// seg-000042.slog -> 42; nullopt for anything else.
std::optional<std::uint64_t> segment_index(const std::string& filename) {
  constexpr std::string_view kPrefix = "seg-";
  constexpr std::string_view kSuffix = ".slog";
  if (filename.size() <= kPrefix.size() + kSuffix.size()) return std::nullopt;
  if (filename.compare(0, kPrefix.size(), kPrefix) != 0) return std::nullopt;
  if (filename.compare(filename.size() - kSuffix.size(), kSuffix.size(),
                       kSuffix) != 0) {
    return std::nullopt;
  }
  std::uint64_t index = 0;
  bool any = false;
  for (std::size_t i = kPrefix.size(); i < filename.size() - kSuffix.size();
       ++i) {
    const char c = filename[i];
    if (c < '0' || c > '9') return std::nullopt;
    index = index * 10 + static_cast<std::uint64_t>(c - '0');
    any = true;
  }
  if (!any) return std::nullopt;
  return index;
}

std::string encode_record(LogRecordType type, std::uint64_t seq, LogKey key,
                          std::string_view payload) {
  std::string body;
  body.reserve(kBodyFixedBytes + payload.size());
  wire::put_u8(body, static_cast<std::uint8_t>(type));
  wire::put_u64(body, seq);
  wire::put_u64(body, key);
  body.append(payload);

  std::string frame;
  frame.reserve(kHeaderBytes + body.size());
  wire::put_u32(frame, static_cast<std::uint32_t>(body.size()));
  wire::put_u32(frame, crc32c(body));
  frame.append(body);
  return frame;
}

// Scans one segment file. Returns the offset of a torn tail — the size
// the file should be truncated to — or nullopt when there is none.
std::optional<std::uint64_t> scan_segment(const std::string& path,
                                          const SegmentLog::ScanCallback& cb,
                                          LogScanStats& stats) {
  SegmentCursor cursor(path);
  if (!cursor.is_open()) return std::nullopt;
  ++stats.segments_scanned;
  for (;;) {
    switch (cursor.next()) {
      case SegmentCursor::Step::kRecord:
        ++stats.records_scanned;
        stats.bytes_scanned += cursor.offset() - cursor.frame_offset();
        if (cb) cb(cursor.record());
        break;
      case SegmentCursor::Step::kCrcMismatch:
        ++stats.crc_failures;  // skipped; the scan resyncs at the next frame
        break;
      case SegmentCursor::Step::kImplausible:
        ++stats.crc_failures;  // can't resync safely; give up on the segment
        return std::nullopt;
      case SegmentCursor::Step::kTorn:
        ++stats.torn_records;
        return cursor.offset();
      case SegmentCursor::Step::kEnd:
        return std::nullopt;
    }
  }
}

}  // namespace

SegmentCursor::SegmentCursor(const std::string& path, std::uint64_t offset,
                             std::uint64_t bound)
    : file_(std::fopen(path.c_str(), "rb")),
      offset_(offset),
      bound_(std::max(bound, offset)),
      frame_offset_(offset) {
  if (file_ != nullptr &&
      std::fseek(file_, static_cast<long>(offset), SEEK_SET) != 0) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

SegmentCursor::~SegmentCursor() {
  if (file_ != nullptr) std::fclose(file_);
}

SegmentCursor::Step SegmentCursor::next() {
  frame_offset_ = offset_;
  if (file_ == nullptr || offset_ == bound_) return Step::kEnd;
  if (bound_ - offset_ < kHeaderBytes) return Step::kTorn;
  char header[kHeaderBytes];
  const std::size_t got = std::fread(header, 1, sizeof(header), file_);
  if (got == 0) return Step::kEnd;
  if (got < sizeof(header)) return Step::kTorn;
  std::string_view hv(header, sizeof(header));
  std::uint32_t body_len = 0;
  std::uint32_t expect_crc = 0;
  wire::get_u32(hv, &body_len);
  wire::get_u32(hv, &expect_crc);
  if (body_len < kBodyFixedBytes || body_len > kMaxPlausibleBody) {
    return Step::kImplausible;
  }
  if (bound_ - offset_ - kHeaderBytes < body_len) return Step::kTorn;
  body_.resize(body_len);
  if (std::fread(body_.data(), 1, body_len, file_) < body_len) {
    return Step::kTorn;
  }
  offset_ += kHeaderBytes + body_len;
  if (crc32c(body_) != expect_crc) return Step::kCrcMismatch;
  std::string_view body(body_);
  std::uint8_t type = 0;
  wire::get_u8(body, &type);
  wire::get_u64(body, &record_.seq);
  wire::get_u64(body, &record_.key);
  record_.type = static_cast<LogRecordType>(type);
  record_.payload.assign(body);
  return Step::kRecord;
}

LogScanStats& LogScanStats::operator+=(const LogScanStats& o) {
  segments_scanned += o.segments_scanned;
  records_scanned += o.records_scanned;
  bytes_scanned += o.bytes_scanned;
  torn_records += o.torn_records;
  crc_failures += o.crc_failures;
  return *this;
}

SegmentLog::SegmentLog(std::string dir, SegmentLogOptions options)
    : dir_(std::move(dir)), options_(std::move(options)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  // Continue numbering after any existing (sealed) segments.
  for (const auto& path : list_segments(dir_)) {
    const auto index = segment_index(fs::path(path).filename().string());
    if (index.has_value() && *index >= next_segment_index_) {
      next_segment_index_ = *index + 1;
    }
  }
  open_fresh_segment();
}

SegmentLog::~SegmentLog() { close(); }

void SegmentLog::open_fresh_segment() {
  active_path_ = (fs::path(dir_) / segment_name(next_segment_index_)).string();
  ++next_segment_index_;
  active_ = std::fopen(active_path_.c_str(), "wb");
  if (active_ == nullptr) {
    SLIDER_LOG(Warning) << "segment log: cannot open " << active_path_;
    failed_ = true;
  }
  active_bytes_ = 0;
  unflushed_bytes_ = 0;
}

void SegmentLog::rotate() {
  if (active_ != nullptr) {
    std::fflush(active_);
    if (options_.fsync != FsyncPolicy::kNever) {
      instruments().fsyncs.add();
      ::fsync(fileno(active_));
    }
    std::fclose(active_);
    active_ = nullptr;
  }
  ++segments_rotated_;
  instruments().segments_rotated.add();
  open_fresh_segment();
}

bool SegmentLog::write_raw(std::string_view bytes) {
  if (active_ == nullptr) {
    failed_ = true;
    return false;
  }
  std::size_t admitted = bytes.size();
  if (injector_ != nullptr) admitted = injector_->admit(bytes.size());
  if (admitted > 0) {
    const std::size_t written = std::fwrite(bytes.data(), 1, admitted, active_);
    if (written < admitted) admitted = written;
  }
  if (admitted < bytes.size()) {
    // Torn write: flush whatever prefix reached the file (so the on-disk
    // state is exactly what a crash would leave) and fail permanently.
    std::fflush(active_);
    failed_ = true;
    return false;
  }
  active_bytes_ += bytes.size();
  unflushed_bytes_ += bytes.size();
  return true;
}

bool SegmentLog::append(LogRecordType type, std::uint64_t seq, LogKey key,
                        std::string_view payload) {
  if (failed_) return false;
  const std::string frame = encode_record(type, seq, key, payload);
  if (!write_raw(frame)) return false;
  bytes_appended_ += frame.size();
  ++records_appended_;
  instruments().records_appended.add();
  instruments().bytes_appended.add(frame.size());
  flush();
  if (options_.fsync == FsyncPolicy::kEveryAppend) sync();
  if (active_bytes_ >= options_.segment_bytes) rotate();
  return true;
}

void SegmentLog::flush() {
  if (active_ == nullptr) return;
  std::fflush(active_);
  instruments().bytes_flushed.add(unflushed_bytes_);
  unflushed_bytes_ = 0;
}

void SegmentLog::sync() {
  if (active_ == nullptr) return;
  flush();
  instruments().fsyncs.add();
  ::fsync(fileno(active_));
}

void SegmentLog::reopen() {
  if (!failed_) return;
  // Abandon the torn active segment (a crash would have left the same
  // prefix; recovery truncates it) and continue in a fresh one.
  if (active_ != nullptr) {
    std::fflush(active_);
    std::fclose(active_);
    active_ = nullptr;
  }
  failed_ = false;
  open_fresh_segment();
}

void SegmentLog::close() {
  if (active_ == nullptr) return;
  flush();
  if (options_.fsync != FsyncPolicy::kNever) {
    instruments().fsyncs.add();
    ::fsync(fileno(active_));
  }
  std::fclose(active_);
  active_ = nullptr;
}

void SegmentLog::clean(std::uint64_t max_bytes, const LivePredicate& live) {
  if (failed_) return;
  // Sealed segments oldest first with their sizes; every append is
  // flushed, so the active segment's size on disk is current too.
  std::vector<std::pair<std::string, std::uint64_t>> sealed;
  std::uint64_t on_disk = 0;
  for (std::string& path : list_segments(dir_)) {
    std::error_code ec;
    const std::uint64_t size = fs::file_size(path, ec);
    if (ec) continue;
    on_disk += size;
    if (path != active_path_) sealed.emplace_back(std::move(path), size);
  }

  std::size_t cleaned = 0;
  std::uint64_t cleaned_bytes = 0;
  std::uint64_t copied = 0;
  std::unordered_set<LogKey> dropped_puts;
  while (cleaned < sealed.size() && on_disk > max_bytes && !failed_) {
    const auto& [path, size] = sealed[cleaned++];
    cleaned_bytes += size;
    on_disk -= size;
    SegmentCursor cursor(path);
    for (;;) {
      const SegmentCursor::Step step = cursor.next();
      if (step == SegmentCursor::Step::kCrcMismatch) continue;
      if (step != SegmentCursor::Step::kRecord) break;
      const LogRecord& record = cursor.record();
      bool keep;
      if (record.type == LogRecordType::kPut) {
        keep = live(record.key, record.seq);
        if (!keep) dropped_puts.insert(record.key);
      } else {
        // Carried while a put it shadows sits in a segment this clean
        // deletes; once those are gone, the next clean drops it.
        keep = dropped_puts.count(record.key) != 0;
      }
      if (!keep) continue;
      const std::string frame = encode_record(record.type, record.seq,
                                              record.key, record.payload);
      if (!write_raw(frame)) break;
      copied += frame.size();
      on_disk += frame.size();
      if (active_bytes_ >= options_.segment_bytes) rotate();
    }
  }
  if (cleaned == 0 || failed_) return;  // a torn copy keeps them all
  if (copied > 0) {
    if (options_.fsync == FsyncPolicy::kNever) {
      flush();
    } else {
      sync();
    }
  }
  std::error_code ec;
  for (std::size_t i = 0; i < cleaned; ++i) fs::remove(sealed[i].first, ec);
  instruments().segments_compacted.add(cleaned);
  instruments().bytes_copied_forward.add(copied);
  if (cleaned_bytes > copied) {
    instruments().compaction_bytes_reclaimed.add(cleaned_bytes - copied);
  }
}

LogScanStats SegmentLog::scan_dir(const std::string& dir,
                                  const ScanCallback& cb,
                                  bool repair_torn_tail) {
  LogScanStats stats;
  for (const auto& path : list_segments(dir)) {
    const auto truncate_to = scan_segment(path, cb, stats);
    if (truncate_to.has_value() && repair_torn_tail) {
      std::error_code ec;
      fs::resize_file(path, *truncate_to, ec);
      if (ec) {
        SLIDER_LOG(Warning)
            << "segment log: cannot repair torn tail of " << path;
      }
    }
  }
  instruments().torn_records.add(stats.torn_records);
  instruments().crc_failures.add(stats.crc_failures);
  return stats;
}

std::vector<std::string> SegmentLog::list_segments(const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::string>> indexed;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) return {};
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    const auto index = segment_index(entry.path().filename().string());
    if (!index.has_value()) continue;
    indexed.emplace_back(*index, entry.path().string());
  }
  std::sort(indexed.begin(), indexed.end());
  std::vector<std::string> paths;
  paths.reserve(indexed.size());
  for (auto& [index, path] : indexed) paths.push_back(std::move(path));
  return paths;
}

std::uint64_t SegmentLog::dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& path : list_segments(dir)) {
    std::error_code ec;
    const auto size = fs::file_size(path, ec);
    if (!ec) total += static_cast<std::uint64_t>(size);
  }
  return total;
}

}  // namespace slider::durability
