#include "durability/durable_tier.h"

#include <utility>

namespace slider::durability {

DurableTier::DurableTier(std::string root, DurableTierOptions options)
    : root_(std::move(root)), options_(options) {
  logs_.reserve(kDurableReplicas);
  for (std::size_t i = 0; i < kDurableReplicas; ++i) {
    logs_.push_back(
        std::make_unique<SegmentLog>(replica_dir(root_, i), options_.log));
  }
}

std::unordered_map<LogKey, RecoveredEntry> DurableTier::recover(
    RecoveryStats* stats) {
  std::vector<std::string> dirs;
  dirs.reserve(logs_.size());
  for (const auto& log : logs_) dirs.push_back(log->dir());
  return recover_replicas(dirs, stats);
}

std::size_t DurableTier::put(LogKey key, std::uint64_t seq,
                             std::string_view payload) {
  return append(LogRecordType::kPut, key, seq, payload);
}

std::size_t DurableTier::tombstone(LogKey key, std::uint64_t seq) {
  return append(LogRecordType::kTombstone, key, seq, {});
}

std::size_t DurableTier::append(LogRecordType type, LogKey key,
                                std::uint64_t seq, std::string_view payload) {
  std::size_t accepted = 0;
  std::uint64_t record_bytes = 0;
  for (auto& log : logs_) {
    const std::uint64_t appended_before = log->bytes_appended();
    if (!log->append(type, seq, key, payload)) continue;
    ++accepted;
    record_bytes = log->bytes_appended() - appended_before;
  }
  bytes_since_compact_ += record_bytes;
  return accepted;
}

void DurableTier::flush() {
  for (auto& log : logs_) log->flush();
}

void DurableTier::sync() {
  if (options_.log.fsync == FsyncPolicy::kNever) return;
  for (auto& log : logs_) log->sync();
}

void DurableTier::close() {
  for (auto& log : logs_) log->close();
}

bool DurableTier::all_failed() const {
  for (const auto& log : logs_) {
    if (!log->failed()) return false;
  }
  return true;
}

std::size_t DurableTier::reopen_failed() {
  std::size_t reopened = 0;
  for (auto& log : logs_) {
    if (!log->failed()) continue;
    log->reopen();
    if (!log->failed()) ++reopened;
  }
  if (reopened > 0) ++mutation_epoch_;
  return reopened;
}

std::optional<SegmentLog::CompactionResult> DurableTier::maybe_compact(
    const std::unordered_set<LogKey>& live) {
  if (!compaction_due()) return std::nullopt;
  return compact(live);
}

SegmentLog::CompactionResult DurableTier::compact(
    const std::unordered_set<LogKey>& live) {
  SegmentLog::CompactionResult total;
  for (auto& log : logs_) {
    const auto result = log->compact(live);
    total.bytes_before += result.bytes_before;
    total.bytes_after += result.bytes_after;
    total.records_dropped += result.records_dropped;
  }
  bytes_since_compact_ = 0;
  ++mutation_epoch_;
  return total;
}

void DurableTier::set_fault_injector(std::size_t replica,
                                     FaultInjector* injector) {
  if (replica < logs_.size()) logs_[replica]->set_fault_injector(injector);
}

std::uint64_t DurableTier::bytes_on_disk() const {
  std::uint64_t total = 0;
  for (const auto& log : logs_) total += SegmentLog::dir_bytes(log->dir());
  return total;
}

std::uint64_t DurableTier::records_appended() const {
  std::uint64_t total = 0;
  for (const auto& log : logs_) total += log->records_appended();
  return total;
}

}  // namespace slider::durability
