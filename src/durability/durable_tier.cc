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
  for (auto& log : logs_) {
    if (log->append(type, seq, key, payload)) ++accepted;
  }
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
  return reopened;
}

void DurableTier::clean(std::uint64_t live_bytes,
                        const SegmentLog::LivePredicate& live) {
  const std::uint64_t max_bytes =
      kCleanFactor * live_bytes + options_.log.segment_bytes;
  for (auto& log : logs_) log->clean(max_bytes, live);
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
