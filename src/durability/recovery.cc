#include "durability/recovery.h"

#include <chrono>
#include <filesystem>
#include <utility>

#include "observability/stats.h"
#include "observability/trace.h"

namespace slider::durability {

namespace fs = std::filesystem;

std::string replica_dir(const std::string& root, std::size_t index) {
  return (fs::path(root) / ("replica-" + std::to_string(index))).string();
}

std::unordered_map<LogKey, RecoveredEntry> recover_replicas(
    const std::vector<std::string>& replica_dirs, RecoveryStats* stats) {
  SLIDER_TRACE_SPAN("durability", "durability.recover");
  const auto start = std::chrono::steady_clock::now();

  RecoveryStats local;
  std::unordered_map<LogKey, LogRecord> merged;
  for (const auto& dir : replica_dirs) {
    ++local.replicas_scanned;
    local.scan += SegmentLog::scan_dir(
        dir,
        [&](const LogRecord& record) {
          const auto [it, inserted] = merged.try_emplace(record.key, record);
          if (inserted) return;
          ++local.duplicate_records;
          if (record.seq > it->second.seq) it->second = record;
        },
        /*repair_torn_tail=*/true);
  }

  std::unordered_map<LogKey, RecoveredEntry> recovered;
  recovered.reserve(merged.size());
  for (auto& [key, winner] : merged) {
    if (winner.type != LogRecordType::kPut) {
      ++local.tombstoned_keys;
      continue;
    }
    recovered.emplace(
        key, RecoveredEntry{winner.seq, std::move(winner.payload)});
  }
  local.entries_recovered = recovered.size();
  local.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  auto& reg = obs::StatsRegistry::global();
  reg.counter("durability.recoveries").add();
  reg.counter("durability.recovered_entries").add(local.entries_recovered);
  reg.gauge("durability.recovery_seconds").set(local.wall_seconds);
  SLIDER_TRACE_EVENT("durability", "durability.recover.done");

  if (stats != nullptr) *stats = std::move(local);
  return recovered;
}

}  // namespace slider::durability
