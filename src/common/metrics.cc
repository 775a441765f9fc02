#include "common/metrics.h"

#include <algorithm>

namespace slider {

RunMetrics& RunMetrics::operator+=(const RunMetrics& other) {
  map_work += other.map_work;
  contraction_work += other.contraction_work;
  reduce_work += other.reduce_work;
  shuffle_work += other.shuffle_work;
  memo_read_work += other.memo_read_work;
  background_work += other.background_work;
  time += other.time;
  map_time += other.map_time;
  background_time += other.background_time;
  map_tasks += other.map_tasks;
  combiner_invocations += other.combiner_invocations;
  combiner_reused += other.combiner_reused;
  reduce_tasks += other.reduce_tasks;
  migrations += other.migrations;
  task_attempts += other.task_attempts;
  failed_attempts += other.failed_attempts;
  task_retries += other.task_retries;
  machines_blacklisted += other.machines_blacklisted;
  max_task_attempts = std::max(max_task_attempts, other.max_task_attempts);
  memo_bytes_written += other.memo_bytes_written;
  return *this;
}

}  // namespace slider
