#include "mapreduce/reduce_runner.h"

#include <deque>

namespace slider {

std::shared_ptr<const KVTable> merge_tables(
    std::vector<std::shared_ptr<const KVTable>> tables,
    const CombineFn& combiner, MergeCost* cost) {
  std::deque<std::shared_ptr<const KVTable>> queue(tables.begin(),
                                                   tables.end());
  if (queue.empty()) return std::make_shared<const KVTable>();
  while (queue.size() > 1) {
    auto a = std::move(queue.front());
    queue.pop_front();
    auto b = std::move(queue.front());
    queue.pop_front();
    MergeStats stats;
    queue.push_back(std::make_shared<const KVTable>(
        KVTable::merge(*a, *b, combiner, &stats)));
    if (cost != nullptr) {
      cost->rows_scanned += stats.rows_scanned;
      ++cost->merges;
    }
  }
  return queue.front();
}

ReduceOutput run_reduce(const JobSpec& job, const KVTable& combined) {
  ReduceOutput out;
  out.keys_in = combined.size();
  // Rows drawn in order from a sorted table stay sorted. The reducer takes
  // std::strings: hand it each row through two strings reused across rows.
  KVTable::Builder rows(combined.size(), combined.byte_size());
  std::string key;
  std::string value;
  for (const RowView r : combined.rows()) {
    key.assign(r.key);
    value.assign(r.value);
    if (auto final_value = job.reducer(key, value)) {
      rows.add(r.key, *final_value);
    }
  }
  out.keys_out = rows.size();
  out.table = std::move(rows).finish();
  out.cpu_cost =
      job.costs.reduce_cpu_per_row * static_cast<double>(out.keys_in);
  return out;
}

}  // namespace slider
