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
  std::vector<Record> rows;
  rows.reserve(combined.size());
  for (const Record& r : combined.rows()) {
    if (auto final_value = job.reducer(r.key, r.value)) {
      rows.push_back({r.key, *std::move(final_value)});
    }
  }
  out.keys_out = rows.size();
  // The reducer may drop keys; the table lives on, so drop the spare
  // capacity before adopting rows drawn in order from a sorted table.
  rows.shrink_to_fit();
  out.table = KVTable::from_sorted_unique(std::move(rows));
  out.cpu_cost =
      job.costs.reduce_cpu_per_row * static_cast<double>(out.keys_in);
  return out;
}

}  // namespace slider
