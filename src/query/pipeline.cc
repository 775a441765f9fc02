#include "query/pipeline.h"

#include "common/hash.h"

namespace slider::query {
namespace {

// Routes every row of the stage input to a stable, key-hashed chunk.
std::vector<std::vector<Record>> chunk_rows(const std::vector<KVTable>& input,
                                            std::size_t chunks) {
  std::vector<std::vector<Record>> out(chunks);
  for (const KVTable& table : input) {
    for (const RowView r : table.rows()) {
      out[hash_string(r.key) % chunks].push_back(
          {std::string(r.key), std::string(r.value)});
    }
  }
  return out;
}

std::uint64_t chunk_content_hash(const std::vector<Record>& rows) {
  std::uint64_t h = kFnvOffset;
  for (const Record& r : rows) {
    h = hash_combine(h, hash_string(r.key));
    h = hash_combine(h, hash_string(r.value));
  }
  return h;
}

}  // namespace

QueryPipeline::QueryPipeline(const VanillaEngine& engine, MemoStore& memo,
                             std::vector<JobSpec> stages,
                             PipelineConfig config)
    : engine_(&engine), memo_(&memo), config_(std::move(config)) {
  SLIDER_CHECK(!stages.empty()) << "pipeline needs at least one stage";
  // The pipeline runs one GC across all stages; the first-stage session
  // must not collect on its own (its first GC sweeps the whole store and
  // would free later stages' memoized nodes).
  config_.first_stage.run_gc = false;
  first_ = std::make_unique<SliderSession>(engine, memo, stages[0],
                                           config_.first_stage);

  for (std::size_t s = 1; s < stages.size(); ++s) {
    LaterStage stage;
    stage.job = stages[s];
    stage.chunk_hashes.assign(config_.chunks_per_stage, 0);
    stage.chunk_outputs.resize(config_.chunks_per_stage);
    stage.outputs.resize(static_cast<std::size_t>(stage.job.num_partitions));
    for (int p = 0; p < stage.job.num_partitions; ++p) {
      MemoContext ctx;
      ctx.store = memo_;
      ctx.job_hash = hash_combine(stage.job.job_hash(), 0x57A6E + s);
      ctx.partition = p;
      ctx.reduce_home = engine.cluster().place(
          hash_combine(ctx.job_hash, static_cast<std::uint64_t>(p)));
      stage.trees.push_back(
          std::make_unique<StrawmanTree>(ctx, stage.job.combiner));
    }
    later_stages_.push_back(std::move(stage));
  }
}

RunMetrics QueryPipeline::initial_run(std::vector<SplitPtr> splits) {
  RunMetrics metrics = first_->initial_run(std::move(splits));
  metrics += run_all_later_stages();
  garbage_collect();
  return metrics;
}

RunMetrics QueryPipeline::slide(std::size_t remove_front,
                                std::vector<SplitPtr> added) {
  RunMetrics metrics = first_->slide(remove_front, std::move(added));
  metrics += run_all_later_stages();
  garbage_collect();
  return metrics;
}

RunMetrics QueryPipeline::run_all_later_stages() {
  RunMetrics total;
  const std::vector<KVTable>* input = &first_->output();
  for (LaterStage& stage : later_stages_) {
    total += run_later_stage(stage, *input);
    input = &stage.outputs;
  }
  return total;
}

RunMetrics QueryPipeline::run_later_stage(LaterStage& stage,
                                          const std::vector<KVTable>& input) {
  RunMetrics metrics;
  const CostModel& cost = engine_->cost_model();
  auto chunks = chunk_rows(input, config_.chunks_per_stage);

  // Re-map only the chunks whose content changed since the previous run.
  std::vector<SimTask> map_tasks;
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    const std::uint64_t h = chunk_content_hash(chunks[c]);
    if (stage.built && h == stage.chunk_hashes[c]) continue;
    InputSplit split;
    split.id = c;
    split.byte_size = InputSplit::compute_byte_size(chunks[c]);
    split.records = std::move(chunks[c]);
    MapOutput out = run_map_task(stage.job, split);
    SimTask task;
    task.duration = cost.task_overhead_sec + cost.mem_read(split.byte_size) +
                    out.cpu_cost;
    task.preferred = engine_->cluster().place(c);
    task.migration_penalty = cost.net_transfer(split.byte_size);
    map_tasks.push_back(task);
    stage.chunk_outputs[c] = std::move(out);
    stage.chunk_hashes[c] = h;
  }
  const StageResult map_sim = engine_->simulator().run_stage(
      map_tasks, SchedulePolicy::kHybrid,
      HybridOptions{.patience_factor = 0.5, .patience_floor = 0.05});
  metrics.map_work = map_sim.work;
  metrics.map_tasks = map_tasks.size();
  metrics.time = map_sim.makespan;
  metrics.map_time = map_sim.makespan;

  // Propagate through the strawman trees, partition by partition.
  std::vector<SimTask> reduce_tasks(stage.trees.size());
  for (std::size_t p = 0; p < stage.trees.size(); ++p) {
    std::vector<Leaf> leaves;
    leaves.reserve(config_.chunks_per_stage);
    std::size_t fresh_bytes = 0;
    for (std::size_t c = 0; c < config_.chunks_per_stage; ++c) {
      const auto& table = stage.chunk_outputs[c].partitions[p];
      leaves.push_back(Leaf{c, table});
      fresh_bytes += table->byte_size();
    }
    TreeUpdateStats ts;
    stage.trees[p]->initial_build(std::move(leaves), &ts);

    const SimDuration contraction = contraction_cost(stage.job.costs, ts).work;
    ReduceOutput reduced = run_reduce(stage.job, *stage.trees[p]->root());
    stage.outputs[p] = std::move(reduced.table);

    SimTask& task = reduce_tasks[p];
    task.duration = cost.task_overhead_sec + contraction + reduced.cpu_cost +
                    cost.net_transfer(fresh_bytes / 8);  // changed slice only
    task.preferred = -1;
    metrics.contraction_work += contraction;
    metrics.reduce_work += reduced.cpu_cost;
    metrics.memo_read_work += ts.memo_read_cost;
    metrics.combiner_invocations += ts.combiner_invocations;
    metrics.combiner_reused += ts.combiner_reused;
    metrics.memo_bytes_written += ts.memo_bytes_written;
  }
  const StageResult reduce_sim = engine_->simulator().run_stage(
      reduce_tasks, config_.first_stage.reduce_policy);
  metrics.time += reduce_sim.makespan;
  metrics.reduce_tasks = stage.trees.size();

  stage.built = true;
  return metrics;
}

const std::vector<KVTable>& QueryPipeline::output() const {
  if (later_stages_.empty()) return first_->output();
  return later_stages_.back().outputs;
}

void QueryPipeline::garbage_collect() {
  std::vector<NodeId> released;
  first_->take_released_ids(released);
  for (LaterStage& stage : later_stages_) {
    for (const auto& tree : stage.trees) tree->take_released_ids(released);
  }
  memo_->erase_released(released);
}

PipelineResult vanilla_pipeline_run(const VanillaEngine& engine,
                                    const std::vector<JobSpec>& stages,
                                    std::span<const SplitPtr> splits,
                                    std::size_t chunks_per_stage) {
  SLIDER_CHECK(!stages.empty()) << "pipeline needs at least one stage";
  PipelineResult result;
  JobResult stage_result = engine.run(stages[0], splits);
  result.metrics += stage_result.metrics;

  for (std::size_t s = 1; s < stages.size(); ++s) {
    auto chunks = chunk_rows(stage_result.partition_outputs, chunks_per_stage);
    std::vector<SplitPtr> chunk_splits;
    chunk_splits.reserve(chunks.size());
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      chunk_splits.push_back(make_split(c, std::move(chunks[c])));
    }
    stage_result = engine.run(stages[s], chunk_splits);
    result.metrics += stage_result.metrics;
  }
  result.output = std::move(stage_result.partition_outputs);
  return result;
}

}  // namespace slider::query
