// Layer replay shared by the traced runs: a session's layers driven one
// call at a time, each call timed as a span, plus a MemoStore put/get probe.
#pragma once

#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "bench_common.h"
#include "common/hash.h"
#include "common/thread_pool.h"
#include "contraction/flat_aggregator.h"
#include "contraction/tree.h"
#include "slider/session.h"
#include "slider/window.h"

namespace perfbench {

using namespace slider;

// The session's layers driven directly: trees from make_tree (or the flat
// tier, under the session's own routing rule) bound to a private MemoStore
// through the MemoContext fields the session sets.
class Replay {
 public:
  Replay(JobSpec job, const SliderConfig& config) : job_(std::move(job)) {
    TreeOptions options;
    options.kind = config.tree_kind.value_or(default_tree_for(config.mode));
    options.bucket_width = config.bucket_width;
    options.split_processing = config.split_processing;
    options.boundary_probability = config.boundary_probability;
    const bool flat = config.enable_flat_tier && !config.tree_kind &&
                      job_.traits.flat_eligible() &&
                      config.initial_bucket_sizes.empty();
    for (int p = 0; p < job_.num_partitions; ++p) {
      MemoContext ctx;
      ctx.store = &env_.memo;
      ctx.job_hash = job_.job_hash();
      ctx.partition = p;
      ctx.reduce_home = env_.cluster.place(
          hash_combine(job_.job_hash(), static_cast<std::uint64_t>(p)));
      trees_.push_back(flat ? std::make_unique<FlatAggregator>(
                                  ctx, job_.combiner, job_.traits, options)
                            : make_tree(options, ctx, job_.combiner));
    }
    outputs_.resize(trees_.size());
  }

  // Initial build; returns the tree-build wall milliseconds.
  double initial(const std::vector<SplitPtr>& splits, SpanLog* log) {
    const VanillaEngine::MapStage maps =
        env_.engine.run_map_stage(job_, splits);
    std::vector<TreeUpdateStats> stats(trees_.size());
    ScopedSpan build(log, "contraction.initial_build", "setup");
    parallel_for(trees_.size(), [&](std::size_t p) {
      trees_[p]->initial_build(leaves_for(splits, maps, p), &stats[p]);
    });
    const double build_ms = build.stop();
    reduce();
    return build_ms;
  }

  struct Step {
    double map_ms = 0, map_cpu = 0;
    double delta_ms = 0, delta_cpu = 0;
    double reduce_ms = 0, reduce_cpu = 0;
    double gc_ms = 0;
    double total_ms = 0;
    std::size_t gc_collected = 0;
    TreeUpdateStats tree;  // summed over partitions

    // Scales every time to reference speed.
    void scale(double factor) {
      for (double* t : {&map_ms, &map_cpu, &delta_ms, &delta_cpu, &reduce_ms,
                        &reduce_cpu, &gc_ms, &total_ms}) {
        *t *= factor;
      }
    }
  };

  Step slide(std::size_t remove, const std::vector<SplitPtr>& added,
             SpanLog* log, const std::string& parent) {
    Step step;
    ScopedSpan total(log, "replay.slide", parent);
    VanillaEngine::MapStage& maps = last_maps_;
    {
      ScopedSpan span(log, "mapreduce.map", parent);
      maps = env_.engine.run_map_stage(job_, added);
      step.map_ms = span.stop();
      step.map_cpu = span.cpu();
    }
    std::vector<TreeUpdateStats> stats(trees_.size());
    for (TreeUpdateStats& ts : stats) {
      ts.cause = obs::WorkCause::kWindowAdd;
      ts.passthrough_cause = remove > 0 ? obs::WorkCause::kWindowRemove
                                        : obs::WorkCause::kWindowAdd;
    }
    {
      ScopedSpan span(log, "contraction.apply_delta", parent);
      parallel_for(trees_.size(), [&](std::size_t p) {
        trees_[p]->apply_delta(remove, leaves_for(added, maps, p), &stats[p]);
      });
      step.delta_ms = span.stop();
      step.delta_cpu = span.cpu();
    }
    for (const TreeUpdateStats& ts : stats) step.tree += ts;
    {
      ScopedSpan span(log, "mapreduce.reduce", parent);
      reduce();
      step.reduce_ms = span.stop();
      step.reduce_cpu = span.cpu();
    }
    {
      ScopedSpan span(log, "storage.gc", parent);
      std::unordered_set<NodeId> live;
      for (const auto& tree : trees_) tree->collect_live_ids(live);
      step.gc_collected = env_.memo.retain_only(live);
      step.gc_ms = span.stop();
    }
    step.total_ms = total.stop();
    return step;
  }

  const std::vector<KVTable>& outputs() const { return outputs_; }
  // Map outputs of the last replayed slide (the memo probe's input).
  const VanillaEngine::MapStage& last_maps() const { return last_maps_; }

 private:
  static std::vector<Leaf> leaves_for(const std::vector<SplitPtr>& splits,
                                      const VanillaEngine::MapStage& maps,
                                      std::size_t p) {
    std::vector<Leaf> leaves;
    leaves.reserve(splits.size());
    for (std::size_t i = 0; i < splits.size(); ++i) {
      leaves.push_back(Leaf{splits[i]->id, maps.outputs[i].partitions[p]});
    }
    return leaves;
  }

  // The session's reduce: the tree's single reduce input, or its root when
  // split processing leaves two streams.
  void reduce() {
    parallel_for(trees_.size(), [&](std::size_t p) {
      const auto inputs = trees_[p]->reduce_inputs();
      const auto table = inputs.size() == 1 ? inputs[0] : trees_[p]->root();
      outputs_[p] = run_reduce(job_, *table).table;
    });
  }

  const JobSpec job_;
  bench::BenchEnv env_;
  std::vector<std::unique_ptr<ContractionTree>> trees_;
  std::vector<KVTable> outputs_;
  VanillaEngine::MapStage last_maps_;
};

// Median over replayed steps of one Step field.
inline double step_p50(const std::vector<Replay::Step>& steps,
                       double Replay::Step::*field) {
  std::vector<double> values;
  values.reserve(steps.size());
  for (const Replay::Step& s : steps) values.push_back(s.*field);
  return median(std::move(values));
}

// MemoStore::put/get cost on a private store, fed each slide's fresh leaf
// tables (serialize + checksum + index insert; memory-tier hit). Fed times
// count once commit() has scaled them to reference speed.
class MemoProbe {
 public:
  void feed(const std::vector<SplitPtr>& added,
            const VanillaEngine::MapStage& maps) {
    for (std::size_t i = 0; i < added.size(); ++i) {
      const auto& partitions = maps.outputs[i].partitions;
      for (std::size_t p = 0; p < partitions.size(); ++p) {
        const NodeId id = hash_combine(hash_combine(0x9e3779b97f4a7c15ULL,
                                                    added[i]->id),
                                       static_cast<std::uint64_t>(p));
        double start = wall_ms();
        env_.memo.put(id, partitions[p]);
        fed_put_ms_ += wall_ms() - start;
        start = wall_ms();
        const MemoReadResult read = env_.memo.get(id, env_.memo.home_of(id));
        fed_get_ms_ += wall_ms() - start;
        if (!read.found) ++lost_;
        bytes_ += static_cast<double>(partitions[p]->byte_size());
      }
    }
    env_.memo.retain_only({});
  }

  // Adds the times fed since the last commit, scaled by `factor`.
  void commit(double factor) {
    put_ms_ += fed_put_ms_ * factor;
    get_ms_ += fed_get_ms_ * factor;
    fed_put_ms_ = fed_get_ms_ = 0;
  }

  double put_us_per_kb() const { return per_kb(put_ms_); }
  double get_us_per_kb() const { return per_kb(get_ms_); }
  std::uint64_t lost() const { return lost_; }

 private:
  double per_kb(double ms) const {
    return bytes_ > 0 ? ms * 1e3 / (bytes_ / 1024.0) : 0;
  }

  bench::BenchEnv env_;
  double fed_put_ms_ = 0;
  double fed_get_ms_ = 0;
  double put_ms_ = 0;
  double get_ms_ = 0;
  double bytes_ = 0;
  std::uint64_t lost_ = 0;
};

}  // namespace perfbench
