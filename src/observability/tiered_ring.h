// Tiered history ring: the bounded, downsampled history behind TimeSeries
// (per-run samples) and ProvenanceRecorder (per-run lineage DAGs).
//
// The newest `raw_capacity` samples are kept verbatim. When a raw sample
// ages out it is folded into an open aggregation bucket, and the bucket is
// sealed into the aggregate ring once it spans `aggregate_width` samples.
// The aggregate ring in turn drops its oldest bucket once
// `aggregate_capacity` is reached, counting that bucket's samples as
// dropped. Conservation, with the open bucket counted as an aggregate:
//   total_recorded == raw + Σ aggregate counts + samples_dropped.
//
// `Sample` needs a `sequence` field, which record() stamps. `Aggregate`
// needs a `count` field and `fold(const Sample&)`. `Options` carries
// raw_capacity, aggregate_width and aggregate_capacity. Not synchronized:
// the owner holds its own lock around every call.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace slider::obs {

template <class Sample, class Aggregate, class Options>
class TieredRing {
 public:
  // Adopts `options` with each capacity clamped to at least 1, then
  // reallocates both rings and clears the history.
  void configure(const Options& options) {
    options_ = options;
    options_.raw_capacity = std::max<std::size_t>(1, options_.raw_capacity);
    options_.aggregate_width =
        std::max<std::size_t>(1, options_.aggregate_width);
    options_.aggregate_capacity =
        std::max<std::size_t>(1, options_.aggregate_capacity);
    raw_.assign(options_.raw_capacity, Sample{});
    aggregates_.assign(options_.aggregate_capacity, Aggregate{});
    raw_start_ = raw_size_ = 0;
    agg_start_ = agg_size_ = 0;
    open_bucket_ = Aggregate{};
    open_bucket_active_ = false;
    next_sequence_ = 0;
    samples_dropped_ = 0;
  }
  // Clears the history, keeping the configured capacities.
  void reset() { configure(options_); }
  const Options& options() const { return options_; }

  // Stamps the sample's sequence and appends it, aging the oldest raw
  // sample into the open bucket when the raw ring is full.
  void record(Sample sample) {
    sample.sequence = next_sequence_++;
    if (raw_size_ == raw_.size()) {
      open_bucket_.fold(raw_[raw_start_]);
      open_bucket_active_ = true;
      if (open_bucket_.count >= options_.aggregate_width) {
        if (agg_size_ == aggregates_.size()) {
          samples_dropped_ += aggregates_[agg_start_].count;
          agg_start_ = (agg_start_ + 1) % aggregates_.size();
          --agg_size_;
        }
        aggregates_[(agg_start_ + agg_size_) % aggregates_.size()] =
            open_bucket_;
        ++agg_size_;
        open_bucket_ = Aggregate{};
        open_bucket_active_ = false;
      }
      raw_[raw_start_] = Sample{};  // free what the evicted sample owns now
      raw_start_ = (raw_start_ + 1) % raw_.size();
      --raw_size_;
    }
    raw_[(raw_start_ + raw_size_) % raw_.size()] = std::move(sample);
    ++raw_size_;
  }

  std::uint64_t total_recorded() const { return next_sequence_; }
  std::size_t raw_size() const { return raw_size_; }
  // The i-th retained raw sample, oldest first.
  const Sample& raw_at(std::size_t i) const {
    return raw_[(raw_start_ + i) % raw_.size()];
  }

  // Fills `snap`'s total_recorded, samples_dropped, aggregates (oldest
  // first) and raw (oldest first).
  template <class Snapshot>
  void snapshot_into(Snapshot& snap) const {
    snap.total_recorded = next_sequence_;
    snap.samples_dropped = samples_dropped_;
    snap.aggregates.reserve(agg_size_ + 1);
    for (std::size_t i = 0; i < agg_size_; ++i) {
      snap.aggregates.push_back(
          aggregates_[(agg_start_ + i) % aggregates_.size()]);
    }
    // The partially-filled bucket is real history too: without it the
    // samples between the sealed buckets and the raw window would vanish.
    if (open_bucket_active_) snap.aggregates.push_back(open_bucket_);
    snap.raw.reserve(raw_size_);
    for (std::size_t i = 0; i < raw_size_; ++i) snap.raw.push_back(raw_at(i));
  }

 private:
  Options options_;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t samples_dropped_ = 0;
  // Raw ring: samples [raw_start_, raw_start_ + raw_size_) mod capacity.
  std::vector<Sample> raw_;
  std::size_t raw_start_ = 0;
  std::size_t raw_size_ = 0;
  // Aggregate ring, same layout, plus the currently-filling bucket.
  std::vector<Aggregate> aggregates_;
  std::size_t agg_start_ = 0;
  std::size_t agg_size_ = 0;
  Aggregate open_bucket_{};
  bool open_bucket_active_ = false;
};

}  // namespace slider::obs
