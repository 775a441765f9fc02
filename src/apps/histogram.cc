#include "apps/histogram.h"

#include "apps/codecs.h"
#include "common/hash.h"
#include "common/string_util.h"

namespace slider::apps {
namespace {

class HistogramMapper final : public Mapper {
 public:
  explicit HistogramMapper(int buckets) : buckets_(buckets) {}

  void map(const Record& input, Emitter& out) const override {
    // Per-word histogram of the word's position bucket within its
    // document. The key space is the whole vocabulary, which is what
    // makes HCT data-intensive: the intermediate state is a histogram per
    // distinct word, not a handful of global buckets.
    const auto words = split_view(input.value, ' ');
    for (std::size_t i = 0; i < words.size(); ++i) {
      if (words[i].empty()) continue;
      const auto bucket = static_cast<std::uint32_t>(
          i * static_cast<std::size_t>(buckets_) / std::max<std::size_t>(
              1, words.size()));
      out.emit(std::string(words[i]), encode_histogram({{bucket, 1}}));
    }
  }

 private:
  int buckets_;
};

}  // namespace

JobSpec make_histogram_job(const HistogramOptions& options) {
  JobSpec job;
  job.name = "hct";
  job.mapper = std::make_shared<HistogramMapper>(options.buckets);
  job.combiner = [](const std::string&, const std::string& a,
                    const std::string& b) {
    return add_encoded_histograms(a, b);
  };
  // Bucket-wise integer addition: exact algebra, but the multi-bucket
  // encoding has no single fixed-width lane, so no flat kernel.
  job.traits.commutative = true;
  job.traits.invertible = true;
  job.traits.exactly_associative = true;
  job.reducer = [](const std::string&,
                   const std::string& combined) -> std::optional<std::string> {
    const HistogramSummary h = summarize_encoded_histogram(combined, 0.5);
    return "total=" + std::to_string(h.total) +
           ",median_len=" + std::to_string(h.quantile_bucket);
  };
  job.num_partitions = options.num_partitions;
  // Data-intensive profile: cheap per-record map, costs dominated by the
  // emitted volume and combiner merges.
  job.costs.map_cpu_per_record = 2.0e-6;
  job.costs.map_cpu_per_byte = 5.0e-9;
  job.costs.combine_cpu_per_row = 4.0e-7;
  job.costs.reduce_cpu_per_row = 1.0e-6;
  return job;
}

}  // namespace slider::apps
