#include "apps/glasnost.h"

#include <charconv>
#include <cstdio>

#include "apps/codecs.h"
#include "common/string_util.h"

namespace slider::apps {
namespace {

class GlasnostMapper final : public Mapper {
 public:
  explicit GlasnostMapper(double bucket_ms) : bucket_ms_(bucket_ms) {}

  void map(const Record& input, Emitter& out) const override {
    // value = "server_id,rtt1|rtt2|..."
    const auto comma = input.value.find(',');
    if (comma == std::string::npos) return;
    const std::string server = input.value.substr(0, comma);
    double min_rtt = -1;
    for (const auto sample :
         split_view(std::string_view(input.value).substr(comma + 1), '|')) {
      double rtt = 0;
      std::from_chars(sample.data(), sample.data() + sample.size(), rtt);
      if (min_rtt < 0 || rtt < min_rtt) min_rtt = rtt;
    }
    if (min_rtt < 0) return;
    const auto bucket = static_cast<std::uint32_t>(min_rtt / bucket_ms_);
    out.emit("srv" + server, encode_histogram({{bucket, 1}}));
  }

 private:
  double bucket_ms_;
};

}  // namespace

JobSpec make_glasnost_job(const GlasnostOptions& options) {
  JobSpec job;
  job.name = "glasnost-monitor";
  job.mapper = std::make_shared<GlasnostMapper>(options.bucket_ms);
  job.combiner = [](const std::string&, const std::string& a,
                    const std::string& b) {
    return add_encoded_histograms(a, b);
  };
  // Bucket-wise integer addition; multi-bucket encoding, no flat kernel.
  job.traits.commutative = true;
  job.traits.invertible = true;
  job.traits.exactly_associative = true;
  const double bucket_ms = options.bucket_ms;
  job.reducer = [bucket_ms](
                    const std::string&,
                    const std::string& combined) -> std::optional<std::string> {
    const HistogramSummary h = summarize_encoded_histogram(combined, 0.5);
    const double median_ms =
        (static_cast<double>(h.quantile_bucket) + 0.5) * bucket_ms;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "median_min_rtt_ms=%.1f,tests=%llu",
                  median_ms, static_cast<unsigned long long>(h.total));
    return std::string(buf);
  };
  job.num_partitions = options.num_partitions;
  job.costs.map_cpu_per_record = 4.0e-6;  // parse a whole packet trace
  job.costs.map_cpu_per_byte = 6.0e-9;
  job.costs.combine_cpu_per_row = 3.0e-7;
  job.costs.reduce_cpu_per_row = 1.0e-6;
  return job;
}

GlasnostGenerator::GlasnostGenerator(GlasnostGenOptions options)
    : options_(options), rng_(options.seed) {
  server_base_ms_.resize(static_cast<std::size_t>(options.servers));
  for (double& base : server_base_ms_) {
    base = options_.base_rtt_ms + rng_.next_double() * options_.rtt_spread_ms;
  }
}

std::vector<Record> GlasnostGenerator::next_month(std::size_t tests) {
  std::vector<Record> month;
  month.reserve(tests);
  char buf[32];
  for (std::size_t t = 0; t < tests; ++t) {
    const std::size_t server = rng_.next_below(server_base_ms_.size());
    std::string value = std::to_string(server) + ",";
    for (int s = 0; s < options_.samples_per_test; ++s) {
      // Noise is strictly additive: the minimum approximates the true
      // distance, as with real queueing delay.
      double rtt = server_base_ms_[server] +
                   rng_.next_double() * options_.noise_ms;
      if (rng_.next_bool(0.02)) rtt += 200.0 * rng_.next_double();  // outlier
      std::snprintf(buf, sizeof(buf), "%.2f", rtt);
      if (s != 0) value.push_back('|');
      value += buf;
    }
    month.push_back({zero_pad(next_test_++, 10), std::move(value)});
  }
  return month;
}

}  // namespace slider::apps
