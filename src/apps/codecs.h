// Value codecs shared by the applications.
//
// Map/Combine/Reduce exchange string values; the apps encode structured
// aggregates (vectors, histograms, top-k lists, counters) in compact text
// forms. Those text forms are what the contraction trees store, memoize
// and merge. Codecs live here so combiner associativity/commutativity can
// be tested independently of the apps.
//
// The histogram kernels (add_encoded_histograms, summarize_encoded_histogram)
// work on the text directly, so the apps' combiners never build a
// Histogram. The decode/add/encode trio declared just before them is their
// reference: the kernels must match it byte for byte.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace slider::apps {

// --- u64 counter ------------------------------------------------------------

std::uint64_t decode_count(const std::string& value);
std::string encode_count(std::uint64_t value);

// --- dense double vector + count (K-Means partial centroid) -----------------

// Coordinates are accumulated in fixed-point micro-units (1e-6) so that
// addition is exactly associative and commutative — merge order must not
// change the output (the trees merge in different orders than a linear
// scan).
struct VectorSum {
  std::vector<std::int64_t> sum_micro;
  std::uint64_t count = 0;
};

inline constexpr double kMicro = 1e6;

std::string encode_vector_sum(const VectorSum& v);
std::optional<VectorSum> decode_vector_sum(const std::string& value);
VectorSum add_vector_sums(const VectorSum& a, const VectorSum& b);

// --- sparse histogram (Glasnost RTT buckets, HCT) ----------------------------

// "bucket:count,bucket:count,..." with strictly increasing buckets.
using Histogram = std::vector<std::pair<std::uint32_t, std::uint64_t>>;

std::string encode_histogram(const Histogram& h);
Histogram decode_histogram(const std::string& value);
Histogram add_histograms(const Histogram& a, const Histogram& b);
// Value at the given cumulative quantile (0.5 = median), by bucket index.
std::uint32_t histogram_quantile(const Histogram& h, double quantile);

// encode_histogram(add_histograms(decode_histogram(a), decode_histogram(b)))
// in one pass over both texts, with no spare capacity in the result.
// SLIDER_CHECK-fails on every input decode_histogram rejects.
std::string add_encoded_histograms(std::string_view a, std::string_view b);

struct HistogramSummary {
  std::uint64_t total = 0;  // summed counts, wrapping like add_histograms
  std::uint32_t quantile_bucket = 0;  // histogram_quantile's result
};

// The total and histogram_quantile(decode_histogram(value), quantile) from
// one parse of the text, with no per-call allocation. SLIDER_CHECK-fails
// where decode_histogram does.
HistogramSummary summarize_encoded_histogram(std::string_view value,
                                             double quantile);

// --- bounded top-k list of (score, tag), smallest scores kept (KNN) ----------

struct ScoredTag {
  double score = 0;
  std::string tag;
};

std::string encode_topk(const std::vector<ScoredTag>& entries);
std::vector<ScoredTag> decode_topk(const std::string& value);
// Merge keeping the k smallest scores (ties broken by tag for determinism).
std::vector<ScoredTag> merge_topk(const std::vector<ScoredTag>& a,
                                  const std::vector<ScoredTag>& b,
                                  std::size_t k);

// --- sorted event list "time:tag;time:tag;..." (Twitter posting lists) -------

struct Event {
  std::uint64_t time = 0;
  std::string tag;
};

std::string encode_events(const std::vector<Event>& events);
std::vector<Event> decode_events(const std::string& value);
std::vector<Event> merge_events(const std::vector<Event>& a,
                                const std::vector<Event>& b);

// --- fixed named counters "a,b,c,d" (NetSession audit) ------------------------

struct AuditCounters {
  std::uint64_t chunks_served = 0;
  std::uint64_t bytes_up = 0;
  std::uint64_t bytes_down = 0;
  std::uint64_t violations = 0;
};

std::string encode_audit(const AuditCounters& c);
std::optional<AuditCounters> decode_audit(const std::string& value);
AuditCounters add_audit(const AuditCounters& a, const AuditCounters& b);

}  // namespace slider::apps
