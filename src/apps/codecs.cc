#include "apps/codecs.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <limits>

#include "common/logging.h"
#include "common/string_util.h"

namespace slider::apps {
namespace {

double parse_double(std::string_view text) {
  double value = 0;
  std::from_chars(text.data(), text.data() + text.size(), value);
  return value;
}

std::string format_compact_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

// Walks "bucket:count,..." one entry at a time, accepting exactly what
// decode_histogram accepts and truncating buckets to uint32_t as it does:
// each number is a non-empty run of digits that fits in 64 bits (as for
// parse_u64), followed by the separator the format expects there.
class HistogramCursor {
 public:
  explicit HistogramCursor(std::string_view text)
      : pos_(text.data()), end_(text.data() + text.size()),
        done_(text.empty()) {}

  // Moves to the next entry; false once every entry has been read.
  bool next() {
    if (done_) return false;
    std::uint64_t bucket = 0;
    const auto [colon, bucket_ec] = std::from_chars(pos_, end_, bucket);
    SLIDER_CHECK(bucket_ec == std::errc() && colon != end_ && *colon == ':')
        << "bad histogram entry";
    const auto [comma, count_ec] = std::from_chars(colon + 1, end_, count_);
    SLIDER_CHECK(count_ec == std::errc() && (comma == end_ || *comma == ','))
        << "bad histogram entry";
    done_ = comma == end_;
    pos_ = done_ ? end_ : comma + 1;
    bucket_ = static_cast<std::uint32_t>(bucket);
    return true;
  }

  std::uint32_t bucket() const { return bucket_; }
  std::uint64_t count() const { return count_; }

 private:
  const char* pos_;
  const char* end_;
  bool done_;
  std::uint32_t bucket_ = 0;
  std::uint64_t count_ = 0;
};

// floor(quantile * total), the count a quantile's bucket must exceed.
// Clamped to uint64_t: converting a double outside its range (a product
// that rounds up to 2^64, a negative quantile, NaN) is undefined.
std::uint64_t quantile_target(double quantile, std::uint64_t total) {
  const double target = quantile * static_cast<double>(total);
  if (!(target > 0)) return 0;
  if (target >= 0x1p64) return std::numeric_limits<std::uint64_t>::max();
  return static_cast<std::uint64_t>(target);
}

// Appends one entry as encode_histogram writes it.
void append_histogram_entry(std::string& out, std::uint32_t bucket,
                            std::uint64_t count) {
  char buf[32];  // ',' + up to 10 digits + ':' + up to 20 digits
  char* end = buf;
  if (!out.empty()) *end++ = ',';
  end = std::to_chars(end, end + 10, bucket).ptr;
  *end++ = ':';
  end = std::to_chars(end, end + 20, count).ptr;
  out.append(buf, end);
}

}  // namespace

std::uint64_t decode_count(const std::string& value) {
  std::uint64_t count = 0;
  SLIDER_CHECK(parse_u64(value, &count)) << "bad count value: " << value;
  return count;
}

std::string encode_count(std::uint64_t value) { return std::to_string(value); }

std::string encode_vector_sum(const VectorSum& v) {
  std::string out = std::to_string(v.count);
  for (const std::int64_t d : v.sum_micro) {
    out.push_back('|');
    out += std::to_string(d);
  }
  return out;
}

std::optional<VectorSum> decode_vector_sum(const std::string& value) {
  const auto parts = split_view(value, '|');
  if (parts.empty()) return std::nullopt;
  VectorSum v;
  if (!parse_u64(parts[0], &v.count)) return std::nullopt;
  v.sum_micro.reserve(parts.size() - 1);
  for (std::size_t i = 1; i < parts.size(); ++i) {
    std::int64_t coord = 0;
    std::string_view text = parts[i];
    bool negative = false;
    if (!text.empty() && text[0] == '-') {
      negative = true;
      text.remove_prefix(1);
    }
    std::uint64_t magnitude = 0;
    if (!parse_u64(text, &magnitude)) return std::nullopt;
    coord = static_cast<std::int64_t>(magnitude);
    v.sum_micro.push_back(negative ? -coord : coord);
  }
  return v;
}

VectorSum add_vector_sums(const VectorSum& a, const VectorSum& b) {
  if (a.sum_micro.empty()) return b;
  if (b.sum_micro.empty()) return a;
  SLIDER_CHECK(a.sum_micro.size() == b.sum_micro.size())
      << "vector dimension mismatch";
  VectorSum out;
  out.count = a.count + b.count;
  out.sum_micro.resize(a.sum_micro.size());
  for (std::size_t i = 0; i < a.sum_micro.size(); ++i) {
    out.sum_micro[i] = a.sum_micro[i] + b.sum_micro[i];
  }
  return out;
}

std::string encode_histogram(const Histogram& h) {
  std::string out;
  for (const auto& [bucket, count] : h) {
    if (!out.empty()) out.push_back(',');
    out += std::to_string(bucket);
    out.push_back(':');
    out += std::to_string(count);
  }
  return out;
}

Histogram decode_histogram(const std::string& value) {
  Histogram h;
  if (value.empty()) return h;
  for (const auto entry : split_view(value, ',')) {
    const auto pos = entry.find(':');
    SLIDER_CHECK(pos != std::string_view::npos) << "bad histogram: " << value;
    std::uint64_t bucket = 0;
    std::uint64_t count = 0;
    SLIDER_CHECK(parse_u64(entry.substr(0, pos), &bucket) &&
                 parse_u64(entry.substr(pos + 1), &count))
        << "bad histogram entry";
    h.emplace_back(static_cast<std::uint32_t>(bucket), count);
  }
  return h;
}

Histogram add_histograms(const Histogram& a, const Histogram& b) {
  Histogram out;
  out.reserve(a.size() + b.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].first < b[j].first) {
      out.push_back(a[i++]);
    } else if (b[j].first < a[i].first) {
      out.push_back(b[j++]);
    } else {
      out.emplace_back(a[i].first, a[i].second + b[j].second);
      ++i;
      ++j;
    }
  }
  out.insert(out.end(), a.begin() + static_cast<std::ptrdiff_t>(i), a.end());
  out.insert(out.end(), b.begin() + static_cast<std::ptrdiff_t>(j), b.end());
  return out;
}

std::uint32_t histogram_quantile(const Histogram& h, double quantile) {
  std::uint64_t total = 0;
  for (const auto& [bucket, count] : h) total += count;
  if (total == 0) return 0;
  const std::uint64_t target = quantile_target(quantile, total);
  std::uint64_t seen = 0;
  for (const auto& [bucket, count] : h) {
    seen += count;
    if (seen > target) return bucket;
  }
  return h.back().first;
}

std::string add_encoded_histograms(std::string_view a, std::string_view b) {
  // The sum is built in a per-thread buffer and returned as an exact-size
  // copy: merged values live on in memoized tables, where spare capacity
  // would be resident for as long as the table is.
  thread_local std::string scratch;
  scratch.clear();
  HistogramCursor x(a);
  HistogramCursor y(b);
  bool more_x = x.next();
  bool more_y = y.next();
  while (more_x && more_y) {
    if (x.bucket() < y.bucket()) {
      append_histogram_entry(scratch, x.bucket(), x.count());
      more_x = x.next();
    } else if (y.bucket() < x.bucket()) {
      append_histogram_entry(scratch, y.bucket(), y.count());
      more_y = y.next();
    } else {
      append_histogram_entry(scratch, x.bucket(), x.count() + y.count());
      more_x = x.next();
      more_y = y.next();
    }
  }
  for (; more_x; more_x = x.next()) {
    append_histogram_entry(scratch, x.bucket(), x.count());
  }
  for (; more_y; more_y = y.next()) {
    append_histogram_entry(scratch, y.bucket(), y.count());
  }
  return std::string(scratch);
}

HistogramSummary summarize_encoded_histogram(std::string_view value,
                                             double quantile) {
  // Parsed into per-thread storage, so a reducer call allocates nothing.
  thread_local Histogram entries;
  entries.clear();
  HistogramSummary summary;
  for (HistogramCursor cursor(value); cursor.next();) {
    entries.emplace_back(cursor.bucket(), cursor.count());
    summary.total += cursor.count();
  }
  summary.quantile_bucket = histogram_quantile(entries, quantile);
  return summary;
}

std::string encode_topk(const std::vector<ScoredTag>& entries) {
  std::string out;
  for (const ScoredTag& e : entries) {
    if (!out.empty()) out.push_back(';');
    out += format_compact_double(e.score);
    out.push_back('@');
    out += e.tag;
  }
  return out;
}

std::vector<ScoredTag> decode_topk(const std::string& value) {
  std::vector<ScoredTag> entries;
  if (value.empty()) return entries;
  for (const auto part : split_view(value, ';')) {
    const auto pos = part.find('@');
    SLIDER_CHECK(pos != std::string_view::npos) << "bad topk: " << value;
    entries.push_back(ScoredTag{parse_double(part.substr(0, pos)),
                                std::string(part.substr(pos + 1))});
  }
  return entries;
}

std::vector<ScoredTag> merge_topk(const std::vector<ScoredTag>& a,
                                  const std::vector<ScoredTag>& b,
                                  std::size_t k) {
  std::vector<ScoredTag> out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  std::sort(out.begin(), out.end(), [](const ScoredTag& x, const ScoredTag& y) {
    if (x.score != y.score) return x.score < y.score;
    return x.tag < y.tag;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

std::string encode_events(const std::vector<Event>& events) {
  std::string out;
  for (const Event& e : events) {
    if (!out.empty()) out.push_back(';');
    out += std::to_string(e.time);
    out.push_back(':');
    out += e.tag;
  }
  return out;
}

std::vector<Event> decode_events(const std::string& value) {
  std::vector<Event> events;
  if (value.empty()) return events;
  for (const auto part : split_view(value, ';')) {
    const auto pos = part.find(':');
    SLIDER_CHECK(pos != std::string_view::npos) << "bad events: " << value;
    Event e;
    SLIDER_CHECK(parse_u64(part.substr(0, pos), &e.time)) << "bad event time";
    e.tag = std::string(part.substr(pos + 1));
    events.push_back(std::move(e));
  }
  return events;
}

std::vector<Event> merge_events(const std::vector<Event>& a,
                                const std::vector<Event>& b) {
  std::vector<Event> out;
  out.reserve(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out),
             [](const Event& x, const Event& y) {
               if (x.time != y.time) return x.time < y.time;
               return x.tag < y.tag;
             });
  return out;
}

std::string encode_audit(const AuditCounters& c) {
  return std::to_string(c.chunks_served) + "," + std::to_string(c.bytes_up) +
         "," + std::to_string(c.bytes_down) + "," +
         std::to_string(c.violations);
}

std::optional<AuditCounters> decode_audit(const std::string& value) {
  const auto parts = split_view(value, ',');
  if (parts.size() != 4) return std::nullopt;
  AuditCounters c;
  if (!parse_u64(parts[0], &c.chunks_served) ||
      !parse_u64(parts[1], &c.bytes_up) ||
      !parse_u64(parts[2], &c.bytes_down) ||
      !parse_u64(parts[3], &c.violations)) {
    return std::nullopt;
  }
  return c;
}

AuditCounters add_audit(const AuditCounters& a, const AuditCounters& b) {
  return AuditCounters{a.chunks_served + b.chunks_served,
                       a.bytes_up + b.bytes_up, a.bytes_down + b.bytes_down,
                       a.violations + b.violations};
}

}  // namespace slider::apps
