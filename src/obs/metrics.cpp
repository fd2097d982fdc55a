#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "common/error.h"

namespace cellscope::obs {

namespace {

/// CAS-adds a double stored bit-packed in a uint64 atomic (portable
/// substitute for std::atomic<double>::fetch_add).
void atomic_add_double(std::atomic<std::uint64_t>& bits, double delta) noexcept {
  std::uint64_t seen = bits.load(std::memory_order_relaxed);
  for (;;) {
    const double current = std::bit_cast<double>(seen);
    const std::uint64_t next = std::bit_cast<std::uint64_t>(current + delta);
    if (bits.compare_exchange_weak(seen, next, std::memory_order_relaxed))
      return;
  }
}

/// Prometheus exposition text, by contrast, spells non-finite values out.
std::string format_prom_double(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  CS_CHECK_MSG(!bounds_.empty(), "histogram needs at least one bucket bound");
  CS_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                   std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                       bounds_.end(),
               "histogram bounds must be strictly ascending");
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::observe(double value) noexcept {
  buckets_[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add_double(sum_bits_, value);
}

void Histogram::observe_n(double value, std::uint64_t n) noexcept {
  if (n == 0) return;
  merge_bucket(bucket_of(value), n, value * static_cast<double>(n));
}

std::size_t Histogram::bucket_of(double value) const noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  return static_cast<std::size_t>(it - bounds_.begin());
}

void Histogram::merge_bucket(std::size_t bucket, std::uint64_t n,
                             double value_sum) noexcept {
  if (n == 0 || bucket > bounds_.size()) return;
  buckets_[bucket].fetch_add(n, std::memory_order_relaxed);
  count_.fetch_add(n, std::memory_order_relaxed);
  atomic_add_double(sum_bits_, value_sum);
}

double Histogram::sum() const noexcept {
  return std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
}

double Histogram::mean() const noexcept {
  const auto n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> counts(bounds_.size() + 1);
  for (std::size_t i = 0; i < counts.size(); ++i)
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  return counts;
}

double Histogram::quantile(double q) const {
  CS_CHECK_MSG(q >= 0.0 && q <= 1.0, "quantile needs q in [0, 1]");
  const auto counts = bucket_counts();  // one consistent snapshot
  std::uint64_t total = 0;
  for (const auto c : counts) total += c;
  if (total == 0) return 0.0;
  const double rank = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    if (counts[i] == 0) continue;
    const auto below = cumulative;
    cumulative += counts[i];
    if (static_cast<double>(cumulative) >= rank) {
      const double lower = i == 0 ? std::min(0.0, bounds_[0]) : bounds_[i - 1];
      const double fraction =
          (rank - static_cast<double>(below)) / static_cast<double>(counts[i]);
      return lower + (bounds_[i] - lower) * std::clamp(fraction, 0.0, 1.0);
    }
  }
  // Rank lands in the overflow bucket: no upper bound to interpolate to.
  return bounds_.back();
}

void Histogram::reset() noexcept {
  for (std::size_t i = 0; i <= bounds_.size(); ++i)
    buckets_[i].store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_bits_.store(0, std::memory_order_relaxed);
}

std::vector<double> default_ms_buckets() {
  return {0.1, 0.25, 0.5,  1.0,  2.5,  5.0,   10.0,  25.0,
          50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 10000.0, 60000.0};
}

std::vector<double> pow2_minute_buckets() {
  std::vector<double> bounds;
  bounds.reserve(17);
  for (int shift = 0; shift <= 16; ++shift)
    bounds.push_back(static_cast<double>(std::uint64_t{1} << shift));
  return bounds;
}

HistogramBatch::HistogramBatch(Histogram& sink)
    : sink_(sink),
      counts_(sink.upper_bounds().size() + 1, 0),
      sums_(sink.upper_bounds().size() + 1, 0.0) {}

void HistogramBatch::flush() noexcept {
  if (pending_ == 0) return;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    sink_.merge_bucket(i, counts_[i], sums_[i]);
    counts_[i] = 0;
    sums_[i] = 0.0;
  }
  pending_ = 0;
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry* registry = new MetricsRegistry;  // never destroyed
  return *registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> upper_bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(upper_bounds)))
             .first;
  return *it->second;
}

std::string MetricsRegistry::snapshot_json() const {
  constexpr auto kStyle = JsonNumber::kCompact;
  std::lock_guard<std::mutex> lock(mutex_);
  JsonWriter w;
  w.begin_object().key("counters").begin_object();
  for (const auto& [name, c] : counters_) w.key(name).integer(c->value());
  w.end_object().key("gauges").begin_object();
  for (const auto& [name, g] : gauges_) {
    w.key(name).begin_object();
    w.key("value").integer(g->value()).key("max").integer(g->max_value());
    w.end_object();
  }
  w.end_object().key("histograms").begin_object();
  for (const auto& [name, h] : histograms_) {
    w.key(name).begin_object().key("count").integer(h->count());
    w.key("sum").number(h->sum(), kStyle);
    w.key("p50").number(h->quantile(0.50), kStyle);
    w.key("p90").number(h->quantile(0.90), kStyle);
    w.key("p99").number(h->quantile(0.99), kStyle);
    w.key("buckets").begin_array();
    const auto& bounds = h->upper_bounds();
    const auto counts = h->bucket_counts();
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      w.begin_object().key("le").number(bounds[i], kStyle);
      w.key("count").integer(counts[i]).end_object();
    }
    w.end_array().key("overflow").integer(counts.back()).end_object();
  }
  w.end_object().end_object();
  return w.take();
}

namespace {

/// Prometheus metric names allow [a-zA-Z0-9_:]; everything else (the
/// dots in cellscope.<layer>.<name>) maps to '_'.
std::string prometheus_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (!out.empty() && out.front() >= '0' && out.front() <= '9')
    out.insert(out.begin(), '_');
  return out;
}

}  // namespace

std::string MetricsRegistry::snapshot_prometheus() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // One globally sorted exposition: merge the three per-kind maps into
  // (exposed name, render) rows so the output is deterministic and
  // diff-stable across runs regardless of registration order.
  std::vector<std::pair<std::string, std::string>> rows;
  rows.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, c] : counters_) {
    const std::string exposed = prometheus_name(name);
    rows.emplace_back(exposed, "# TYPE " + exposed + " counter\n" + exposed +
                                   ' ' + std::to_string(c->value()) + '\n');
  }
  for (const auto& [name, g] : gauges_) {
    const std::string exposed = prometheus_name(name);
    rows.emplace_back(
        exposed, "# TYPE " + exposed + " gauge\n" + exposed + ' ' +
                     std::to_string(g->value()) + "\n# TYPE " + exposed +
                     "_max gauge\n" + exposed + "_max " +
                     std::to_string(g->max_value()) + '\n');
  }
  for (const auto& [name, h] : histograms_) {
    const std::string exposed = prometheus_name(name);
    std::string text = "# TYPE " + exposed + " histogram\n";
    const auto& bounds = h->upper_bounds();
    const auto counts = h->bucket_counts();
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      cumulative += counts[i];
      text += exposed + "_bucket{le=\"" + format_prom_double(bounds[i]) +
              "\"} " + std::to_string(cumulative) + '\n';
    }
    cumulative += counts.back();
    text += exposed + "_bucket{le=\"+Inf\"} " + std::to_string(cumulative) +
            '\n';
    text += exposed + "_sum " + format_prom_double(h->sum()) + '\n';
    text += exposed + "_count " + std::to_string(cumulative) + '\n';
    rows.emplace_back(exposed, std::move(text));
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::string out;
  for (auto& [name, text] : rows) out += text;
  return out;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

}  // namespace cellscope::obs
