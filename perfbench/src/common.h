// Shared machinery of the CellScope benchmark program: wall-clock timing,
// exact-sample statistics, in-memory spans, and the result record every
// workload fills.
//
// Timings are wall clock (steady_clock) only. Latency samples are kept
// exactly — no histogram buckets — so a quantile is a measured value, not
// a bucket edge.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The time this process started (captured during static
/// initialization, before main).
Clock::time_point process_start();

/// Peak resident set size of this process so far, in MB (getrusage).
double peak_rss_mb();

/// Median of a sample set (mean of the middle pair for even sizes);
/// 0 for an empty set.
double median(std::vector<double> values);

/// Linear-interpolated quantile q in [0, 1] of a sample set.
double quantile(std::vector<double> values, double q);

/// The highest of the percentiles 99.9, 99, 95, 90 and 50 that has at
/// least ten samples beyond it — the tail a sample set of this size can
/// support. Returns the percentile (e.g. 99.0) and its value.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
};
Tail supported_tail(const std::vector<double>& values);

/// The result of one benchmark run: named metrics with units,
/// operation counts, and the outcome of every output check.
struct Result {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> info;  ///< descriptive, not metrics
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records an output check; a false `ok` marks the run incorrect.
  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
  bool correct() const { return check_failures.empty(); }

  /// One-line JSON object of everything above.
  std::string to_json() const;
};

// ---------------------------------------------------------------------
// Spans

/// One recorded span. Times are microseconds since process_start().
struct SpanRecord {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  std::int64_t parent = -1;  ///< index of the enclosing span, -1 for roots
  std::uint64_t request = 0; ///< request id shared by one request's spans
  int pass = -1;             ///< measured pass the span belongs to
  std::uint32_t thread = 0;
};

/// In-memory span recorder. Disabled tracers record nothing, so a
/// workload's code path is the same with tracing on or off apart from the
/// clock reads. Thread-safe: spans of different threads nest separately.
class Tracer {
 public:
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Turns recording on or off; the benchmark switches it between the
  /// traced and untraced passes of one run.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Pass index stamped on spans opened from now on (-1 = none).
  void set_pass(int pass) { pass_ = pass; }

  /// Opens a span on the calling thread; returns its index (or -1 when
  /// disabled). Spans must close in LIFO order per thread.
  std::int64_t open(const std::string& name, std::uint64_t request = 0);
  void close(std::int64_t index);

  /// Snapshot of every recorded span.
  std::vector<SpanRecord> spans() const;

  /// Self time of every span, in µs: its duration minus the part of it
  /// its children cover.
  std::vector<double> self_times_us() const;

  /// Writes the spans as a Chrome trace-event file.
  void write_chrome_trace(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  int pass_ = -1;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// The process-wide tracer.
Tracer& tracer();

/// RAII span on the process-wide tracer.
class Span {
 public:
  explicit Span(const std::string& name, std::uint64_t request = 0)
      : index_(tracer().enabled() ? tracer().open(name, request) : -1) {}
  ~Span() {
    if (index_ >= 0) tracer().close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t index_;
};

/// Per-pass totals of span self time by name, in ms: result[name][pass],
/// over every span stamped with a pass (pass >= 0).
std::map<std::string, std::map<int, double>> self_ms_by_pass();

/// Fraction of the pass spans' (named `pass_name`) total duration that
/// their descendant spans cover — how much of a traced pass the layer
/// spans account for.
double pass_coverage(const std::string& pass_name);

/// Every CELLSCOPE_* environment variable that is set, as "K=V" pairs.
std::vector<std::string> cellscope_env();

}  // namespace perfbench
