#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

#include "obs/metrics.h"

extern char** environ;

namespace perfbench {

using cellscope::obs::json_escape;

namespace {

const Clock::time_point g_process_start = Clock::now();

double now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now() -
                                                   g_process_start)
      .count();
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::uint32_t thread_tag() {
  return static_cast<std::uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffff);
}

thread_local std::vector<std::int64_t> t_open_spans;

}  // namespace

Clock::time_point process_start() { return g_process_start; }

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

Tail supported_tail(const std::vector<double>& values) {
  const double n = static_cast<double>(values.size());
  for (const double p : {99.9, 99.0, 95.0, 90.0, 50.0}) {
    if (n * (1.0 - p / 100.0) >= 10.0)
      return Tail{p, quantile(values, p / 100.0)};
  }
  return Tail{50.0, median(values)};
}

std::string Result::to_json() const {
  std::ostringstream out;
  out << "{\"correct\":" << (correct() ? "true" : "false")
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out << ',';
    first = false;
    out << '"' << json_escape(name) << "\":{\"value\":" << json_number(m.value)
        << ",\"unit\":\"" << json_escape(m.unit) << "\"}";
  }
  out << "},\"info\":{";
  first = true;
  for (const auto& [k, v] : info) {
    if (!first) out << ',';
    first = false;
    out << '"' << json_escape(k) << "\":\"" << json_escape(v) << '"';
  }
  out << "},\"check_failures\":[";
  for (std::size_t i = 0; i < check_failures.size(); ++i) {
    if (i) out << ',';
    out << '"' << json_escape(check_failures[i]) << '"';
  }
  out << "]}";
  return out.str();
}

std::int64_t Tracer::open(const std::string& name, std::uint64_t request) {
  SpanRecord span;
  span.name = name;
  span.request = request;
  span.thread = thread_tag();
  span.parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  std::int64_t index = 0;
  {
    std::lock_guard lock(mutex_);
    span.pass = pass_;
    index = static_cast<std::int64_t>(spans_.size());
    span.start_us = now_us();
    spans_.push_back(std::move(span));
  }
  t_open_spans.push_back(index);
  return index;
}

void Tracer::close(std::int64_t index) {
  const double end = now_us();
  if (!t_open_spans.empty() && t_open_spans.back() == index)
    t_open_spans.pop_back();
  std::lock_guard lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_us = end;
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

std::vector<double> Tracer::self_times_us() const {
  const auto all = spans();
  std::vector<double> self(all.size());
  for (std::size_t i = 0; i < all.size(); ++i)
    self[i] = all[i].end_us - all[i].start_us;
  // Children of one span run on its thread in LIFO order, so they never
  // overlap each other and their durations sum to the covered time.
  for (const auto& s : all)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -= s.end_us - s.start_us;
  return self;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  const auto all = spans();
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const auto& s = all[i];
    if (i) out << ",\n";
    out << "{\"name\":\"" << json_escape(s.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
        << ",\"ts\":" << json_number(s.start_us)
        << ",\"dur\":" << json_number(s.end_us - s.start_us)
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << ",\"pass\":" << s.pass << "}}";
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

std::map<std::string, std::map<int, double>> self_ms_by_pass() {
  const auto all = tracer().spans();
  const auto self = tracer().self_times_us();
  std::map<std::string, std::map<int, double>> out;
  for (std::size_t i = 0; i < all.size(); ++i)
    if (all[i].pass >= 0) out[all[i].name][all[i].pass] += self[i] / 1000.0;
  return out;
}

double pass_coverage(const std::string& pass_name) {
  const auto all = tracer().spans();
  const auto self = tracer().self_times_us();
  double total = 0.0;
  double uncovered = 0.0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].name != pass_name) continue;
    total += all[i].end_us - all[i].start_us;
    uncovered += self[i];
  }
  return total > 0.0 ? 1.0 - uncovered / total : 0.0;
}

std::vector<std::string> cellscope_env() {
  std::vector<std::string> out;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e)
    if (std::strncmp(*e, "CELLSCOPE_", 10) == 0) out.emplace_back(*e);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace perfbench
