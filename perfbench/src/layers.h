// Per-layer metrics of a traced run: span self times per pass, the
// benchmark pool's task counts, and per-pass work counters, reduced to
// per-pass medians under the layer names of README.md.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "mapred/thread_pool.h"
#include "workloads.h"

namespace perfbench {

struct BatchOutput;
struct TrainedCity;

/// Least share of a traced pass (or request) its layer spans must cover:
/// the tolerance within which summed layer self times account for the
/// traced total.
inline constexpr double kMinCoverage = 0.95;

/// Checks `coverage` against kMinCoverage and reports it as
/// trace.coverage.
void report_coverage(Result& result, double coverage);

/// Pass id of the traced training pass in a traced run's set-up.
inline constexpr int kTrainingPass = 1000000;

class LayerPasses {
 public:
  /// The benchmark pool's work during one traced pass.
  void add_pool_delta(const cellscope::ThreadPoolStats& before,
                      const cellscope::ThreadPoolStats& after);
  /// Work counters of one traced pass (metric name -> count).
  void add_counts(const std::map<std::string, double>& counts);
  /// Sets `<span>_ms` for every span stamped with a pass (the median over
  /// the passes it appeared in, skipping the `*.pass` roots), plus the
  /// medians of the pool deltas and counters.
  void report(Result& result) const;

 private:
  std::vector<double> tasks_;
  std::vector<double> queue_wait_ms_;
  std::map<std::string, std::vector<double>> counts_;
};

/// Writes the Chrome trace to <work_dir>/trace_<workload>.json.
void write_chrome_trace(Result& result, const Options& options,
                        const std::string& workload);

/// Reports the coverage of the `pass_span` spans, trace.overhead (traced
/// ÷ untraced pass median) and trace.pass_ms, and writes the Chrome trace.
void report_trace_totals(Result& result, const std::string& pass_span,
                         double traced_pass_s, double untraced_pass_s,
                         const Options& options, const std::string& workload);

/// Trace-mode set-up step of replay_city and serve_live: one traced
/// stage-by-stage batch pass (the work their training does), checked
/// against the trained labels, so the batch layers show in every traced
/// run.
void traced_training_pass(const TrainedCity& city, cellscope::ThreadPool& pool,
                          LayerPasses& layers, Result& result);

/// Work counts of one traced batch pass: distance pairs, decompositions.
void add_batch_counts(LayerPasses& layers, const BatchOutput& out);

}  // namespace perfbench
