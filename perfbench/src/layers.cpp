#include "layers.h"

#include "city.h"

namespace perfbench {

void LayerPasses::add_pool_delta(const cellscope::ThreadPoolStats& before,
                                 const cellscope::ThreadPoolStats& after) {
  tasks_.push_back(
      static_cast<double>(after.tasks_completed - before.tasks_completed));
  queue_wait_ms_.push_back(after.total_queue_wait_ms -
                           before.total_queue_wait_ms);
}

void LayerPasses::add_counts(const std::map<std::string, double>& counts) {
  for (const auto& [name, value] : counts) counts_[name].push_back(value);
}

void LayerPasses::report(Result& result) const {
  for (const auto& [name, per_pass] : self_ms_by_pass()) {
    if (name.ends_with(".pass")) continue;
    std::vector<double> values;
    for (const auto& [pass, ms] : per_pass) values.push_back(ms);
    result.set(name + "_ms", median(values), "ms");
  }
  if (!tasks_.empty()) {
    result.set("mapred.tasks", median(tasks_), "count");
    result.set("mapred.queue_wait_ms", median(queue_wait_ms_), "ms");
  }
  for (const auto& [name, values] : counts_)
    result.set(name, median(values), "count");
}

void report_coverage(Result& result, double coverage) {
  result.set("trace.coverage", coverage, "ratio");
  const bool ok = coverage >= kMinCoverage;
  ++result.attempted;
  if (!ok) ++result.failed;
  result.check(ok, "layer spans cover only " + std::to_string(coverage) +
                       " of the traced total");
}

void report_trace_totals(Result& result, const std::string& pass_span,
                         double traced_pass_s, double untraced_pass_s,
                         const Options& options, const std::string& workload) {
  report_coverage(result, pass_coverage(pass_span));
  result.set("trace.overhead", traced_pass_s / untraced_pass_s, "ratio");
  result.set("trace.pass_ms", traced_pass_s * 1000.0, "ms");
  write_chrome_trace(result, options, workload);
}

void write_chrome_trace(Result& result, const Options& options,
                        const std::string& workload) {
  const std::string path = options.work_dir + "/trace_" + workload + ".json";
  tracer().write_chrome_trace(path);
  result.info["chrome_trace"] = path;
}

void add_batch_counts(LayerPasses& layers, const BatchOutput& out) {
  const auto n = static_cast<double>(out.labels.size());
  layers.add_counts({{"ml.distance_pairs", n * (n - 1.0) / 2.0},
                     {"opt.decompose_calls",
                      static_cast<double>(out.decompositions)}});
}

void traced_training_pass(const TrainedCity& city, cellscope::ThreadPool& pool,
                          LayerPasses& layers, Result& result) {
  tracer().set_pass(kTrainingPass);
  tracer().set_enabled(true);
  BatchOutput out;
  {
    Span span("train.pass");
    out = traced_batch_pass(city.config, pool);
  }
  tracer().set_enabled(false);
  tracer().set_pass(-1);
  add_batch_counts(layers, out);
  bool same = out.labels.size() == city.tower_ids.size();
  for (std::size_t r = 0; same && r < out.labels.size(); ++r)
    same = out.labels[r] == city.batch_label_of_tower[city.tower_ids[r]];
  ++result.attempted;
  if (!same) {
    ++result.failed;
    result.check(false, "traced training pass differs from Experiment::run");
  }
}

}  // namespace perfbench
