// batch_city — the paper's offline analysis, pass after pass: deploy the
// city, cluster and label its towers, then the §5 frequency analysis and
// convex decomposition of every tower. Exercises city/, traffic/,
// pipeline/, ml/, analysis/, dsp/ and opt/; stream/ and server/ stay idle.
#include <algorithm>
#include <string>

#include "city.h"
#include "layers.h"
#include "mapred/thread_pool.h"
#include "workloads.h"

namespace perfbench {

using namespace cellscope;

namespace {

/// Checks one pass against the reference (the first, cold pass).
bool same_answer(const BatchOutput& pass, const BatchOutput& ref) {
  return pass.labels == ref.labels && pass.k == ref.k &&
         pass.decomposition_fp == ref.decomposition_fp;
}

}  // namespace

Result run_batch_city(const Options& options) {
  Result result;
  const ExperimentConfig config = city_config(options.seed);
  ThreadPool pool(configured_thread_count());

  // Set-up: the first pass of the process, cold caches and all. Its answer
  // is the reference every later pass must reproduce bit for bit.
  const BatchOutput ref = batch_pass(config, pool, /*with_energy=*/true);
  result.set("setup_s", seconds_between(process_start(), Clock::now()), "s");
  if (options.setup_only) return result;

  result.attempted = 1;
  const bool ref_ok = ref.k == 5 && ref.energy_fraction >= 0.94;
  if (!ref_ok) result.failed = 1;
  result.check(ref.k == 5, "k = " + std::to_string(ref.k) + ", expected 5");
  result.check(ref.energy_fraction >= 0.94,
               "principal DFT energy " + std::to_string(ref.energy_fraction) +
                   " < 0.94");
  result.info["k"] = std::to_string(ref.k);
  result.info["principal_energy"] = std::to_string(ref.energy_fraction);
  result.info["towers"] = std::to_string(ref.labels.size());

  std::vector<double> untraced_s;
  std::vector<double> section5_s;
  std::vector<double> traced_s;
  LayerPasses layers;
  const auto start = Clock::now();
  int pass = 0;
  // The untraced run measures passes back to back. The traced run
  // alternates an untraced and a traced pass, so both see the same
  // machine state and their ratio is the tracing overhead.
  while (seconds_between(start, Clock::now()) < options.seconds ||
         untraced_s.size() < 3 || (options.trace && traced_s.size() < 3)) {
    {
      const auto t0 = Clock::now();
      const BatchOutput out = batch_pass(config, pool);
      untraced_s.push_back(seconds_between(t0, Clock::now()));
      section5_s.push_back(out.section5_s);
      ++result.attempted;
      if (!same_answer(out, ref)) {
        ++result.failed;
        result.check(false, "batch pass " + std::to_string(pass) +
                                " differs from the first pass");
      }
    }
    if (options.trace) {
      const auto before = pool.stats();
      tracer().set_pass(pass);
      tracer().set_enabled(true);
      const auto t0 = Clock::now();
      BatchOutput out;
      {
        Span span("batch.pass");
        out = traced_batch_pass(config, pool);
      }
      traced_s.push_back(seconds_between(t0, Clock::now()));
      tracer().set_enabled(false);
      layers.add_pool_delta(before, pool.stats());
      ++result.attempted;
      if (!same_answer(out, ref)) {
        ++result.failed;
        result.check(false, "traced stage-by-stage pass " +
                                std::to_string(pass) +
                                " differs from Experiment::run");
      }
      add_batch_counts(layers, out);
    }
    ++pass;
  }

  result.set("batch_s", median(untraced_s), "s");
  result.set("batch_section5_s", median(section5_s), "s");
  result.set("batch_max_s",
             *std::max_element(untraced_s.begin(), untraced_s.end()), "s");
  result.info["batch_passes"] = std::to_string(untraced_s.size());
  if (options.trace) {
    layers.report(result);
    report_trace_totals(result, "batch.pass", median(traced_s),
                        median(untraced_s), options, "batch_city");
  }
  result.set("peak_rss_mb", peak_rss_mb(), "MB");
  return result;
}

}  // namespace perfbench
