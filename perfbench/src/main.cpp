// cellscope_bench — one benchmark program for the batch, replay and serving
// paths. Prints one JSON result line on stdout; perfbench/run.py builds
// this program, runs it and reduces its output to the result line that
// BENCHMARK.json describes.
//
//   cellscope_bench --workload batch_city|replay_city|serve_live
//                   --seed N --seconds S [--trace 0|1] [--setup-only]
//                   [--work-dir DIR]
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: cellscope_bench --workload batch_city|replay_city|"
               "serve_live --seed N --seconds S [--trace 0|1] [--setup-only]"
               " [--work-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::stoull(argv[++i]);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::stod(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--work-dir" && has_value) {
      options.work_dir = argv[++i];
    } else if (arg == "--setup-only") {
      options.setup_only = true;
    } else {
      return usage();
    }
  }
  if (options.seconds <= 0.0) return usage();

  try {
    perfbench::Result result;
    if (options.workload == "batch_city") {
      result = perfbench::run_batch_city(options);
    } else if (options.workload == "replay_city") {
      result = perfbench::run_replay_city(options);
    } else if (options.workload == "serve_live") {
      result = perfbench::run_serve_live(options);
    } else {
      return usage();
    }
    std::string env;
    for (const auto& kv : perfbench::cellscope_env())
      env += (env.empty() ? "" : " ") + kv;
    result.info["cellscope_env"] = env;
    std::cout << result.to_json() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cellscope_bench: %s\n", e.what());
    return 1;
  }
}
