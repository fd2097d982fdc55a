// The benchmark's three workloads over one seeded city (README.md).
#pragma once

#include <cstdint>
#include <string>

#include "common.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Stop after set-up and report only setup_s (run.py runs
  /// extra set-up-only processes to take a median of cold set-ups).
  bool setup_only = false;
  /// Directory for scratch files (the replay trace) and the Chrome trace.
  std::string work_dir = ".";
};

Result run_batch_city(const Options& options);
Result run_replay_city(const Options& options);
Result run_serve_live(const Options& options);

}  // namespace perfbench
