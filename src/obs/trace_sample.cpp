#include "obs/trace_sample.h"

#include <limits>

#include "common/env.h"

namespace cellscope::obs {

TraceSampler::TraceSampler() {
  every_.store(static_cast<std::uint32_t>(env_count(
                   "CELLSCOPE_TRACE_SAMPLE", 0, 1,
                   std::numeric_limits<std::uint32_t>::max())),
               std::memory_order_relaxed);
}

TraceSampler& TraceSampler::instance() {
  static TraceSampler* sampler = new TraceSampler;  // never destroyed
  return *sampler;
}

}  // namespace cellscope::obs
