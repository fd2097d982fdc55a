#include "common/env.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace cellscope {

std::size_t env_count(const char* name, std::size_t fallback, std::size_t lo,
                      std::size_t hi) {
  const char* spec = std::getenv(name);
  if (spec == nullptr || *spec == '\0') return fallback;
  // from_chars on an unsigned type takes digits only: no sign, no
  // leading whitespace, and overflow reports out_of_range.
  std::size_t value = 0;
  const char* end = spec + std::strlen(spec);
  const auto [ptr, ec] = std::from_chars(spec, end, value);
  if (ec != std::errc() || ptr != end || value < lo || value > hi) {
    std::fprintf(stderr,
                 "cellscope: ignoring %s='%s' (expected an integer in "
                 "[%zu, %zu])\n",
                 name, spec, lo, hi);
    return fallback;
  }
  return value;
}

}  // namespace cellscope
