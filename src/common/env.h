// Bounded parsing of count-valued environment knobs (CELLSCOPE_THREADS,
// CELLSCOPE_STREAM_SHARDS, ...).
#pragma once

#include <cstddef>

namespace cellscope {

/// Reads `name` as a decimal count in [lo, hi]. Unset or empty yields
/// `fallback` silently. Anything else that is not all decimal digits
/// (a sign, leading spaces, a suffix), overflows, or falls outside the
/// range also yields `fallback`, with one stderr note naming the
/// variable — a typo never sizes an allocation.
std::size_t env_count(const char* name, std::size_t fallback, std::size_t lo,
                      std::size_t hi);

}  // namespace cellscope
