// Runtime-dispatched SIMD kernels for the analytics hot loops.
//
// The three scalar cores the profiler keeps pointing at — the blocked
// pairwise-distance tile, per-row z-score normalization and the mean-week
// fold — dispatch through this layer (DESIGN.md §12). The widest instruction set the CPU supports
// is picked once at startup via cpuid (AVX2 on x86-64; every other target
// runs the scalar reference), overridable with
// CELLSCOPE_SIMD=scalar|avx2|auto or force_isa() from tests.
//
// The bit-compatibility contract: every kernel is vectorized WITHOUT
// reassociating any floating-point reduction. Reductions keep their
// sequential accumulation order by vectorizing across independent outputs
// (dot4 runs four column dot products side by side, each lane summing in
// ascending-element order), and elementwise kernels map IEEE op for IEEE
// op onto vector lanes. No FMA contraction is permitted in any kernel TU
// (-ffp-contract=off, no FMA intrinsics), so for finite inputs every ISA
// produces bit-identical results, pinned by the `-L par` and `-L simd`
// suites.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

namespace cellscope::simd {

/// Instruction sets the dispatcher can select. Order is by width:
/// comparisons (a > b) mean "wider than".
enum class Isa {
  kScalar = 0,
  kAvx2 = 1,
};

/// Widest ISA this CPU supports (detected once; cpuid on x86-64).
Isa detected_isa();

/// The ISA kernels actually dispatch on: force_isa() override if set,
/// else CELLSCOPE_SIMD from the environment, else detected_isa(). A
/// requested ISA the CPU cannot run is reported on stderr and clamped to
/// detected_isa() — the dispatcher never emits unsupported instructions.
Isa active_isa();

/// Test/tooling override; nullopt restores env/auto selection. Clamped to
/// detected_isa() like the env knob. Not thread-safe against in-flight
/// kernels — flip it only from single-threaded test setup.
void force_isa(std::optional<Isa> isa);

/// "scalar" | "avx2".
std::string_view isa_name(Isa isa);

/// Parses "scalar" / "avx2"; "auto" or "" yields nullopt
/// (= use detected); any other spelling also yields nullopt.
std::optional<Isa> parse_isa(std::string_view name);

// ---------------------------------------------------------------------
// Kernels. All dispatch on active_isa() per call (one predictable branch
// against work of O(dim) or more).

/// Four simultaneous dot products against interleaved columns:
/// out[l] = Σ_d a[d] · packed[4d + l], each lane accumulating in
/// ascending-d order — per lane bit-identical to the plain scalar
/// `dot += a[d] * b[d]` loop. `packed` holds four equal-length columns
/// interleaved element-wise (the GEMM-style pack the distance tile
/// kernel builds per column block).
void dot4(const double* a, const double* packed, std::size_t dim,
          double out[4]);

/// out[i] = (v[i] - mean) / sd for i in [0, n). Elementwise (sub then
/// div), bit-identical across ISAs. `out` may alias `v`.
void normalize(const double* v, std::size_t n, double mean, double sd,
               double* out);

/// Folds `folds` consecutive periods of `row` (length folds·period) into
/// their mean: out[j] = (Σ_f row[f·period + j]) / folds, the inner sum
/// accumulated from 0.0 in ascending-f order — bit-identical to the
/// classic `week[s % period] += row[s]` loop. `out` must not alias `row`.
void fold_mean(const double* row, std::size_t period, std::size_t folds,
               double* out);

}  // namespace cellscope::simd
