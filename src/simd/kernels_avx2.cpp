// AVX2 kernels (x86-64 only; this TU is compiled with -mavx2 and
// -ffp-contract=off — see src/simd/CMakeLists.txt).
//
// Bit-compatibility with kernels_scalar.cpp is by construction: every
// vector op below is the same IEEE operation the scalar reference runs,
// with the same operand order, and reductions vectorize across
// independent outputs instead of reassociating — dot4 keeps one
// accumulator chain per lane, exactly the scalar per-column order. No
// FMA intrinsics anywhere (mul then add, two roundings, like scalar).
#include "simd/kernels.h"

#ifdef CELLSCOPE_SIMD_ENABLE_AVX2

#include <immintrin.h>

namespace cellscope::simd::detail {

bool cpu_has_avx2() { return __builtin_cpu_supports("avx2"); }

void dot4_avx2(const double* a, const double* packed, std::size_t dim,
               double out[4]) {
  __m256d acc = _mm256_setzero_pd();
  for (std::size_t d = 0; d < dim; ++d) {
    const __m256d x = _mm256_broadcast_sd(a + d);
    const __m256d col = _mm256_loadu_pd(packed + 4 * d);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(x, col));
  }
  _mm256_storeu_pd(out, acc);
}

void normalize_avx2(const double* v, std::size_t n, double mean, double sd,
                    double* out) {
  const __m256d vm = _mm256_set1_pd(mean);
  const __m256d vs = _mm256_set1_pd(sd);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(v + i);
    _mm256_storeu_pd(out + i, _mm256_div_pd(_mm256_sub_pd(x, vm), vs));
  }
  for (; i < n; ++i) out[i] = (v[i] - mean) / sd;
}

void fold_mean_avx2(const double* row, std::size_t period, std::size_t folds,
                    double* out) {
  const __m256d denom = _mm256_set1_pd(static_cast<double>(folds));
  std::size_t j = 0;
  for (; j + 4 <= period; j += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t f = 0; f < folds; ++f)
      acc = _mm256_add_pd(acc, _mm256_loadu_pd(row + f * period + j));
    _mm256_storeu_pd(out + j, _mm256_div_pd(acc, denom));
  }
  for (; j < period; ++j) {
    double acc = 0.0;
    for (std::size_t f = 0; f < folds; ++f) acc += row[f * period + j];
    out[j] = acc / static_cast<double>(folds);
  }
}

}  // namespace cellscope::simd::detail

#endif  // CELLSCOPE_SIMD_ENABLE_AVX2
