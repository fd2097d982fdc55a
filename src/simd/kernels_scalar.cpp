// Canonical scalar kernels — the reference every vector ISA must match
// bit for bit. This TU is compiled with -ffp-contract=off so the compiler
// cannot fuse the mul/add pairs into FMAs on any target; the accumulation
// orders written here ARE the contract.
#include "simd/kernels.h"

namespace cellscope::simd::detail {

void dot4_scalar(const double* a, const double* packed, std::size_t dim,
                 double out[4]) {
  double s0 = 0.0;
  double s1 = 0.0;
  double s2 = 0.0;
  double s3 = 0.0;
  for (std::size_t d = 0; d < dim; ++d) {
    const double x = a[d];
    const double* col = packed + 4 * d;
    s0 += x * col[0];
    s1 += x * col[1];
    s2 += x * col[2];
    s3 += x * col[3];
  }
  out[0] = s0;
  out[1] = s1;
  out[2] = s2;
  out[3] = s3;
}

void normalize_scalar(const double* v, std::size_t n, double mean, double sd,
                      double* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = (v[i] - mean) / sd;
}

void fold_mean_scalar(const double* row, std::size_t period, std::size_t folds,
                      double* out) {
  const double denom = static_cast<double>(folds);
  for (std::size_t j = 0; j < period; ++j) {
    double acc = 0.0;  // start from +0.0 like the classic += fold loop
    for (std::size_t f = 0; f < folds; ++f) acc += row[f * period + j];
    out[j] = acc / denom;
  }
}

}  // namespace cellscope::simd::detail
