#include "ml/distance.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "mapred/thread_pool.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "simd/simd.h"

namespace cellscope {

namespace {

/// Rows per parallel tile. A tile is the unit of work handed to the pool;
/// its rows share the streamed column blocks below.
constexpr std::size_t kTileRows = 16;

/// Columns per cache block. One block of 32 rows × 1008 doubles (~256 KiB)
/// stays L2-resident while every row of the tile is swept across it.
constexpr std::size_t kBlockCols = 32;

}  // namespace

DistanceMatrix DistanceMatrix::compute(
    const std::vector<std::vector<double>>& points, ThreadPool* pool) {
  const std::size_t n = points.size();
  CS_CHECK_MSG(n >= 2, "distance matrix needs at least two points");
  const std::size_t dim = points[0].size();
  for (const auto& p : points)
    CS_CHECK_MSG(p.size() == dim, "all points must have equal dimension");

  auto& registry = obs::MetricsRegistry::instance();
  obs::ScopedTimer timer(registry.histogram("cellscope.ml.distance_ms"));

  // Flatten into one contiguous row-major buffer and precompute squared
  // norms, so the kernel below is pure streaming arithmetic.
  std::vector<double> flat(n * dim);
  std::vector<double> norms(n);
  for (std::size_t i = 0; i < n; ++i) {
    double* dst = flat.data() + i * dim;
    const double* src = points[i].data();
    double norm = 0.0;
    for (std::size_t d = 0; d < dim; ++d) {
      dst[d] = src[d];
      norm += src[d] * src[d];
    }
    norms[i] = norm;
  }

  std::vector<float> condensed(n * (n - 1) / 2);
  float* out = condensed.data();
  const double* base = flat.data();

  // Whether to run the packed simd::dot4 path. Each output's dot product
  // is still one accumulation chain in ascending d (the vector kernels
  // run four independent chains side by side), so scalar and vector
  // paths produce bit-identical entries — the split exists only to skip
  // the packing overhead when dispatch resolves to scalar anyway.
  const bool vectorized = simd::active_isa() != simd::Isa::kScalar;

  // One tile = kTileRows consecutive rows of the condensed triangle. Every
  // (i, j) entry is computed by exactly one tile with a fixed dot-product
  // order, so the output does not depend on how tiles map to workers.
  auto process_tile = [&](std::size_t t) {
    const std::size_t i0 = t * kTileRows;
    const std::size_t i1 = std::min(n, i0 + kTileRows);
    // Scratch for the packed column groups of the current block,
    // interleaved GEMM-style: packed[g][4*d + l] = column (jb + 4g + l)
    // at dimension d. Packing is amortized across the tile's rows.
    std::vector<double> packed;
    for (std::size_t jb = i0 + 1; jb < n; jb += kBlockCols) {
      const std::size_t je = std::min(n, jb + kBlockCols);
      const std::size_t ngroups = vectorized ? (je - jb) / 4 : 0;
      if (ngroups > 0) {
        packed.resize(ngroups * 4 * dim);
        for (std::size_t g = 0; g < ngroups; ++g) {
          double* pk = packed.data() + g * 4 * dim;
          const double* c0 = base + (jb + 4 * g) * dim;
          for (std::size_t d = 0; d < dim; ++d) {
            pk[4 * d + 0] = c0[d];
            pk[4 * d + 1] = c0[dim + d];
            pk[4 * d + 2] = c0[2 * dim + d];
            pk[4 * d + 3] = c0[3 * dim + d];
          }
        }
      }
      for (std::size_t i = i0; i < i1; ++i) {
        const std::size_t js = std::max(i + 1, jb);
        if (js >= je) continue;
        const double* pi = base + i * dim;
        const double norm_i = norms[i];
        float* row = out + i * n - i * (i + 1) / 2;  // row[j - i - 1]
        const auto emit = [&](std::size_t j, double dot) {
          // Clamp: the norm identity can go fractionally negative for
          // near-coincident points.
          const double d2 = norm_i + norms[j] - 2.0 * dot;
          row[j - i - 1] = static_cast<float>(std::sqrt(d2 > 0.0 ? d2 : 0.0));
        };
        const auto scalar_dot = [&](std::size_t j) {
          const double* pj = base + j * dim;
          double dot = 0.0;
          for (std::size_t d = 0; d < dim; ++d) dot += pi[d] * pj[d];
          return dot;
        };
        std::size_t j = js;
        if (ngroups > 0) {
          // Scalar head until j lands on a packed group boundary, then
          // four columns at a time, scalar tail for the ragged end.
          const std::size_t aligned = jb + ((js - jb + 3) / 4) * 4;
          const std::size_t groups_end = jb + ngroups * 4;
          for (const std::size_t head = std::min(je, aligned); j < head; ++j)
            emit(j, scalar_dot(j));
          for (; j + 4 <= groups_end; j += 4) {
            double dots[4];
            simd::dot4(pi, packed.data() + (j - jb) * dim, dim, dots);
            for (std::size_t l = 0; l < 4; ++l) emit(j + l, dots[l]);
          }
        }
        for (; j < je; ++j) emit(j, scalar_dot(j));
      }
    }
  };

  const std::size_t n_tiles = (n + kTileRows - 1) / kTileRows;
  run_indexed(pool, n_tiles, process_tile);

  registry.counter("cellscope.ml.distance_pairs").add(condensed.size());
  return DistanceMatrix(n, std::move(condensed));
}

DistanceMatrix::DistanceMatrix(std::size_t n, std::vector<float> condensed)
    : n_(n), condensed_(std::move(condensed)) {
  CS_CHECK_MSG(n >= 2, "distance matrix needs n >= 2");
  CS_CHECK_MSG(condensed_.size() == n * (n - 1) / 2,
               "condensed storage must have n(n-1)/2 entries");
}

}  // namespace cellscope
