// Serial/parallel equivalence of the analytics core (DESIGN.md §8).
//
// The determinism contract: every pooled stage — the blocked distance
// kernel, the incremental DBI sweep, the per-row z-score/fold loops, and
// the per-tower frequency features, the intensity vectorizer and the 200 m
// POI counts — produces BIT-IDENTICAL output for any worker
// count, because tiles/rows partition the output and every reduction runs
// in a fixed order. These tests pin that contract with exact comparisons
// (no tolerances), and check the incremental DBI sweep against a
// brute-force per-k oracle. Built as its own binary (label: par) so the
// CELLSCOPE_SANITIZE=thread build can run it in isolation.
// The same contract extends across SIMD dispatch: the vector kernels in
// src/simd/ accumulate every output in the scalar order (DESIGN.md §12),
// so forcing scalar vs the widest detected ISA must also be
// bit-identical — including remainder lanes, odd dimensions, and
// non-finite inputs (compared bitwise, since NaN != NaN).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "analysis/freq_features.h"
#include "analysis/poi_features.h"
#include "city/deployment.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/time_grid.h"
#include "mapred/thread_pool.h"
#include "ml/distance.h"
#include "ml/hierarchical.h"
#include "ml/validity.h"
#include "pipeline/traffic_matrix.h"
#include "pipeline/vectorizer.h"
#include "simd/simd.h"

namespace cellscope {
namespace {

std::vector<std::vector<double>> random_points(std::size_t n, std::size_t dim,
                                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> points(n, std::vector<double>(dim));
  for (auto& p : points)
    for (auto& v : p) v = rng.normal();
  return points;
}

/// Clustered points so dendrogram cuts and DBI sweeps are non-trivial.
std::vector<std::vector<double>> blob_points(std::size_t per_blob,
                                             std::size_t dim,
                                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> points;
  for (int blob = 0; blob < 4; ++blob) {
    for (std::size_t i = 0; i < per_blob; ++i) {
      std::vector<double> p(dim);
      for (auto& v : p) v = blob * 8.0 + rng.normal();
      points.push_back(std::move(p));
    }
  }
  return points;
}

TEST(ParallelEquivalence, DistanceMatrixBitIdenticalAcrossThreadCounts) {
  // Odd sizes so tiles and blocks straddle boundaries.
  const auto points = random_points(157, 33, 1);
  const auto serial = DistanceMatrix::compute(points);
  ThreadPool pool1(1);
  ThreadPool pool8(8);
  const auto par1 = DistanceMatrix::compute(points, &pool1);
  const auto par8 = DistanceMatrix::compute(points, &pool8);
  ASSERT_EQ(serial.condensed().size(), par8.condensed().size());
  EXPECT_EQ(serial.condensed(), par1.condensed());
  EXPECT_EQ(serial.condensed(), par8.condensed());
}

TEST(ParallelEquivalence, DistanceKernelMatchesDirectEuclidean) {
  // The |a|²+|b|²−2a·b kernel agrees with the direct definition to float
  // precision.
  const auto points = random_points(40, 17, 2);
  ThreadPool pool(4);
  const auto matrix = DistanceMatrix::compute(points, &pool);
  for (std::size_t i = 0; i < points.size(); ++i)
    for (std::size_t j = i + 1; j < points.size(); ++j)
      EXPECT_NEAR(matrix(i, j), euclidean_distance(points[i], points[j]),
                  1e-4);
}

TEST(ParallelEquivalence, DendrogramMergesIdenticalAcrossThreadCounts) {
  const auto points = blob_points(30, 24, 3);
  ThreadPool pool1(1);
  ThreadPool pool8(8);
  const auto serial =
      Dendrogram::run(DistanceMatrix::compute(points), Linkage::kAverage);
  const auto par1 = Dendrogram::run(DistanceMatrix::compute(points, &pool1),
                                    Linkage::kAverage);
  const auto par8 = Dendrogram::run(DistanceMatrix::compute(points, &pool8),
                                    Linkage::kAverage);
  ASSERT_EQ(serial.merges().size(), par8.merges().size());
  for (std::size_t m = 0; m < serial.merges().size(); ++m) {
    EXPECT_EQ(serial.merges()[m].a, par1.merges()[m].a);
    EXPECT_EQ(serial.merges()[m].b, par1.merges()[m].b);
    EXPECT_EQ(serial.merges()[m].distance, par1.merges()[m].distance);
    EXPECT_EQ(serial.merges()[m].a, par8.merges()[m].a);
    EXPECT_EQ(serial.merges()[m].b, par8.merges()[m].b);
    EXPECT_EQ(serial.merges()[m].distance, par8.merges()[m].distance);
  }
}

TEST(ParallelEquivalence, DbiSweepBitIdenticalAcrossThreadCounts) {
  const auto points = blob_points(25, 16, 4);
  const auto dendrogram =
      Dendrogram::run(DistanceMatrix::compute(points), Linkage::kAverage);
  ThreadPool pool1(1);
  ThreadPool pool8(8);
  const auto serial = dbi_sweep(dendrogram, points, 2, 12, 2);
  const auto par1 = dbi_sweep(dendrogram, points, 2, 12, 2, &pool1);
  const auto par8 = dbi_sweep(dendrogram, points, 2, 12, 2, &pool8);
  ASSERT_EQ(serial.size(), par8.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].k, par8[i].k);
    EXPECT_EQ(serial[i].dbi, par1[i].dbi);
    EXPECT_EQ(serial[i].dbi, par8[i].dbi);
    EXPECT_EQ(serial[i].threshold, par8[i].threshold);
    EXPECT_EQ(serial[i].valid, par8[i].valid);
  }
}

TEST(ParallelEquivalence, DbiSweepMatchesBruteForcePerKOracle) {
  // The incremental sweep against the implementation it replaced: one
  // cut_k + davies_bouldin recomputation per k.
  const auto points = blob_points(25, 16, 5);
  const std::size_t k_min = 2;
  const std::size_t k_max = 14;
  const std::size_t min_cluster_size = 3;
  const auto dendrogram =
      Dendrogram::run(DistanceMatrix::compute(points), Linkage::kAverage);
  const auto sweep =
      dbi_sweep(dendrogram, points, k_min, k_max, min_cluster_size);
  ASSERT_EQ(sweep.size(), k_max - k_min + 1);
  const auto& merges = dendrogram.merges();
  for (std::size_t k = k_min; k <= k_max; ++k) {
    const auto& point = sweep[k - k_min];
    EXPECT_EQ(point.k, k);
    const auto labels = dendrogram.cut_k(k);
    EXPECT_DOUBLE_EQ(point.dbi, davies_bouldin(points, labels));
    const std::size_t applied = dendrogram.n() - k;
    EXPECT_EQ(point.threshold, applied < merges.size()
                                   ? merges[applied].distance
                                   : merges.back().distance);
    bool valid = true;
    for (const auto& members : cluster_members(labels))
      if (members.size() < min_cluster_size) valid = false;
    EXPECT_EQ(point.valid, valid);
  }
}

TEST(ParallelEquivalence, ZscoreAndFoldBitIdenticalAcrossThreadCounts) {
  Rng rng(6);
  TrafficMatrix matrix;
  for (std::size_t i = 0; i < 37; ++i) {
    matrix.tower_ids.push_back(static_cast<std::uint32_t>(i));
    std::vector<double> row(TimeGrid::kSlots);
    for (auto& v : row) v = 100.0 + 50.0 * rng.normal();
    matrix.rows.push_back(std::move(row));
  }
  ThreadPool pool8(8);
  const auto serial_z = zscore_rows(matrix);
  const auto par_z = zscore_rows(matrix, &pool8);
  EXPECT_EQ(serial_z, par_z);
  const auto serial_fold = fold_to_week(serial_z);
  const auto par_fold = fold_to_week(serial_z, &pool8);
  EXPECT_EQ(serial_fold, par_fold);
}

TEST(ParallelEquivalence, FreqFeaturesBitIdenticalAcrossThreadCounts) {
  Rng rng(7);
  std::vector<std::vector<double>> rows(23,
                                        std::vector<double>(TimeGrid::kSlots));
  for (auto& row : rows)
    for (auto& v : row) v = rng.normal();
  ThreadPool pool8(8);
  const auto serial = compute_freq_features(rows);
  const auto par = compute_freq_features(rows, &pool8);
  ASSERT_EQ(serial.size(), par.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].amp_week, par[i].amp_week);
    EXPECT_EQ(serial[i].phase_week, par[i].phase_week);
    EXPECT_EQ(serial[i].amp_day, par[i].amp_day);
    EXPECT_EQ(serial[i].phase_day, par[i].phase_day);
    EXPECT_EQ(serial[i].amp_half_day, par[i].amp_half_day);
    EXPECT_EQ(serial[i].phase_half_day, par[i].phase_half_day);
  }
  const auto serial_var = amplitude_variance_spectrum(rows, 100);
  const auto par_var = amplitude_variance_spectrum(rows, 100, &pool8);
  EXPECT_EQ(serial_var, par_var);
}

/// Every row of `a` and `b` equal byte for byte.
void expect_rows_memcmp_equal(const TrafficMatrix& a, const TrafficMatrix& b) {
  ASSERT_EQ(a.tower_ids, b.tower_ids);
  ASSERT_EQ(a.n(), b.n());
  for (std::size_t i = 0; i < a.n(); ++i) {
    ASSERT_EQ(a.rows[i].size(), b.rows[i].size());
    EXPECT_EQ(std::memcmp(a.rows[i].data(), b.rows[i].data(),
                          a.rows[i].size() * sizeof(double)),
              0)
        << "row " << i;
  }
}

TEST(ParallelEquivalence, VectorizeIntensityBitIdenticalAcrossThreadCounts) {
  const auto city = CityModel::create_default(3);
  DeploymentOptions deployment;
  deployment.n_towers = 61;  // odd, so parallel_for blocks are uneven
  const auto towers = deploy_towers(city, deployment);
  const auto intensity = IntensityModel::create(towers, IntensityOptions{});
  ThreadPool pool1(1);
  ThreadPool pool8(8);
  const auto serial = vectorize_intensity(towers, intensity, 41);
  expect_rows_memcmp_equal(serial,
                           vectorize_intensity(towers, intensity, 41, &pool1));
  expect_rows_memcmp_equal(serial,
                           vectorize_intensity(towers, intensity, 41, &pool8));

  // The streams are forked in tower order, exactly as the one-loop
  // vectorizer drew them, so the rows are the per-tower sample_series.
  Rng rng(41);
  for (std::size_t i = 0; i < towers.size(); ++i) {
    Rng tower_rng = rng.fork();
    const auto row = intensity.sample_series(towers[i].id, tower_rng);
    ASSERT_EQ(row.size(), serial.rows[i].size());
    EXPECT_EQ(std::memcmp(row.data(), serial.rows[i].data(),
                          row.size() * sizeof(double)),
              0)
        << "row " << i;
  }
}

TEST(ParallelEquivalence, SampleSeriesIntoMatchesSampleSeries) {
  const auto city = CityModel::create_default(5);
  DeploymentOptions deployment;
  deployment.n_towers = 24;
  const auto towers = deploy_towers(city, deployment);
  for (const double cv : {0.0, 0.12}) {
    IntensityOptions options;
    options.noise_cv = cv;
    const auto intensity = IntensityModel::create(towers, options);
    Rng a(9);
    Rng b(9);
    std::vector<double> into(TimeGrid::kSlots);
    for (const auto& t : towers) {
      const auto series = intensity.sample_series(t.id, a);
      intensity.sample_series_into(t.id, b, into.data());
      ASSERT_EQ(series.size(), into.size());
      EXPECT_EQ(std::memcmp(series.data(), into.data(),
                            into.size() * sizeof(double)),
                0)
          << "tower " << t.id << " cv " << cv;
    }
    EXPECT_EQ(a.next_u64(), b.next_u64());  // both consumed the same draws
  }
}

TEST(ParallelEquivalence, PoiCountsIdenticalAcrossThreadCounts) {
  const auto city = CityModel::create_default(4);
  DeploymentOptions deployment;
  deployment.n_towers = 157;
  const auto towers = deploy_towers(city, deployment);
  const auto pois =
      PoiDatabase::generate(city, towers, PoiGenerationOptions{});
  ThreadPool pool8(8);
  for (const double radius : {0.0, kPoiRadiusM, 1000.0}) {
    const auto serial = poi_counts_for_towers(pois, towers, radius);
    EXPECT_EQ(serial, poi_counts_for_towers(pois, towers, radius, &pool8))
        << "radius " << radius;
  }
}

TEST(ParallelEquivalence, FreqFeaturesOfSeriesEqualFeaturesOfItsFold) {
  // compute_freq_features(z) folds z with fold_to_week's own kernel call,
  // so it is the week kernel on fold_to_week({z}) bit for bit — the
  // identity that keeps the batch features, OnlineClassifier::classify
  // and POST /classify on one number.
  Rng rng(15);
  for (int i = 0; i < 9; ++i) {
    std::vector<double> z(TimeGrid::kSlots);
    for (auto& v : z) v = rng.normal();
    if (i == 8) z[4000] = std::numeric_limits<double>::quiet_NaN();
    const FreqFeatures direct = compute_freq_features(z);
    const FreqFeatures folded =
        compute_week_freq_features(fold_to_week({z}).front());
    EXPECT_EQ(std::memcmp(&direct, &folded, sizeof(FreqFeatures)), 0)
        << "row " << i;
  }
}

TEST(ParallelEquivalence, SilhouetteOverloadReusesDistanceMatrix) {
  const auto points = blob_points(20, 12, 8);
  const auto dendrogram =
      Dendrogram::run(DistanceMatrix::compute(points), Linkage::kAverage);
  const auto labels = dendrogram.cut_k(4);
  const auto distances = DistanceMatrix::compute(points);
  // Agreement limited only by the matrix's float storage.
  EXPECT_NEAR(silhouette(distances, labels), silhouette(points, labels),
              1e-4);
}

TEST(ParallelEquivalence, ThresholdCutsMatchLinearScan) {
  const auto points = blob_points(15, 8, 9);
  const auto dendrogram =
      Dendrogram::run(DistanceMatrix::compute(points), Linkage::kAverage);
  const auto& merges = dendrogram.merges();
  // Probe below, at, between, and above every merge distance.
  std::vector<double> thresholds = {-1.0, 0.0, 1e18};
  for (const auto& m : merges) {
    thresholds.push_back(m.distance);
    thresholds.push_back(std::nextafter(m.distance, 0.0));
    thresholds.push_back(std::nextafter(m.distance, 1e300));
  }
  for (const double t : thresholds) {
    std::size_t m = 0;
    while (m < merges.size() && merges[m].distance <= t) ++m;
    EXPECT_EQ(dendrogram.cluster_count_at(t), dendrogram.n() - m);
    EXPECT_EQ(num_clusters(dendrogram.cut_threshold(t)), dendrogram.n() - m);
  }
}

/// Restores automatic dispatch when a test scope ends, pass or fail.
struct ForcedIsa {
  explicit ForcedIsa(simd::Isa isa) { simd::force_isa(isa); }
  ~ForcedIsa() { simd::force_isa(std::nullopt); }
};

/// Scalar plus the widest ISA this CPU actually has (just scalar when
/// that is all there is — the sweep then degenerates to a self-check).
std::vector<simd::Isa> sweep_isas() {
  std::vector<simd::Isa> isas = {simd::Isa::kScalar};
  if (simd::detected_isa() != simd::Isa::kScalar)
    isas.push_back(simd::detected_isa());
  return isas;
}

/// Bitwise equality — EXPECT_EQ on doubles/floats treats NaN as unequal
/// to itself, and the dispatch contract is about bit patterns anyway.
template <typename T>
bool bit_equal(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

TEST(SimdDispatchEquivalence, DistanceMatrixBitIdenticalAcrossIsas) {
  // Odd dimensions and point counts so the packed dot4 groups leave
  // scalar heads (js past a group boundary) and ragged tails, plus a
  // dimension below the vector width.
  const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {33, 7}, {157, 31}, {45, 3}, {9, 64}};
  for (const auto& [n, dim] : shapes) {
    const auto points = random_points(n, dim, 11);
    std::vector<std::vector<float>> results;
    for (const simd::Isa isa : sweep_isas()) {
      ForcedIsa forced(isa);
      results.push_back(DistanceMatrix::compute(points).condensed());
    }
    for (std::size_t r = 1; r < results.size(); ++r)
      EXPECT_TRUE(bit_equal(results[0], results[r]))
          << "n=" << n << " dim=" << dim;
  }
}

TEST(SimdDispatchEquivalence, DistanceMatrixNonFiniteBitIdentical) {
  auto points = random_points(37, 13, 12);
  points[3][5] = std::numeric_limits<double>::quiet_NaN();
  points[10][0] = std::numeric_limits<double>::infinity();
  points[20][12] = -std::numeric_limits<double>::infinity();
  std::vector<std::vector<float>> results;
  for (const simd::Isa isa : sweep_isas()) {
    ForcedIsa forced(isa);
    results.push_back(DistanceMatrix::compute(points).condensed());
  }
  for (std::size_t r = 1; r < results.size(); ++r)
    EXPECT_TRUE(bit_equal(results[0], results[r]));
}

TEST(SimdDispatchEquivalence, ZscoreAndFoldBitIdenticalAcrossIsas) {
  Rng rng(14);
  // Odd lengths force normalize's remainder lanes; the full-grid row
  // goes through the same fold_to_week the pipeline runs.
  for (const std::size_t n :
       {std::size_t{5}, std::size_t{37}, std::size_t{1009}}) {
    std::vector<double> series(n);
    for (auto& v : series) v = 100.0 + 50.0 * rng.normal();
    std::vector<std::vector<double>> results;
    for (const simd::Isa isa : sweep_isas()) {
      ForcedIsa forced(isa);
      results.push_back(zscore(series));
    }
    for (std::size_t r = 1; r < results.size(); ++r)
      EXPECT_TRUE(bit_equal(results[0], results[r])) << "n=" << n;
  }
  std::vector<double> row(TimeGrid::kSlots);
  for (auto& v : row) v = rng.normal();
  row[17] = std::numeric_limits<double>::quiet_NaN();  // non-finite too
  std::vector<std::vector<double>> folds;
  for (const simd::Isa isa : sweep_isas()) {
    ForcedIsa forced(isa);
    folds.push_back(fold_to_week({row}).front());
  }
  for (std::size_t r = 1; r < folds.size(); ++r)
    EXPECT_TRUE(bit_equal(folds[0], folds[r]));
}

TEST(SimdDispatchEquivalence, FreqFeaturesBitIdenticalAcrossIsas) {
  // The feature path's fold runs the dispatched fold_mean kernel; the
  // three bins read from it must not depend on the ISA. The last row
  // carries a NaN.
  Rng rng(16);
  std::vector<std::vector<double>> rows(5,
                                        std::vector<double>(TimeGrid::kSlots));
  for (auto& row : rows)
    for (auto& v : row) v = rng.normal();
  rows.back()[17] = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::vector<FreqFeatures>> results;
  for (const simd::Isa isa : sweep_isas()) {
    ForcedIsa forced(isa);
    std::vector<FreqFeatures> features;
    for (const auto& row : rows) features.push_back(compute_freq_features(row));
    results.push_back(std::move(features));
  }
  for (std::size_t r = 1; r < results.size(); ++r)
    EXPECT_TRUE(bit_equal(results[0], results[r]));
}

}  // namespace
}  // namespace cellscope
