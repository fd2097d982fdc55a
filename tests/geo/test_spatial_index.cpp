#include "geo/spatial_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/rng.h"

namespace cellscope {
namespace {

BoundingBox test_box() { return {31.0, 31.2, 121.0, 121.2}; }

std::vector<LatLon> random_points(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  const auto box = test_box();
  std::vector<LatLon> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    points.push_back({rng.uniform(box.lat_min, box.lat_max),
                      rng.uniform(box.lon_min, box.lon_max)});
  return points;
}

/// Oracle: brute-force radius query.
std::vector<std::size_t> brute_force(const std::vector<LatLon>& points,
                                     const LatLon& center, double radius_m) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < points.size(); ++i)
    if (haversine_m(points[i], center) <= radius_m) out.push_back(i);
  return out;
}

TEST(SpatialIndex, MatchesBruteForceOracle) {
  const auto points = random_points(500, 42);
  const SpatialIndex index(test_box(), points);
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const LatLon center{rng.uniform(31.0, 31.2), rng.uniform(121.0, 121.2)};
    const double radius = rng.uniform(50.0, 3000.0);
    EXPECT_EQ(index.query_radius(center, radius),
              brute_force(points, center, radius))
        << "trial " << trial;
  }
}

TEST(SpatialIndex, ZeroRadiusFindsOnlyCoincidentPoints) {
  const std::vector<LatLon> points = {{31.1, 121.1}, {31.15, 121.15}};
  const SpatialIndex index(test_box(), points);
  const auto hits = index.query_radius({31.1, 121.1}, 0.0);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 0u);
}

TEST(SpatialIndex, CountMatchesQuerySize) {
  const auto points = random_points(200, 1);
  const SpatialIndex index(test_box(), points);
  const LatLon center{31.1, 121.1};
  EXPECT_EQ(index.count_radius(center, 1000.0),
            index.query_radius(center, 1000.0).size());
}

TEST(SpatialIndex, NearestMatchesBruteForce) {
  const auto points = random_points(300, 9);
  const SpatialIndex index(test_box(), points);
  Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    const LatLon center{rng.uniform(31.0, 31.2), rng.uniform(121.0, 121.2)};
    const std::size_t got = index.nearest(center);
    double best = 1e18;
    std::size_t want = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      const double d = haversine_m(points[i], center);
      if (d < best) {
        best = d;
        want = i;
      }
    }
    EXPECT_NEAR(haversine_m(points[got], center), best, 1e-9);
  }
}

TEST(SpatialIndex, EmptyIndexQueriesReturnNothing) {
  const SpatialIndex index(test_box(), {});
  EXPECT_TRUE(index.query_radius({31.1, 121.1}, 1e6).empty());
  EXPECT_THROW(index.nearest({31.1, 121.1}), Error);
}

TEST(SpatialIndex, PointsOutsideBoxAreClampedButQueryable) {
  const std::vector<LatLon> points = {{35.0, 121.1}};  // way north
  const SpatialIndex index(test_box(), points);
  // Clamped to the north edge.
  EXPECT_EQ(index.count_radius({31.2, 121.1}, 100.0), 1u);
}

TEST(SpatialIndex, ResultsAreSorted) {
  const auto points = random_points(400, 21);
  const SpatialIndex index(test_box(), points);
  const auto hits = index.query_radius({31.1, 121.1}, 5000.0);
  EXPECT_TRUE(std::is_sorted(hits.begin(), hits.end()));
}

TEST(SpatialIndex, RejectsNegativeRadius) {
  const SpatialIndex index(test_box(), random_points(10, 2));
  EXPECT_THROW(index.query_radius({31.1, 121.1}, -1.0), Error);
}

// Parameterized: the oracle property holds across cell sizes.
class SpatialIndexCellSize : public ::testing::TestWithParam<double> {};

TEST_P(SpatialIndexCellSize, OracleHoldsForAnyBucketGranularity) {
  const auto points = random_points(300, 5);
  const SpatialIndex index(test_box(), points, GetParam());
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const LatLon center{rng.uniform(31.0, 31.2), rng.uniform(121.0, 121.2)};
    const double radius = rng.uniform(100.0, 5000.0);
    EXPECT_EQ(index.query_radius(center, radius),
              brute_force(points, center, radius));
  }
}

/// count_radius, query_radius and the brute-force scan agree at `center`.
void expect_all_agree(const SpatialIndex& index,
                      const std::vector<LatLon>& points, const LatLon& center,
                      double radius_m) {
  const auto want = brute_force(points, center, radius_m);
  EXPECT_EQ(index.query_radius(center, radius_m), want)
      << "center " << center.lat << "," << center.lon << " r " << radius_m;
  EXPECT_EQ(index.count_radius(center, radius_m), want.size())
      << "center " << center.lat << "," << center.lon << " r " << radius_m;
}

TEST_P(SpatialIndexCellSize, CountEqualsQueryEqualsBruteForce) {
  const auto points = random_points(2000, 17);
  const SpatialIndex index(test_box(), points, GetParam());
  Rng rng(23);
  for (int trial = 0; trial < 150; ++trial) {
    // Every third center is an indexed point, so radius 0 has hits.
    const LatLon center =
        trial % 3 == 0
            ? points[static_cast<std::size_t>(rng.uniform_int(0, 1999))]
            : LatLon{rng.uniform(31.0, 31.2), rng.uniform(121.0, 121.2)};
    for (const double radius : {0.0, 200.0, 1000.0})
      expect_all_agree(index, points, center, radius);
  }
}

/// Degrees of latitude for `meters` due north (haversine-exact).
double north_deg(double meters) {
  return meters / kEarthRadiusM * 180.0 / M_PI;
}

/// Degrees of longitude for `meters` due east at latitude `lat`.
double east_deg(double lat, double meters) {
  const double half = std::sin(meters / kEarthRadiusM / 2.0) /
                      std::cos(lat * M_PI / 180.0);
  return 2.0 * std::asin(half) * 180.0 / M_PI;
}

// Points at r - ε and r + ε from a center, each just across a bucket edge
// from the center: the row/column bounds must neither drop the inner
// point nor let the outer one in.
TEST_P(SpatialIndexCellSize, PointsAtTheRadiusAcrossBucketEdges) {
  const auto box = test_box();
  const double cell_km = GetParam();
  const auto rows = std::max<std::size_t>(
      1, static_cast<std::size_t>(box.height_km() / cell_km));
  const auto cols = std::max<std::size_t>(
      1, static_cast<std::size_t>(box.width_km() / cell_km));
  const double cell_lat = (box.lat_max - box.lat_min) / rows;
  const double cell_lon = (box.lon_max - box.lon_min) / cols;
  const double nudge = 1e-9;  // degrees, ~0.1 mm

  for (const double radius : {0.0, 200.0, 1000.0}) {
    for (const double eps : {-0.05, -1e-4, 1e-4, 0.05}) {
      const double d = std::max(0.0, radius + eps);
      std::vector<LatLon> points;
      std::vector<LatLon> centers;
      // Interior edges (or the box middle when there is a single row).
      for (std::size_t e = 1; e <= std::max<std::size_t>(1, rows - 1);
           e += std::max<std::size_t>(1, rows / 5)) {
        const double edge =
            rows > 1 ? box.lat_min + e * cell_lat : box.center().lat;
        const double lon = box.center().lon;
        // North of the center, just above the edge.
        points.push_back({edge + nudge, lon});
        centers.push_back({edge + nudge - north_deg(d), lon});
        // South of the center, just below the edge.
        points.push_back({edge - nudge, lon + 0.01});
        centers.push_back({edge - nudge + north_deg(d), lon + 0.01});
      }
      for (std::size_t e = 1; e <= std::max<std::size_t>(1, cols - 1);
           e += std::max<std::size_t>(1, cols / 5)) {
        const double edge =
            cols > 1 ? box.lon_min + e * cell_lon : box.center().lon;
        const double lat = box.center().lat;
        // East of the center, just right of the edge.
        points.push_back({lat, edge + nudge});
        centers.push_back({lat, edge + nudge - east_deg(lat, d)});
        // West of the center, just left of the edge.
        points.push_back({lat + 0.01, edge - nudge});
        centers.push_back(
            {lat + 0.01, edge - nudge + east_deg(lat + 0.01, d)});
      }
      const SpatialIndex index(box, points, cell_km);
      for (const auto& center : centers)
        expect_all_agree(index, points, center, radius);
    }
  }
}

/// The point `meters` from `from` at compass bearing `bearing` (radians).
LatLon destination(const LatLon& from, double bearing, double meters) {
  const double to_rad = M_PI / 180.0;
  const double angle = meters / kEarthRadiusM;
  const double lat1 = from.lat * to_rad;
  const double lat2 = std::asin(std::sin(lat1) * std::cos(angle) +
                                std::cos(lat1) * std::sin(angle) *
                                    std::cos(bearing));
  const double dlon =
      std::atan2(std::sin(bearing) * std::sin(angle) * std::cos(lat1),
                 std::cos(angle) - std::sin(lat1) * std::sin(lat2));
  return {lat2 / to_rad, from.lon + dlon / to_rad};
}

// Rings of points just inside and just outside the radius, at every
// bearing: the diagonals are where the latitude and longitude terms of
// the haversine mix, so the bounds that skip it are tightest there.
TEST_P(SpatialIndexCellSize, RingsAtTheRadiusMatchBruteForce) {
  Rng rng(29);
  std::vector<LatLon> centers;
  for (int i = 0; i < 30; ++i)
    centers.push_back({rng.uniform(31.02, 31.18), rng.uniform(121.02, 121.18)});
  std::vector<LatLon> points;
  for (const auto& center : centers)
    for (const double radius : {200.0, 1000.0})
      for (int b = 0; b < 24; ++b)
        for (const double eps : {-0.05, -1e-3, -1e-6, 1e-6, 1e-3, 0.05})
          points.push_back(
              destination(center, b * M_PI / 12.0 + 0.1, radius + eps));
  const SpatialIndex index(test_box(), points, GetParam());
  for (const auto& center : centers)
    for (const double radius : {200.0, 1000.0})
      expect_all_agree(index, points, center, radius);
}

INSTANTIATE_TEST_SUITE_P(CellSizes, SpatialIndexCellSize,
                         ::testing::Values(0.1, 0.25, 0.5, 1.0, 5.0, 50.0));

// A point 199.895 m due north of the center, just across a bucket-row
// edge. The window used to be sized with 111.32 km per degree, 0.11 %
// narrower than haversine's 111.195, so both queries returned nothing.
TEST(SpatialIndex, FindsPointJustInsideRadiusAcrossRowEdge) {
  const auto box = test_box();
  const auto rows =
      static_cast<std::size_t>(box.height_km() / 0.5);  // cell_km 0.5
  const double edge = box.lat_min + 20 * (box.lat_max - box.lat_min) / rows;
  const LatLon point{edge + 1e-9, 121.1};
  const LatLon center{point.lat - north_deg(199.895), 121.1};
  ASSERT_LT(haversine_m(point, center), 200.0);
  const SpatialIndex index(box, {point}, 0.5);
  EXPECT_EQ(index.query_radius(center, 200.0).size(), 1u);
  EXPECT_EQ(index.count_radius(center, 200.0), 1u);
}

}  // namespace
}  // namespace cellscope
