#include "geo/spatial_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"

namespace cellscope {

SpatialIndex::SpatialIndex(const BoundingBox& box, std::vector<LatLon> points,
                           double cell_km)
    : box_(box), points_(std::move(points)) {
  CS_CHECK_MSG(cell_km > 0.0, "cell_km must be positive");
  CS_CHECK_MSG(box.lat_max > box.lat_min && box.lon_max > box.lon_min,
               "bounding box must be non-degenerate");
  const double height_km = box_.height_km();
  const double width_km = box_.width_km();
  rows_ = std::max<std::size_t>(1, static_cast<std::size_t>(height_km / cell_km));
  cols_ = std::max<std::size_t>(1, static_cast<std::size_t>(width_km / cell_km));
  cell_lat_deg_ = (box_.lat_max - box_.lat_min) / static_cast<double>(rows_);
  cell_lon_deg_ = (box_.lon_max - box_.lon_min) / static_cast<double>(cols_);
  buckets_.resize(rows_ * cols_);
  for (std::size_t i = 0; i < points_.size(); ++i) {
    points_[i] = box_.clamp(points_[i]);
    buckets_[bucket_of(points_[i])].push_back(i);
  }
}

std::size_t SpatialIndex::bucket_of(const LatLon& p) const {
  auto clamp_idx = [](double f, std::size_t n) {
    const auto i = static_cast<std::ptrdiff_t>(f);
    return static_cast<std::size_t>(
        std::clamp<std::ptrdiff_t>(i, 0, static_cast<std::ptrdiff_t>(n) - 1));
  };
  const std::size_t r =
      clamp_idx((p.lat - box_.lat_min) / cell_lat_deg_, rows_);
  const std::size_t c =
      clamp_idx((p.lon - box_.lon_min) / cell_lon_deg_, cols_);
  return r * cols_ + c;
}

namespace {

constexpr double kDegToRad = M_PI / 180.0;

/// Provable bounds that decide most points near a center without calling
/// haversine_m. With θ the central angle, Δφ/Δλ the lat/lon differences
/// in radians, and φnear/φfar the smallest/largest |lat| in the window,
///   hav θ = hav Δφ + cos φ₁ cos φ₂ hav Δλ,  x²/4·(1 − x²/12) ≤ hav x ≤ x²/4
/// give two band bounds, θ ≥ |Δφ| and sin(θ/2) ≥ cos φfar · sin(|Δλ|/2),
/// and, for Q(c) = Δφ² + c²Δλ² against 4 hav(radius angle) and x the
/// larger band half-width in radians,
///   4 hav θ ≤ Q(cos φnear),   4 hav θ ≥ Q(cos φfar) · (1 − x²/12).
/// Every bound carries a relative margin far wider than haversine_m's
/// rounding, so whatever a bound decides, haversine_m would decide the
/// same; only points within millimeters of the radius reach it. The
/// index does not wrap at the antimeridian. The defaults leave the
/// longitude band and both quadratic tests off.
struct RadiusWindow {
  double dlat_deg = 0.0;  ///< band half-widths: farther points are outside
  double dlon_deg = 360.0;
  double cos2_near = 1.0;  ///< cos² φnear, for the inside test
  double cos2_far = 0.0;   ///< cos² φfar, for the outside test
  double inside_at_most = -1.0;  ///< Q(cos φnear) ≤ this: inside
  double outside_above =  ///< Q(cos φfar) > this: outside
      std::numeric_limits<double>::infinity();
};

RadiusWindow radius_window(const LatLon& center, double radius_m) {
  constexpr double kRelMargin = 1e-9;
  constexpr double kAbsMarginDeg = 1e-12;
  const double angle = std::min(M_PI, radius_m / kEarthRadiusM);
  RadiusWindow w;
  w.dlat_deg = angle / kDegToRad * (1.0 + kRelMargin) + kAbsMarginDeg;
  // Near a pole the longitude bound degenerates; keep the whole range.
  const double lat_far = std::abs(center.lat) + w.dlat_deg;
  if (lat_far >= 89.0) return w;
  const double cos_far = std::cos(lat_far * kDegToRad);
  const double q = std::sin(angle / 2.0) / cos_far;
  if (q >= 1.0) return w;
  w.dlon_deg =
      2.0 * std::asin(q) / kDegToRad * (1.0 + kRelMargin) + kAbsMarginDeg;

  // The quadratic tests, for city-scale radii of at least a millimeter
  // (below that 4 hav(angle) loses relative precision).
  if (radius_m < 1e-3 || angle > 0.2) return w;
  const double lat_near = std::max(0.0, std::abs(center.lat) - w.dlat_deg);
  const double cos_near = std::cos(lat_near * kDegToRad);
  const double x_max = std::max(w.dlat_deg, w.dlon_deg) * kDegToRad;
  const double hav4 = 4.0 * std::sin(angle / 2.0) * std::sin(angle / 2.0);
  w.cos2_near = cos_near * cos_near;
  w.cos2_far = cos_far * cos_far;
  w.inside_at_most = hav4 * (1.0 - kRelMargin);
  w.outside_above =
      hav4 * (1.0 + kRelMargin) / (1.0 - x_max * x_max / 12.0);
  return w;
}

}  // namespace

template <typename Fn>
void SpatialIndex::for_each_within(const LatLon& center, double radius_m,
                                   Fn&& fn) const {
  CS_CHECK_MSG(radius_m >= 0.0, "radius must be non-negative");
  if (points_.empty()) return;

  const RadiusWindow w = radius_window(center, radius_m);
  const std::size_t lo = bucket_of(
      box_.clamp({center.lat - w.dlat_deg, center.lon - w.dlon_deg}));
  const std::size_t hi = bucket_of(
      box_.clamp({center.lat + w.dlat_deg, center.lon + w.dlon_deg}));
  const std::size_t r0 = lo / cols_;
  const std::size_t c0 = lo % cols_;
  const std::size_t r1 = hi / cols_;
  const std::size_t c1 = hi % cols_;

  for (std::size_t r = r0; r <= r1; ++r) {
    for (std::size_t c = c0; c <= c1; ++c) {
      for (const std::size_t i : buckets_[r * cols_ + c]) {
        const LatLon& p = points_[i];
        const double dlat = p.lat - center.lat;
        const double dlon = p.lon - center.lon;
        if (std::abs(dlat) > w.dlat_deg || std::abs(dlon) > w.dlon_deg)
          continue;
        const double dphi2 = (dlat * kDegToRad) * (dlat * kDegToRad);
        const double dlam2 = (dlon * kDegToRad) * (dlon * kDegToRad);
        if (dphi2 + w.cos2_near * dlam2 <= w.inside_at_most) {
          fn(i);
        } else if (dphi2 + w.cos2_far * dlam2 <= w.outside_above &&
                   haversine_m(p, center) <= radius_m) {
          fn(i);
        }
      }
    }
  }
}

std::vector<std::size_t> SpatialIndex::query_radius(const LatLon& center,
                                                    double radius_m) const {
  std::vector<std::size_t> out;
  for_each_within(center, radius_m,
                  [&out](std::size_t i) { out.push_back(i); });
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t SpatialIndex::count_radius(const LatLon& center,
                                       double radius_m) const {
  std::size_t count = 0;
  for_each_within(center, radius_m, [&count](std::size_t) { ++count; });
  return count;
}

std::size_t SpatialIndex::nearest(const LatLon& center) const {
  CS_CHECK_MSG(!points_.empty(), "nearest() on an empty index");
  // Expanding-radius search over buckets, falling back to a linear scan for
  // correctness once the search ring covers the whole grid.
  double best = std::numeric_limits<double>::infinity();
  std::size_t best_i = 0;
  for (double radius_m = 500.0;; radius_m *= 2.0) {
    for (const std::size_t i : query_radius(center, radius_m)) {
      const double d = haversine_m(points_[i], center);
      if (d < best) {
        best = d;
        best_i = i;
      }
    }
    if (best <= radius_m) return best_i;
    const double diag_m =
        1000.0 * std::hypot(box_.height_km(), box_.width_km());
    if (radius_m > diag_m) break;
  }
  for (std::size_t i = 0; i < points_.size(); ++i) {
    const double d = haversine_m(points_[i], center);
    if (d < best) {
      best = d;
      best_i = i;
    }
  }
  return best_i;
}

}  // namespace cellscope
