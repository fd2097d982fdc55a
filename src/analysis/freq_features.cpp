#include "analysis/freq_features.h"

#include <array>
#include <cmath>
#include <tuple>
#include <utility>

#include "common/error.h"
#include "common/stats.h"
#include "common/time_grid.h"
#include "mapred/thread_pool.h"
#include "simd/simd.h"

namespace cellscope {

namespace {

constexpr std::size_t kWeekSlots = TimeGrid::kSlotsPerWeek;
constexpr std::size_t kWeeks = TimeGrid::kWeeks;

/// cos/sin of 2π·m/1008 for every m, built once.
struct WeekTwiddles {
  std::array<double, kWeekSlots> cos{};
  std::array<double, kWeekSlots> sin{};
};

const WeekTwiddles& week_twiddles() {
  static const WeekTwiddles table = [] {
    WeekTwiddles t;
    for (std::size_t m = 0; m < kWeekSlots; ++m) {
      const double angle = 2.0 * M_PI * static_cast<double>(m) /
                           static_cast<double>(kWeekSlots);
      t.cos[m] = std::cos(angle);
      t.sin[m] = std::sin(angle);
    }
    return t;
  }();
  return table;
}

/// Normalized amplitude 2|Y|/1008 and phase arg Y of the week's bin
/// k/4, where Y[j] = Σ_s week[s]·e^{-2πi·j·s/1008} — equal to 2|X|/4032
/// and arg X of the 4032-slot series' bin k (see the header).
std::pair<double, double> week_bin(std::span<const double> week,
                                   std::size_t k) {
  const WeekTwiddles& t = week_twiddles();
  const std::size_t j = k / kWeeks;
  double re = 0.0;
  double im = 0.0;
  std::size_t m = 0;  // (j·s) mod 1008, kept exact in integers
  for (std::size_t s = 0; s < kWeekSlots; ++s) {
    re += week[s] * t.cos[m];
    im -= week[s] * t.sin[m];
    m += j;
    if (m >= kWeekSlots) m -= kWeekSlots;
  }
  return {2.0 * std::hypot(re, im) / static_cast<double>(kWeekSlots),
          std::atan2(im, re)};
}

}  // namespace

FreqFeatures compute_freq_features(std::span<const double> zscored_series) {
  CS_CHECK_MSG(zscored_series.size() == TimeGrid::kSlots,
               "frequency features need a 4032-slot series");
  std::array<double, kWeekSlots> week{};
  simd::fold_mean(zscored_series.data(), kWeekSlots, kWeeks, week.data());
  return compute_week_freq_features(week);
}

FreqFeatures compute_week_freq_features(std::span<const double> folded_week) {
  CS_CHECK_MSG(folded_week.size() == kWeekSlots,
               "week frequency features need a 1008-slot folded week");
  static_assert(kWeeklyComponent % kWeeks == 0 &&
                    kDailyComponent % kWeeks == 0 &&
                    kHalfDailyComponent % kWeeks == 0,
                "principal bins must be multiples of the grid's weeks");
  FreqFeatures f;
  std::tie(f.amp_week, f.phase_week) = week_bin(folded_week, kWeeklyComponent);
  std::tie(f.amp_day, f.phase_day) = week_bin(folded_week, kDailyComponent);
  std::tie(f.amp_half_day, f.phase_half_day) =
      week_bin(folded_week, kHalfDailyComponent);
  return f;
}

std::vector<FreqFeatures> compute_freq_features(
    const std::vector<std::vector<double>>& zscored_rows, ThreadPool* pool) {
  std::vector<FreqFeatures> out(zscored_rows.size());
  run_indexed(pool, zscored_rows.size(), [&](std::size_t i) {
    out[i] = compute_freq_features(zscored_rows[i]);
  });
  return out;
}

std::vector<double> amplitude_variance_spectrum(
    const std::vector<std::vector<double>>& zscored_rows, std::size_t max_k,
    ThreadPool* pool) {
  CS_CHECK_MSG(!zscored_rows.empty(), "need at least one row");
  CS_CHECK_MSG(max_k < TimeGrid::kSlots, "max_k out of range");
  const std::size_t n = zscored_rows.size();
  std::vector<std::vector<double>> amp_by_k(
      max_k + 1, std::vector<double>(n, 0.0));
  // Each worker owns column i across every frequency row — disjoint slots.
  run_indexed(pool, n, [&](std::size_t i) {
    const Spectrum spectrum(zscored_rows[i]);
    for (std::size_t k = 0; k <= max_k; ++k)
      amp_by_k[k][i] = spectrum.normalized_amplitude(k);
  });
  std::vector<double> var(max_k + 1, 0.0);
  run_indexed(pool, max_k + 1,
               [&](std::size_t k) { var[k] = variance(amp_by_k[k]); });
  return var;
}

double circular_mean(std::span<const double> phases) {
  CS_CHECK_MSG(!phases.empty(), "circular mean of empty set");
  double s = 0.0;
  double c = 0.0;
  for (const double p : phases) {
    s += std::sin(p);
    c += std::cos(p);
  }
  return std::atan2(s, c);
}

double circular_stddev(std::span<const double> phases) {
  CS_CHECK_MSG(!phases.empty(), "circular stddev of empty set");
  double s = 0.0;
  double c = 0.0;
  for (const double p : phases) {
    s += std::sin(p);
    c += std::cos(p);
  }
  const double n = static_cast<double>(phases.size());
  const double r = std::sqrt(s * s + c * c) / n;
  // Mardia's definition: sqrt(-2 ln R); 0 when all phases agree.
  return r > 0.0 ? std::sqrt(std::max(0.0, -2.0 * std::log(r)))
                 : std::sqrt(-2.0 * std::log(1e-12));
}

}  // namespace cellscope
