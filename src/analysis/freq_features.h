// Frequency-domain tower features — §5.2 of the paper.
//
// For every tower, the amplitude and phase of the three principal DFT
// components (week / day / half-day) of its z-scored traffic vector.
// These six numbers are the coordinates of the Fig. 15 scatter plots; the
// (A28, P28, A56) triple is the feature space of the Fig. 17 polygon and
// of the §5.3 convex component analysis.
//
// The three bins are read from the mean-folded week, not from a full
// 4032-point transform. k = 4, 28 and 56 are multiples of the grid's 4
// weeks, so e^{-2πi·k·1008w/4032} = 1 and X4032[k] = 4·Y1008[k/4], where
// Y is the DFT of fold_to_week's 1008-slot mean week. The normalized
// amplitude 2|X|/4032 equals 2|Y|/1008 and the phase is the same, so
// each feature is one 1008-term sum (DESIGN.md §5).
#pragma once

#include <array>
#include <span>
#include <vector>

#include "dsp/spectrum.h"

namespace cellscope {

class ThreadPool;

/// Amplitude/phase of the three principal components of one tower.
struct FreqFeatures {
  double amp_week = 0.0;    ///< A4  — normalized amplitude at k=4
  double phase_week = 0.0;  ///< P4  — phase at k=4, in (-π, π]
  double amp_day = 0.0;     ///< A28
  double phase_day = 0.0;   ///< P28
  double amp_half_day = 0.0;   ///< A56
  double phase_half_day = 0.0; ///< P56

  /// The paper's §5.3 component-analysis feature (A28, P28, A56).
  std::array<double, 3> qp_feature() const {
    return {amp_day, phase_day, amp_half_day};
  }
};

/// Extracts the features of one z-scored 4032-slot traffic series: folds
/// it with the same simd::fold_mean call fold_to_week makes, then reads
/// the three bins with compute_week_freq_features — bit-identical to
/// compute_week_freq_features(fold_to_week({series}).front()).
FreqFeatures compute_freq_features(std::span<const double> zscored_series);

/// Extracts the features of one mean-folded week (1008 slots, the output
/// of fold_to_week). Each bin j = k/4 is summed in ascending-slot order
/// from a fixed cos/sin table indexed by (j·s) mod 1008.
FreqFeatures compute_week_freq_features(std::span<const double> folded_week);

/// Batch extraction for all rows. Rows are independent, so a pool
/// parallelizes the per-tower features with bit-identical output.
std::vector<FreqFeatures> compute_freq_features(
    const std::vector<std::vector<double>>& zscored_rows,
    ThreadPool* pool = nullptr);

/// Per-frequency variance of normalized DFT amplitude across towers — the
/// Fig. 13 series. `max_k` limits the frequency range (the paper plots
/// k <= 100). Per-tower spectra are pooled when a pool is given;
/// output is bit-identical either way.
std::vector<double> amplitude_variance_spectrum(
    const std::vector<std::vector<double>>& zscored_rows, std::size_t max_k,
    ThreadPool* pool = nullptr);

/// Circular mean of phases (vector averaging; phases near ±π average
/// correctly, unlike the arithmetic mean).
double circular_mean(std::span<const double> phases);

/// Circular standard deviation of phases.
double circular_stddev(std::span<const double> phases);

}  // namespace cellscope
