// Perf/ablation: FFT implementations across transform sizes — iterative
// radix-2 on powers of two, Bluestein on arbitrary sizes (including the
// paper's N = 4032), and the naive O(N²) DFT as the baseline that makes
// the fast paths' asymptotic win visible — plus the per-tower
// frequency-feature stage, which reads three bins without a transform.
#include <benchmark/benchmark.h>

#include "bench_common.h"

#include "analysis/freq_features.h"
#include "common/rng.h"
#include "dsp/fft.h"

namespace {

using cellscope::Complex;

std::vector<Complex> random_signal(std::size_t n) {
  cellscope::Rng rng(n);
  std::vector<Complex> x(n);
  for (auto& v : x) v = Complex(rng.normal(), rng.normal());
  return x;
}

void BM_FftRadix2(benchmark::State& state) {
  const auto x = random_signal(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto out = cellscope::fft(x);
    benchmark::DoNotOptimize(out);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FftRadix2)->RangeMultiplier(4)->Range(64, 16384)->Complexity();

void BM_FftBluestein(benchmark::State& state) {
  // Sizes chosen non-power-of-two; 4032 is the paper's grid.
  const auto x = random_signal(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto out = cellscope::fft(x);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_FftBluestein)->Arg(63)->Arg(1008)->Arg(4032)->Arg(12096);

void BM_NaiveDft(benchmark::State& state) {
  const auto x = random_signal(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto out = cellscope::naive_dft(x);
    benchmark::DoNotOptimize(out);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_NaiveDft)->RangeMultiplier(4)->Range(64, 1024)->Complexity();

void BM_FreqFeatureExtraction(benchmark::State& state) {
  // The per-tower cost of the frequency-feature stage: fold the
  // 4032-slot series to its mean week and sum the three principal bins.
  // (BM_FftBluestein/4032 times the full transform it replaces.)
  cellscope::Rng rng(7);
  std::vector<double> series(4032);
  for (auto& v : series) v = rng.normal();
  for (auto _ : state) {
    auto features = cellscope::compute_freq_features(series);
    benchmark::DoNotOptimize(features);
  }
}
BENCHMARK(BM_FreqFeatureExtraction);

}  // namespace

CELLSCOPE_BENCH_JSON("perf_fft");
