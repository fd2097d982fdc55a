#include "dsp/fft.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>

#include "common/error.h"
#include "common/rng.h"

namespace cellscope {
namespace {

std::vector<Complex> random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Complex> x(n);
  for (auto& v : x) v = Complex(rng.normal(), rng.normal());
  return x;
}

double max_error(const std::vector<Complex>& a,
                 const std::vector<Complex>& b) {
  double err = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    err = std::max(err, std::abs(a[i] - b[i]));
  return err;
}

TEST(Fft, IsPowerOfTwo) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(2));
  EXPECT_TRUE(is_power_of_two(1024));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(3));
  EXPECT_FALSE(is_power_of_two(4032));
}

TEST(Fft, MatchesNaiveDftOnPowerOfTwo) {
  const auto x = random_signal(64, 1);
  const auto fast = fft(x);
  const auto slow = naive_dft(x);
  EXPECT_LT(max_error(fast, slow), 1e-9);
}

TEST(Fft, BluesteinMatchesNaiveDftOnArbitraryLengths) {
  for (const std::size_t n : {3u, 5u, 12u, 63u, 100u, 441u}) {
    const auto x = random_signal(n, n);
    const auto fast = fft(x);
    const auto slow = naive_dft(x);
    EXPECT_LT(max_error(fast, slow), 1e-8) << "n = " << n;
  }
}

TEST(Fft, BluesteinMatchesNaiveOnPaperLength) {
  // N = 4032, the paper's grid length.
  const auto x = random_signal(4032, 9);
  const auto fast = fft(x);
  const auto slow = naive_dft(x);
  EXPECT_LT(max_error(fast, slow), 1e-6);
}

TEST(Fft, InverseRecoversInput) {
  for (const std::size_t n : {8u, 63u, 4032u}) {
    const auto x = random_signal(n, n + 1);
    const auto back = fft(fft(x), /*inverse=*/true);
    EXPECT_LT(max_error(x, back), 1e-9) << "n = " << n;
  }
}

TEST(Fft, LinearityHolds) {
  const std::size_t n = 96;  // non-power-of-two
  const auto x = random_signal(n, 2);
  const auto y = random_signal(n, 3);
  std::vector<Complex> combined(n);
  for (std::size_t i = 0; i < n; ++i) combined[i] = 2.0 * x[i] + 3.0 * y[i];
  const auto fx = fft(x);
  const auto fy = fft(y);
  const auto fc = fft(combined);
  double err = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    err = std::max(err, std::abs(fc[i] - (2.0 * fx[i] + 3.0 * fy[i])));
  EXPECT_LT(err, 1e-9);
}

TEST(Fft, ParsevalIdentityHolds) {
  const std::size_t n = 4032;
  const auto x = random_signal(n, 5);
  const auto fx = fft(x);
  double time_energy = 0.0;
  for (const auto& v : x) time_energy += std::norm(v);
  double freq_energy = 0.0;
  for (const auto& v : fx) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
              time_energy * 1e-9);
}

TEST(Fft, DcComponentIsTheSum) {
  std::vector<double> x = {1.0, 2.0, 3.0, 4.0, 5.0};
  const auto fx = fft_real(x);
  EXPECT_NEAR(fx[0].real(), 15.0, 1e-12);
  EXPECT_NEAR(fx[0].imag(), 0.0, 1e-12);
}

TEST(Fft, PureSinusoidConcentratesAtItsFrequency) {
  const std::size_t n = 4032;
  const std::size_t k0 = 28;
  std::vector<double> x(n);
  for (std::size_t t = 0; t < n; ++t)
    x[t] = std::cos(2.0 * M_PI * static_cast<double>(k0) *
                    static_cast<double>(t) / static_cast<double>(n));
  const auto fx = fft_real(x);
  // Energy splits between k0 and n-k0, each of magnitude n/2.
  EXPECT_NEAR(std::abs(fx[k0]), static_cast<double>(n) / 2.0, 1e-6);
  EXPECT_NEAR(std::abs(fx[n - k0]), static_cast<double>(n) / 2.0, 1e-6);
  for (std::size_t k = 1; k < 100; ++k) {
    if (k == k0) continue;
    EXPECT_LT(std::abs(fx[k]), 1e-6);
  }
}

TEST(Fft, RealSignalSpectrumIsConjugateSymmetric) {
  Rng rng(11);
  std::vector<double> x(63);
  for (auto& v : x) v = rng.normal();
  const auto fx = fft_real(x);
  for (std::size_t k = 1; k < x.size(); ++k) {
    EXPECT_NEAR(fx[k].real(), fx[x.size() - k].real(), 1e-9);
    EXPECT_NEAR(fx[k].imag(), -fx[x.size() - k].imag(), 1e-9);
  }
}

TEST(Fft, InverseRealRoundTrip) {
  Rng rng(13);
  std::vector<double> x(4032);
  for (auto& v : x) v = rng.normal();
  const auto back = inverse_fft_real(fft_real(x));
  double err = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i)
    err = std::max(err, std::fabs(x[i] - back[i]));
  EXPECT_LT(err, 1e-9);
}

TEST(Fft, SizeOneIsIdentity) {
  const std::vector<Complex> x = {Complex(3.0, -2.0)};
  const auto fx = fft(x);
  EXPECT_NEAR(std::abs(fx[0] - x[0]), 0.0, 1e-12);
}

TEST(Fft, EmptyInputThrows) {
  EXPECT_THROW(fft(std::vector<Complex>{}), Error);
  EXPECT_THROW(naive_dft(std::vector<Complex>{}), Error);
}

TEST(Fft, Radix2RejectsNonPowerOfTwo) {
  std::vector<Complex> x(6);
  EXPECT_THROW(fft_radix2_inplace(x, false), Error);
}

// Property sweep: round trip across many lengths, including primes.
class FftRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundTrip, ForwardInverseIsIdentity) {
  const auto n = GetParam();
  const auto x = random_signal(n, 1000 + n);
  const auto back = fft(fft(x), true);
  EXPECT_LT(max_error(x, back), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Lengths, FftRoundTrip,
                         ::testing::Values(2, 3, 7, 16, 17, 31, 97, 128, 257,
                                           1008, 2016, 4032));

/// FNV-1a over the bit patterns of every real and imaginary part.
std::uint64_t bit_fingerprint(std::span<const Complex> values) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const Complex& c : values) {
    for (const double part : {c.real(), c.imag()}) {
      const auto bits = std::bit_cast<std::uint64_t>(part);
      for (int byte = 0; byte < 8; ++byte) {
        hash ^= (bits >> (8 * byte)) & 0xFF;
        hash *= 0x100000001b3ULL;
      }
    }
  }
  return hash;
}

// The month-long Bluestein transform (and its inverse) pinned bit for
// bit: any change to the butterfly or pointwise-product loops that moves
// a single spectrum bit shows up here.
TEST(Fft, MonthSpectrumBitsArePinned) {
  Rng rng(4032);
  std::vector<double> series(4032);
  for (auto& v : series) v = 1000.0 + 500.0 * rng.uniform();
  const auto spectrum = fft_real(series);
  EXPECT_EQ(bit_fingerprint(spectrum), 14021126445565829688ULL);
  const auto back = fft(spectrum, true);
  EXPECT_EQ(bit_fingerprint(back), 17533267572138930348ULL);
}

}  // namespace
}  // namespace cellscope
