#include "dsp/fft.h"

#include <cmath>

#include "common/error.h"

namespace cellscope {

namespace {

// Both loops write the complex product out naively, (ac − bd, ad + bc),
// through the double[2] layout std::complex guarantees
// ([complex.numbers.general]). libstdc++'s operator* adds C99 Annex G's
// non-finite "repair" branch instead: finite spectra are the same bits
// either way, NaN/Inf spectra differ from releases that used operator*
// (they were garbage either way). This TU is built with -ffp-contract=off
// (src/dsp/CMakeLists.txt), so no FMA can move a spectrum bit on any
// target.

/// One radix-2 butterfly sweep over a stage's half-blocks `a` and `b`
/// with twiddles `w`: v = b[j]·w[j]; a[j] = u + v; b[j] = u − v.
void butterfly(Complex* a, Complex* b, const Complex* w, std::size_t half) {
  double* pa = reinterpret_cast<double*>(a);
  double* pb = reinterpret_cast<double*>(b);
  const double* pw = reinterpret_cast<const double*>(w);
  for (std::size_t j = 0; j < half; ++j) {
    const double br = pb[2 * j];
    const double bi = pb[2 * j + 1];
    const double wr = pw[2 * j];
    const double wi = pw[2 * j + 1];
    const double vr = br * wr - bi * wi;
    const double vi = bi * wr + br * wi;
    const double ur = pa[2 * j];
    const double ui = pa[2 * j + 1];
    pa[2 * j] = ur + vr;
    pa[2 * j + 1] = ui + vi;
    pb[2 * j] = ur - vr;
    pb[2 * j + 1] = ui - vi;
  }
}

/// out[i] = x[i]·y[i]; `out` may alias `x` (Bluestein's in-place product).
void multiply(const Complex* x, const Complex* y, Complex* out,
              std::size_t n) {
  const double* px = reinterpret_cast<const double*>(x);
  const double* py = reinterpret_cast<const double*>(y);
  double* po = reinterpret_cast<double*>(out);
  for (std::size_t i = 0; i < n; ++i) {
    const double xr = px[2 * i];
    const double xi = px[2 * i + 1];
    const double yr = py[2 * i];
    const double yi = py[2 * i + 1];
    po[2 * i] = xr * yr - xi * yi;
    po[2 * i + 1] = xr * yi + xi * yr;
  }
}

}  // namespace

bool is_power_of_two(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

void fft_radix2_inplace(std::vector<Complex>& a, bool inverse) {
  const std::size_t n = a.size();
  CS_CHECK_MSG(is_power_of_two(n), "radix-2 FFT needs a power-of-two size");

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }

  // Per-stage twiddle table, filled by the sequential `w *= wlen`
  // recurrence once per stage: every block of a stage uses the same
  // twiddle sequence.
  std::vector<Complex> twiddles(n / 2);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = (inverse ? 2.0 : -2.0) * M_PI / static_cast<double>(len);
    const Complex wlen(std::cos(angle), std::sin(angle));
    const std::size_t half = len / 2;
    Complex w(1.0, 0.0);
    for (std::size_t j = 0; j < half; ++j) {
      twiddles[j] = w;
      w *= wlen;
    }
    for (std::size_t i = 0; i < n; i += len)
      butterfly(a.data() + i, a.data() + i + half, twiddles.data(), half);
  }
  if (inverse) {
    for (auto& x : a) x /= static_cast<double>(n);
  }
}

namespace {

/// Bluestein's algorithm: exact DFT of arbitrary length N as a circular
/// convolution of length M = next power of two >= 2N-1.
std::vector<Complex> bluestein(std::span<const Complex> input, bool inverse) {
  const std::size_t n = input.size();
  const double sign = inverse ? 1.0 : -1.0;

  // Chirp b[k] = e^{sign * iπ k² / n}; compute k² mod 2n to avoid the
  // precision loss of huge k² arguments.
  std::vector<Complex> chirp(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t k2 = (k * k) % (2 * n);
    const double angle = sign * M_PI * static_cast<double>(k2) /
                         static_cast<double>(n);
    chirp[k] = Complex(std::cos(angle), std::sin(angle));
  }

  std::size_t m = 1;
  while (m < 2 * n - 1) m <<= 1;

  std::vector<Complex> a(m, Complex(0.0, 0.0));
  std::vector<Complex> b(m, Complex(0.0, 0.0));
  multiply(input.data(), chirp.data(), a.data(), n);
  for (std::size_t k = 0; k < n; ++k) {
    b[k] = std::conj(chirp[k]);
    if (k != 0) b[m - k] = std::conj(chirp[k]);
  }

  fft_radix2_inplace(a, false);
  fft_radix2_inplace(b, false);
  multiply(a.data(), b.data(), a.data(), m);
  fft_radix2_inplace(a, true);

  std::vector<Complex> out(n);
  multiply(a.data(), chirp.data(), out.data(), n);
  if (inverse) {
    for (auto& x : out) x /= static_cast<double>(n);
  }
  return out;
}

}  // namespace

std::vector<Complex> fft(std::span<const Complex> input, bool inverse) {
  CS_CHECK_MSG(!input.empty(), "fft of empty input");
  if (is_power_of_two(input.size())) {
    std::vector<Complex> a(input.begin(), input.end());
    fft_radix2_inplace(a, inverse);
    return a;
  }
  return bluestein(input, inverse);
}

std::vector<Complex> fft_real(std::span<const double> input) {
  std::vector<Complex> c(input.size());
  for (std::size_t i = 0; i < input.size(); ++i) c[i] = Complex(input[i], 0.0);
  return fft(c, false);
}

std::vector<double> inverse_fft_real(std::span<const Complex> spectrum) {
  const auto complex_out = fft(spectrum, true);
  std::vector<double> out(complex_out.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = complex_out[i].real();
  return out;
}

std::vector<Complex> naive_dft(std::span<const Complex> input, bool inverse) {
  CS_CHECK_MSG(!input.empty(), "dft of empty input");
  const std::size_t n = input.size();
  const double sign = inverse ? 2.0 : -2.0;
  std::vector<Complex> out(n, Complex(0.0, 0.0));
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t t = 0; t < n; ++t) {
      const double angle = sign * M_PI * static_cast<double>(k) *
                           static_cast<double>(t) / static_cast<double>(n);
      out[k] += input[t] * Complex(std::cos(angle), std::sin(angle));
    }
  }
  if (inverse) {
    for (auto& x : out) x /= static_cast<double>(n);
  }
  return out;
}

}  // namespace cellscope
