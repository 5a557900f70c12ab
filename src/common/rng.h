#ifndef DLROVER_COMMON_RNG_H_
#define DLROVER_COMMON_RNG_H_

#include <cassert>
#include <cmath>
#include <cstdint>

namespace dlrover {

/// The constants of Rng::Zipf's rejection sampler for one (n, s), computed
/// once per distribution. Requires n > 0 and s > 0. The sampler divides by
/// 1 - s, so s == 1 is replaced by 1.0000001.
struct ZipfParams {
  ZipfParams(uint64_t n_in, double s)
      : n(n_in),
        sm(s == 1.0 ? 1.0000001 : s),
        t(std::pow(static_cast<double>(n_in), 1.0 - sm)),
        inv_exponent(1.0 / (1.0 - sm)) {
    assert(n_in > 0);
  }

  uint64_t n;
  double sm;            // the exponent used
  double t;             // n^(1 - sm), the far end of the envelope
  double inv_exponent;  // 1 / (1 - sm), the envelope's inverse-CDF power
};

/// Deterministic pseudo-random number generator (splitmix64 seeded
/// xoshiro256**). All randomness in the project flows through Rng so that
/// every simulation, test, and bench is reproducible for a fixed seed.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull) { Seed(seed); }

  /// Re-seeds the generator deterministically from `seed`.
  void Seed(uint64_t seed) {
    // splitmix64 expansion of the seed into the 256-bit state.
    uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9e3779b97f4a7c15ull;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      s = z ^ (z >> 31);
    }
  }

  /// Uniform 64-bit value.
  uint64_t NextU64() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double Uniform() { return (NextU64() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n) {
    assert(n > 0);
    // Rejection sampling to avoid modulo bias.
    const uint64_t threshold = (~n + 1) % n;  // (2^64 - n) mod n
    for (;;) {
      uint64_t r = NextU64();
      if (r >= threshold) return r % n;
    }
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    assert(lo <= hi);
    return lo + static_cast<int64_t>(
                    UniformInt(static_cast<uint64_t>(hi - lo) + 1));
  }

  /// Bernoulli trial with probability `p` of returning true.
  bool Bernoulli(double p) { return Uniform() < p; }

  /// Standard normal via Box-Muller (no cached spare: keeps state minimal).
  double Normal() {
    double u1 = Uniform();
    while (u1 <= 1e-300) u1 = Uniform();
    const double u2 = Uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
  }

  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev) { return mean + stddev * Normal(); }

  /// Log-normal such that the *median* of the distribution is `median` and
  /// sigma is the log-space standard deviation. Useful for multiplicative
  /// noise factors around 1.0.
  double LogNormal(double median, double sigma) {
    return median * std::exp(sigma * Normal());
  }

  /// Exponential with the given rate (mean 1/rate). Requires rate > 0.
  double Exponential(double rate) {
    assert(rate > 0);
    double u = Uniform();
    while (u <= 1e-300) u = Uniform();
    return -std::log(u) / rate;
  }

  /// Zipf-like integer in [0, p.n): P(k) proportional to 1/(k+1)^s. Sampled
  /// by inverse-CDF over precomputed weights is too slow for large n, so
  /// this uses rejection sampling (Devroye). Good enough for skewed id draws.
  uint64_t Zipf(const ZipfParams& p) {
    if (p.n == 1) return 0;
    for (;;) {
      const double u = Uniform();
      const double w = (p.t - 1.0) * u + 1.0;         // in [1, t]
      const double x = std::pow(w, p.inv_exponent);  // inverse of CDF bound
      const uint64_t k = static_cast<uint64_t>(x);
      if (k >= 1 && k <= p.n) {
        const double ratio = std::pow(static_cast<double>(k) / x, p.sm);
        if (Uniform() < ratio) return k - 1;
      }
    }
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
};

}  // namespace dlrover

#endif  // DLROVER_COMMON_RNG_H_
