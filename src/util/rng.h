#ifndef MPFDB_UTIL_RNG_H_
#define MPFDB_UTIL_RNG_H_

#include <cstdint>
#include <random>
#include <vector>

namespace mpfdb {

// Deterministic random number generator used by the data generators and the
// random elimination heuristic. Every consumer takes an explicit seed so all
// experiments are reproducible bit-for-bit.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  // Uniform integer in [lo, hi] (inclusive).
  int64_t UniformInt(int64_t lo, int64_t hi) {
    std::uniform_int_distribution<int64_t> dist(lo, hi);
    return dist(engine_);
  }

  // Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi) {
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(engine_);
  }

  // Bernoulli trial with success probability p.
  bool Bernoulli(double p) {
    std::bernoulli_distribution dist(p);
    return dist(engine_);
  }

  // Samples an index from an (unnormalized, non-negative) weight vector.
  // Returns 0 if all weights are zero.
  size_t Categorical(const std::vector<double>& weights) {
    double total = 0;
    for (double w : weights) total += w;
    if (total <= 0) return 0;
    double u = UniformDouble(0, total);
    double acc = 0;
    for (size_t i = 0; i < weights.size(); ++i) {
      acc += weights[i];
      if (u < acc) return i;
    }
    return weights.size() - 1;
  }

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      size_t j =
          static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap(items[i - 1], items[j]);
    }
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

// SplitMix64: the tiny counter-based generator the sampling backend uses.
// Unlike Rng's mt19937_64 (whose distributions — uniform_int_distribution
// in particular — are not pinned down by the standard and may emit different
// streams across libstdc++/libc++), every operation here is defined
// bit-for-bit by this header alone, so a Gibbs chain at a fixed seed is
// reproducible across toolchains — the property the determinism-audit CI leg
// diffs for byte-for-byte.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  // Uniform double in [0, 1), from the top 53 bits.
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  // Uniform integer in [0, n) via rejection-free scaling on the high bits;
  // the modulo bias over a 64-bit stream is immaterial for sampling and the
  // mapping is exactly reproducible. n must be > 0.
  uint64_t UniformBelow(uint64_t n) { return Next() % n; }

  // Samples an index from an (unnormalized, non-negative) weight vector.
  // Returns weights.size() when every weight is zero, so callers can tell
  // "no support" apart from "picked index 0".
  size_t Categorical(const std::vector<double>& weights) {
    double total = 0;
    for (double w : weights) total += w;
    if (!(total > 0)) return weights.size();
    double u = NextDouble() * total;
    double acc = 0;
    for (size_t i = 0; i < weights.size(); ++i) {
      acc += weights[i];
      if (u < acc) return i;
    }
    // Float round-off put u at/after the last positive bucket's edge.
    for (size_t i = weights.size(); i-- > 0;) {
      if (weights[i] > 0) return i;
    }
    return weights.size();
  }

 private:
  uint64_t state_;
};

}  // namespace mpfdb

#endif  // MPFDB_UTIL_RNG_H_
