// Deterministic, splittable random number generation. Every stochastic
// component of the simulation owns its own SplitRng stream derived from the
// experiment seed, so that adding a component or reordering draws in one
// component never perturbs another — a requirement for reproducible
// experiments and for the seed-sweep property tests.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <random>
#include <string_view>

namespace l3 {

/// MT19937-64 with exactly std::mt19937_64's output sequence: the same
/// seeding, twist and tempering, so every std distribution drawn from it
/// returns the same values and no simulated output can move. Only the twist
/// differs in form: libstdc++ selects the matrix term with a conditional on
/// each word's low bit, which GCC compiles to a data-dependent jump per
/// word (mispredicted half the time); here it is the mask
/// `(0 - (y & 1)) & kMatrixA`, so regenerating the state is branch-free.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt19937_64(result_type seed) {
    x_[0] = seed;
    for (std::size_t i = 1; i < kN; ++i) {
      x_[i] = 6364136223846793005ULL * (x_[i - 1] ^ (x_[i - 1] >> 62)) + i;
    }
  }

  result_type operator()() {
    if (next_ >= kN) twist();
    result_type z = x_[next_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

 private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;
  static constexpr std::uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;
  static constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
  static constexpr std::uint64_t kLowerMask = ~kUpperMask;

  /// One word of the twist: `far` is the word kM ahead (mod kN).
  static std::uint64_t twisted(std::uint64_t cur, std::uint64_t next,
                               std::uint64_t far) {
    const std::uint64_t y = (cur & kUpperMask) | (next & kLowerMask);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
  }

  void twist() {
    std::size_t k = 0;
    for (; k < kN - kM; ++k) x_[k] = twisted(x_[k], x_[k + 1], x_[k + kM]);
    for (; k < kN - 1; ++k) {
      x_[k] = twisted(x_[k], x_[k + 1], x_[k + kM - kN]);
    }
    x_[kN - 1] = twisted(x_[kN - 1], x_[0], x_[kM - 1]);
    next_ = 0;
  }

  std::array<std::uint64_t, kN> x_;
  std::size_t next_ = kN;
};

/// A deterministic random stream with the distribution helpers the library
/// needs. Streams are cheap to copy; `split(name)` derives an independent
/// child stream from a string tag.
class SplitRng {
 public:
  /// Creates a stream from a 64-bit seed.
  explicit SplitRng(std::uint64_t seed) : engine_(mix(seed)), seed_(seed) {}

  /// Derives an independent child stream keyed by `tag`. The child depends
  /// only on this stream's seed and the tag, not on how many numbers have
  /// been drawn from the parent.
  SplitRng split(std::string_view tag) const {
    std::uint64_t h = seed_ ^ 0xcbf29ce484222325ULL;  // FNV offset basis
    for (char c : tag) {
      h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
      h *= 0x100000001b3ULL;  // FNV-1a prime
    }
    return SplitRng(h);
  }

  /// Derives an independent child stream keyed by an index.
  SplitRng split(std::uint64_t index) const {
    return SplitRng(seed_ ^ (0x9e3779b97f4a7c15ULL * (index + 1)));
  }

  /// Uniform double in the half-open interval [0, 1): 0.0 is a possible
  /// return value, 1.0 is not (generate_canonical with 53 bits draws from
  /// {k·2⁻⁵³ : 0 ≤ k < 2⁵³}). Callers mapping onto an index range of size n
  /// via `uniform() * n` must still clamp the result to n-1: the
  /// multiplication can round up to n when n is not a power of two.
  double uniform() { return std::generate_canonical<double, 53>(engine_); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Exponential with the given rate (events per second).
  double exponential(double rate) {
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Log-normal with the given parameters of the underlying normal.
  double lognormal(double mu, double sigma) {
    return std::lognormal_distribution<double>(mu, sigma)(engine_);
  }

  /// Raw 64-bit draw.
  std::uint64_t next_u64() { return engine_(); }

  /// The (unmixed) seed this stream was created from.
  std::uint64_t seed() const { return seed_; }

 private:
  static std::uint64_t mix(std::uint64_t x) {
    // splitmix64 finalizer: decorrelates sequential/related seeds.
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  Mt19937_64 engine_;
  std::uint64_t seed_ = 0;
};

}  // namespace l3
