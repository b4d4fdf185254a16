#include "l3/common/stats.h"

#include "l3/common/assert.h"
#include "l3/common/radix_sort.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

namespace l3 {
namespace {

/// Maps a double's IEEE-754 bits to an unsigned key whose order matches
/// operator< on the doubles (NaNs excluded): negatives get all bits
/// flipped, non-negatives just the sign bit.
std::uint64_t order_key(double d) {
  std::uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  const std::uint64_t mask =
      static_cast<std::uint64_t>(static_cast<std::int64_t>(b) >> 63) |
      0x8000000000000000ull;
  return b ^ mask;
}

double key_to_double(std::uint64_t k) {
  const std::uint64_t b = (k & 0x8000000000000000ull) != 0
                              ? k ^ 0x8000000000000000ull
                              : ~k;
  double d;
  std::memcpy(&d, &b, sizeof(d));
  return d;
}

/// Below this the comparison sort wins on cache residency and the radix
/// machinery's fixed costs dominate (measured crossover ~2k).
constexpr std::size_t kRadixThreshold = 2048;

/// percentile_sorted's interpolation over `n` ascending values read through
/// `at(i)`, so a caller holding them in another form converts only the two
/// ranks it reads.
template <class At>
double interpolate(std::size_t n, double q, At at) {
  if (n == 1) return at(0);
  const double pos = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, n - 1);
  const double frac = pos - static_cast<double>(lo);
  return at(lo) * (1.0 - frac) + at(hi) * frac;
}

}  // namespace

double percentile(std::span<const double> values, double q) {
  L3_EXPECTS(q >= 0.0 && q <= 1.0);
  if (values.empty()) return 0.0;
  const std::size_t n = values.size();
  if (n < kRadixThreshold) {
    std::vector<double> sorted(values.begin(), values.end());
    std::sort(sorted.begin(), sorted.end());
    return percentile_sorted(sorted, q);
  }
  // Large samples are radix-sorted on their order keys: exactly the order
  // std::sort gives on the doubles (the key mapping is a strictly monotone
  // bijection), in O(n) sequential passes instead of n·log n branchy
  // comparisons.
  RadixBuffer<std::uint64_t> keys(n, /*with_payload=*/false);
  for (std::size_t i = 0; i < n; ++i) keys.data()[i] = order_key(values[i]);
  keys.sort(n);
  const std::uint64_t* sorted = keys.data();
  return interpolate(n, q, [sorted](std::size_t i) {
    return key_to_double(sorted[i]);
  });
}

double percentile_sorted(std::span<const double> sorted, double q) {
  L3_EXPECTS(q >= 0.0 && q <= 1.0);
  if (sorted.empty()) return 0.0;
  return interpolate(sorted.size(), q,
                     [sorted](std::size_t i) { return sorted[i]; });
}

double mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double stddev(std::span<const double> values) {
  if (values.size() < 2) return 0.0;
  const double m = mean(values);
  double acc = 0.0;
  for (double v : values) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(values.size()));
}

LatencySummary summarize_sorted(std::span<const double> sorted, double mean) {
  LatencySummary s;
  s.count = sorted.size();
  if (sorted.empty()) return s;
  s.mean = mean;
  s.p50 = percentile_sorted(sorted, 0.50);
  s.p90 = percentile_sorted(sorted, 0.90);
  s.p95 = percentile_sorted(sorted, 0.95);
  s.p99 = percentile_sorted(sorted, 0.99);
  s.p999 = percentile_sorted(sorted, 0.999);
  s.max = sorted.back();
  return s;
}

}  // namespace l3
