// Specialized cumulative-weight search kernels for the weighted picker.
//
// Every kernel computes the same function: the index of the FIRST entry of a
// non-decreasing cumulative-weight table that exceeds `r` (an upper_bound).
// Because they are exact-equivalent, the proxy can select one at runtime per
// topology size without perturbing a single pick — the golden-trace and
// chi-square suites run against each kernel to enforce that.
//
//  * kLinear     — short forward scan; fastest when the table fits in one or
//                  two cache lines (the paper's 3-cluster topology).
//  * kMultiLane  — branch-free rank computation: counts entries <= r in four
//                  independent lanes per iteration. The comparisons carry no
//                  loop-carried dependency, so the compiler vectorizes it
//                  (SIMD compare + subtract); exact for every table the
//                  64-bit availability mask admits.
//
// The selection threshold lives in select_weighted_kernel().
#pragma once

#include <cstddef>
#include <cstdint>

namespace l3::mesh::pick {

enum class WeightedKernel : std::uint8_t {
  kLinear = 0,
  kMultiLane = 1,
};

inline constexpr std::size_t kWeightedKernelCount = 2;

/// Stable display names, indexed by WeightedKernel (report JSON, --profile).
inline const char* kernel_name(WeightedKernel k) {
  switch (k) {
    case WeightedKernel::kLinear: return "linear";
    case WeightedKernel::kMultiLane: return "multilane";
  }
  return "unknown";
}

// Tables up to kLinearMax entries take the forward scan; larger tables (the
// mask admits at most 64 backends) take the vectorizable rank count.
inline constexpr std::size_t kLinearMax = 8;

inline WeightedKernel select_weighted_kernel(std::size_t n) {
  return n <= kLinearMax ? WeightedKernel::kLinear : WeightedKernel::kMultiLane;
}

/// First i with cum[i] > r, by forward scan. Requires such an i to exist
/// (r < cum[n-1]), which the caller guarantees by clamping r below the total.
inline std::size_t search_linear(const std::uint64_t* cum, std::size_t /*n*/,
                                 std::uint64_t r) {
  std::size_t i = 0;
  while (cum[i] <= r) ++i;
  return i;
}

/// First i with cum[i] > r == the number of entries <= r (the table is
/// non-decreasing). Four independent comparisons per iteration, no
/// loop-carried branch: auto-vectorizes to SIMD compare/accumulate.
inline std::size_t search_multilane(const std::uint64_t* cum, std::size_t n,
                                    std::uint64_t r) {
  std::size_t rank = 0;
  std::size_t i = 0;
  const std::size_t lanes_end = n & ~std::size_t{3};
  for (; i < lanes_end; i += 4) {
    rank += static_cast<std::size_t>(cum[i] <= r) +
            static_cast<std::size_t>(cum[i + 1] <= r) +
            static_cast<std::size_t>(cum[i + 2] <= r) +
            static_cast<std::size_t>(cum[i + 3] <= r);
  }
  for (; i < n; ++i) rank += static_cast<std::size_t>(cum[i] <= r);
  return rank;
}

inline std::size_t search(WeightedKernel k, const std::uint64_t* cum,
                          std::size_t n, std::uint64_t r) {
  switch (k) {
    case WeightedKernel::kLinear: return search_linear(cum, n, r);
    case WeightedKernel::kMultiLane: return search_multilane(cum, n, r);
  }
  return search_linear(cum, n, r);
}

}  // namespace l3::mesh::pick
