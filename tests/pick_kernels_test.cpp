// Tests for the specialized cumulative-weight search kernels: exact
// agreement with std::upper_bound (the reference semantics the scalar
// picker always had), the selector threshold, and a chi-square distribution
// check per kernel — both directly against the kernels and end-to-end
// through a proxy whose split size selects each kernel in turn.
#include "l3/mesh/pick_kernels.h"

#include "l3/common/rng.h"
#include "l3/mesh/mesh.h"
#include "l3/sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace l3::mesh::pick {
namespace {

/// Reference implementation: first index whose cumulative weight exceeds r.
std::size_t reference_search(const std::vector<std::uint64_t>& cum,
                             std::uint64_t r) {
  return static_cast<std::size_t>(
      std::upper_bound(cum.begin(), cum.end(), r) - cum.begin());
}

/// A non-decreasing cumulative table with occasional plateaus (zero-weight
/// entries), the shape the picker builds when some backends carry weight 0.
std::vector<std::uint64_t> make_table(std::size_t n, SplitRng& rng) {
  std::vector<std::uint64_t> cum(n);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    // ~1 in 4 entries weightless; upper_bound semantics must skip them.
    const bool zero = rng.bernoulli(0.25) && i + 1 < n;
    total += zero ? 0 : 1 + static_cast<std::uint64_t>(rng.uniform() * 997.0);
    cum[i] = total;
  }
  if (cum.back() == 0) cum.back() = 1;  // keep at least one pickable entry
  return cum;
}

constexpr WeightedKernel kAllKernels[] = {WeightedKernel::kLinear,
                                         WeightedKernel::kMultiLane};

TEST(PickKernels, AllKernelsAgreeWithUpperBound) {
  SplitRng rng(101);
  for (std::size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 16u, 31u, 32u, 33u,
                        63u, 64u}) {
    const auto cum = make_table(n, rng);
    const std::uint64_t total = cum.back();
    std::vector<std::uint64_t> draws;
    // Edges: 0, each boundary and its predecessor, plus random draws.
    draws.push_back(0);
    for (std::size_t i = 0; i < n; ++i) {
      if (cum[i] > 0) draws.push_back(cum[i] - 1);
      if (cum[i] < total) draws.push_back(cum[i]);
    }
    for (int k = 0; k < 200; ++k) {
      draws.push_back(
          static_cast<std::uint64_t>(rng.uniform() * static_cast<double>(total)));
    }
    for (std::uint64_t r : draws) {
      if (r >= total) r = total - 1;
      const std::size_t expected = reference_search(cum, r);
      for (const auto k : kAllKernels) {
        EXPECT_EQ(search(k, cum.data(), n, r), expected)
            << kernel_name(k) << " n=" << n << " r=" << r;
      }
    }
  }
}

TEST(PickKernels, SelectorPicksBySizeThresholds) {
  EXPECT_EQ(select_weighted_kernel(1), WeightedKernel::kLinear);
  EXPECT_EQ(select_weighted_kernel(kLinearMax), WeightedKernel::kLinear);
  EXPECT_EQ(select_weighted_kernel(kLinearMax + 1), WeightedKernel::kMultiLane);
  EXPECT_EQ(select_weighted_kernel(64), WeightedKernel::kMultiLane);
}

/// Chi-square statistic of observed counts against expected proportions.
double chi_square(const std::vector<std::uint64_t>& observed,
                  const std::vector<double>& expected_share,
                  std::uint64_t total) {
  double stat = 0.0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    const double expected = expected_share[i] * static_cast<double>(total);
    if (expected <= 0.0) {
      EXPECT_EQ(observed[i], 0u) << "weightless bin " << i << " got picks";
      continue;
    }
    const double d = static_cast<double>(observed[i]) - expected;
    stat += d * d / expected;
  }
  return stat;
}

TEST(PickKernels, ChiSquareDirectDrawsMatchWeightsPerKernel) {
  // 16-entry table (the multilane selector's natural regime) with a skewed
  // weight vector including a zero. df = 14 pickable - 1 = 13; the 99.9th
  // percentile of chi2(13) is 34.5 — use 40 for slack. The draw mapping is
  // deterministic, so this never flakes; the margin is pure chi-square.
  constexpr std::size_t kN = 16;
  std::vector<std::uint64_t> weights(kN);
  for (std::size_t i = 0; i < kN; ++i) weights[i] = 10 + 25 * (i % 5);
  weights[5] = 0;
  std::vector<std::uint64_t> cum(kN);
  std::uint64_t total_weight = 0;
  for (std::size_t i = 0; i < kN; ++i) {
    total_weight += weights[i];
    cum[i] = total_weight;
  }
  std::vector<double> share(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    share[i] = static_cast<double>(weights[i]) /
               static_cast<double>(total_weight);
  }
  constexpr std::uint64_t kDraws = 200000;
  for (const auto k : kAllKernels) {
    SplitRng rng(303);  // same draw sequence against every kernel
    std::vector<std::uint64_t> counts(kN, 0);
    for (std::uint64_t d = 0; d < kDraws; ++d) {
      auto r = static_cast<std::uint64_t>(
          rng.uniform() * static_cast<double>(total_weight));
      if (r >= total_weight) r = total_weight - 1;
      counts[search(k, cum.data(), kN, r)]++;
    }
    EXPECT_LT(chi_square(counts, share, kDraws), 40.0) << kernel_name(k);
  }
}

/// Chi-square of `picks` picks through a proxy whose split carries
/// `weights` (one backend cluster per entry), against the weight shares.
double proxy_pick_chi_square(const std::vector<std::uint64_t>& weights,
                             int picks) {
  sim::Simulator sim;
  MeshConfig config;
  config.local_delay = 0.0;
  config.local_jitter_frac = 0.0;
  config.health_probe_interval = 0.0;
  Mesh mesh(sim, SplitRng(17), config);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    mesh.deploy("svc", mesh.add_cluster("c" + std::to_string(i)), {},
                std::make_unique<FixedLatencyBehavior>(0.010, 0.030));
  }
  Proxy& proxy = mesh.proxy(0, "svc");
  mesh.find_split(0, "svc")->set_weights(weights);
  std::uint64_t total = 0;
  for (const std::uint64_t w : weights) total += w;
  std::vector<double> share;
  for (const std::uint64_t w : weights) {
    share.push_back(static_cast<double>(w) / static_cast<double>(total));
  }
  std::vector<std::uint64_t> counts(weights.size(), 0);
  for (int i = 0; i < picks; ++i) counts[proxy.pick_backend()]++;
  return chi_square(counts, share, static_cast<std::uint64_t>(picks));
}

/// End-to-end: a proxy's picks must reproduce its split's weight shares
/// through both kernels. The split size selects the kernel, so a 3-backend
/// split runs `linear` and a 12-backend split runs `multilane`.
TEST(ProxyKernelChiSquareTest, ScalarPickMatchesWeightsPerKernel) {
  ASSERT_EQ(select_weighted_kernel(3), WeightedKernel::kLinear);
  // df = 2; chi2(2) 99.9th percentile is 13.8 — use 20 for slack.
  EXPECT_LT(proxy_pick_chi_square({6000, 3000, 1000}, 60000), 20.0);
  ASSERT_EQ(select_weighted_kernel(12), WeightedKernel::kMultiLane);
  // One weightless backend: df = 10; chi2(10) 99.9th percentile is 29.6 —
  // use 35 for slack.
  EXPECT_LT(proxy_pick_chi_square(
                {900, 50, 400, 0, 1200, 300, 700, 100, 600, 250, 800, 150},
                120000),
            35.0);
}

}  // namespace
}  // namespace l3::mesh::pick
