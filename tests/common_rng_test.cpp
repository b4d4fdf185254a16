// Unit + property tests for the deterministic splittable RNG.
#include "l3/common/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <set>
#include <utility>
#include <vector>

namespace l3 {
namespace {

TEST(SplitRng, SameSeedSameSequence) {
  SplitRng a(42);
  SplitRng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(SplitRng, DifferentSeedsDiverge) {
  SplitRng a(1);
  SplitRng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(SplitRng, SplitByTagIsDeterministic) {
  SplitRng root(7);
  SplitRng a = root.split("client");
  SplitRng b = SplitRng(7).split("client");
  for (int i = 0; i < 20; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(SplitRng, SplitIsIndependentOfParentDraws) {
  SplitRng root1(9);
  SplitRng root2(9);
  // Draw from root1 before splitting; the child must be unaffected.
  for (int i = 0; i < 50; ++i) root1.next_u64();
  SplitRng a = root1.split("x");
  SplitRng b = root2.split("x");
  for (int i = 0; i < 20; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(SplitRng, DifferentTagsGiveDifferentStreams) {
  SplitRng root(3);
  SplitRng a = root.split("alpha");
  SplitRng b = root.split("beta");
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(SplitRng, IndexSplitsDiffer) {
  SplitRng root(5);
  std::set<std::uint64_t> firsts;
  for (std::uint64_t i = 0; i < 32; ++i) {
    firsts.insert(root.split(i).next_u64());
  }
  EXPECT_EQ(firsts.size(), 32u);
}

TEST(SplitRng, UniformInRange) {
  SplitRng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(5.0, 7.0);
    EXPECT_GE(u, 5.0);
    EXPECT_LT(u, 7.0);
  }
}

TEST(SplitRng, BernoulliEdgeCases) {
  SplitRng rng(13);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(SplitRng, BernoulliFrequency) {
  SplitRng rng(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(SplitRng, ExponentialMean) {
  SplitRng rng(19);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(SplitRng, LognormalMedian) {
  SplitRng rng(23);
  std::vector<double> samples;
  const int n = 20001;
  samples.reserve(n);
  for (int i = 0; i < n; ++i) samples.push_back(rng.lognormal(std::log(0.05), 0.5));
  std::nth_element(samples.begin(), samples.begin() + n / 2, samples.end());
  EXPECT_NEAR(samples[n / 2], 0.05, 0.005);
}

TEST(SplitRng, UniformIntBoundsInclusive) {
  SplitRng rng(29);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    if (v == 0) saw_lo = true;
    if (v == 3) saw_hi = true;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

/// Property sweep: split streams stay deterministic across many seeds.
class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, SplitReproducible) {
  const std::uint64_t seed = GetParam();
  SplitRng a = SplitRng(seed).split("svc").split(3);
  SplitRng b = SplitRng(seed).split("svc").split(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST_P(RngSeedSweep, NormalSymmetry) {
  SplitRng rng(GetParam());
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) sum += rng.normal(0.0, 1.0);
  EXPECT_NEAR(sum / 10000.0, 0.0, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(1, 2, 3, 42, 1000, 99999));

// Engine identity: SplitRng draws from the in-repo Mt19937_64, which must
// reproduce std::mt19937_64 exactly — every golden in the suite was recorded
// with the std engine. Seeds cover zero, small, mid-size and the all-ones
// extreme; 10^5 draws regenerate the 312-word state ~320 times, so both twist
// loops and the wrap-around word run many times.
constexpr std::uint64_t kIdentitySeeds[] = {0, 1, 42, 0xdeadbeef,
                                            ~std::uint64_t{0}};
constexpr int kIdentityDraws = 100000;

TEST(Mt19937Engine, RawOutputEqualsStdEngine) {
  for (const std::uint64_t seed : kIdentitySeeds) {
    Mt19937_64 ours(seed);
    std::mt19937_64 ref(seed);
    int mismatches = 0;
    int first = -1;
    for (int i = 0; i < kIdentityDraws; ++i) {
      if (ours() != ref()) {
        if (first < 0) first = i;
        ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0) << "seed " << seed << ", first at draw " << first;
  }
}

TEST(Mt19937Engine, StdDistributionsEqualStdEngine) {
  for (const std::uint64_t seed : kIdentitySeeds) {
    SCOPED_TRACE(seed);
    Mt19937_64 ours(seed);
    std::mt19937_64 ref(seed);
    // A fresh distribution per engine: the normal distribution caches its
    // second value, so one shared object would hand it to the other engine.
    const auto both = [&ours, &ref](auto dist) {
      auto copy = dist;
      return std::pair(dist(ours), copy(ref));
    };
    for (int i = 0; i < kIdentityDraws / 5; ++i) {
      ASSERT_EQ((std::generate_canonical<double, 53>(ours)),
                (std::generate_canonical<double, 53>(ref)));
      const auto [small, small_ref] =
          both(std::uniform_int_distribution<std::int64_t>(0, 6));
      ASSERT_EQ(small, small_ref);
      const auto [wide, wide_ref] =
          both(std::uniform_int_distribution<std::int64_t>(-5, INT64_MAX));
      ASSERT_EQ(wide, wide_ref);
      const auto [exp, exp_ref] =
          both(std::exponential_distribution<double>(3.5));
      ASSERT_EQ(exp, exp_ref);
      const auto [normal, normal_ref] =
          both(std::normal_distribution<double>(1.0, 2.0));
      ASSERT_EQ(normal, normal_ref);
      const auto [lognormal, lognormal_ref] =
          both(std::lognormal_distribution<double>(std::log(0.05), 0.5));
      ASSERT_EQ(lognormal, lognormal_ref);
    }
    EXPECT_EQ(ours(), ref());
  }
}

// SplitRng's stream is std::mt19937_64 seeded with the splitmix64 finalizer
// of the stream seed, so each helper must return what the std distribution
// gives on that reference engine, draw for draw.
TEST(SplitRng, EveryHelperEqualsStdEngineReference) {
  const auto splitmix = [](std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  };
  for (const std::uint64_t seed : kIdentitySeeds) {
    SCOPED_TRACE(seed);
    SplitRng rng(seed);
    std::mt19937_64 ref(splitmix(seed));
    const auto canonical = [&ref] {
      return std::generate_canonical<double, 53>(ref);
    };
    for (int i = 0; i < kIdentityDraws / 10; ++i) {
      ASSERT_EQ(rng.uniform(), canonical());
      ASSERT_EQ(rng.uniform(2.0, 5.0), 2.0 + 3.0 * canonical());
      ASSERT_EQ(rng.bernoulli(0.3), canonical() < 0.3);
      ASSERT_EQ(rng.uniform_int(-3, 1000),
                std::uniform_int_distribution<std::int64_t>(-3, 1000)(ref));
      ASSERT_EQ(rng.exponential(40.0),
                std::exponential_distribution<double>(40.0)(ref));
      ASSERT_EQ(rng.normal(0.1, 0.02),
                std::normal_distribution<double>(0.1, 0.02)(ref));
      ASSERT_EQ(rng.lognormal(-3.0, 0.7),
                std::lognormal_distribution<double>(-3.0, 0.7)(ref));
      ASSERT_EQ(rng.next_u64(), ref());
    }
  }
}

}  // namespace
}  // namespace l3
