// Tests for the Scraper's columnar snapshot plans (ColumnBlock): plans are
// rebuilt only when the registry version changes, target lookup is by name
// map (first add wins on duplicates, matching the old linear scan), and the
// columnar scrape writes byte-identical data to a straightforward
// per-series copy through the string-keyed TSDB API. The mega-shaped
// control-plane test pins both caches on the 24-region scrape -> TSDB ->
// L3Controller pipeline: no plan rebuild and >= 99% cursor hits once warm.
#include "l3/metrics/scraper.h"

#include "l3/common/rng.h"
#include "l3/core/controller.h"
#include "l3/lb/l3_policy.h"
#include "l3/mesh/deployment.h"
#include "l3/mesh/mesh.h"
#include "l3/mesh/metric_names.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace l3::metrics {
namespace {

class ColumnBlockTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
  TimeSeriesDb tsdb;
  Registry registry;
};

TEST_F(ColumnBlockTest, PlanRebuiltOnlyOnRegistryVersionChange) {
  Scraper scraper(sim, tsdb);
  scraper.add_target("t", registry);
  registry.counter("a", {}).add(1.0);
  registry.gauge("g", {}).set(2.0);
  registry.histogram("h", {}).record(0.05);
  EXPECT_EQ(scraper.plan_rebuilds(), 0u);

  scraper.scrape_once();
  EXPECT_EQ(scraper.plan_rebuilds(), 1u);

  // Steady state: mutating existing series never rebuilds the plan.
  for (int i = 0; i < 10; ++i) {
    registry.counter("a", {}).add(1.0);
    registry.histogram("h", {}).record(0.2);
    scraper.scrape_once();
  }
  EXPECT_EQ(scraper.plan_rebuilds(), 1u);

  // A new series bumps the registry version: exactly one more rebuild.
  registry.counter("b", {}).add(3.0);
  scraper.scrape_once();
  scraper.scrape_once();
  EXPECT_EQ(scraper.plan_rebuilds(), 2u);
}

TEST_F(ColumnBlockTest, ColumnarScrapeMatchesPerSeriesCopy) {
  Scraper scraper(sim, tsdb);
  scraper.add_target("t", registry);
  registry.counter("req", {{"dst", "a"}}).add(7.0);
  registry.counter("req", {{"dst", "b"}}).add(11.0);
  registry.gauge("inflight", {}).set(4.0);
  HistogramSeries& h = registry.histogram("lat", {});
  for (int i = 0; i < 50; ++i) h.record(0.030 + 0.001 * i);

  // Two scrapes 5 s apart so windowed queries have rate data.
  scraper.scrape_once();
  registry.counter("req", {{"dst", "a"}}).add(5.0);
  for (int i = 0; i < 20; ++i) h.record(0.120);
  sim.run_until(5.0);
  scraper.scrape_once();

  // Oracle: the same two snapshots written through the string-keyed API in
  // registry enumeration order.
  TimeSeriesDb oracle;
  Registry shadow;
  shadow.counter("req", {{"dst", "a"}}).add(7.0);
  shadow.counter("req", {{"dst", "b"}}).add(11.0);
  shadow.gauge("inflight", {}).set(4.0);
  HistogramSeries& sh = shadow.histogram("lat", {});
  for (int i = 0; i < 50; ++i) sh.record(0.030 + 0.001 * i);
  auto copy_all = [&](SimTime at) {
    shadow.for_each(
        [&](const std::string& key, double v) { oracle.append(key, at, v); },
        [&](const std::string& key, double v) { oracle.append(key, at, v); },
        [&](const std::string& key, const HistogramSeries& hs) {
          oracle.append_histogram(key, at, hs.bounds(),
                                  hs.cumulative_counts());
        });
  };
  copy_all(0.0);
  shadow.counter("req", {{"dst", "a"}}).add(5.0);
  for (int i = 0; i < 20; ++i) sh.record(0.120);
  copy_all(5.0);

  for (const std::string key : {"req{dst=a}", "req{dst=b}", "inflight{}"}) {
    const auto got = tsdb.rate(key, 10.0, 5.0);
    const auto want = oracle.rate(key, 10.0, 5.0);
    ASSERT_EQ(got.has_value(), want.has_value()) << key;
    if (got) {
      EXPECT_EQ(*got, *want) << key;
    }
    EXPECT_EQ(*tsdb.last(key, 10.0, 5.0), *oracle.last(key, 10.0, 5.0))
        << key;
  }
  for (const double q : {0.5, 0.99}) {
    const auto got = tsdb.quantile("lat{}", q, 10.0, 5.0);
    const auto want = oracle.quantile("lat{}", q, 10.0, 5.0);
    ASSERT_TRUE(got.has_value());
    ASSERT_TRUE(want.has_value());
    EXPECT_EQ(*got, *want) << "q=" << q;
  }
}

TEST_F(ColumnBlockTest, HistogramRowWidthFollowsCustomBounds) {
  Scraper scraper(sim, tsdb);
  scraper.add_target("t", registry);
  const std::vector<double> narrow = {0.1};
  const std::vector<double> wide = {0.01, 0.1, 1.0, 10.0};
  registry.histogram("narrow", {}, &narrow).record(0.05);
  registry.histogram("wide", {}, &wide).record(5.0);
  scraper.scrape_once();
  sim.run_until(5.0);
  registry.histogram("narrow", {}, &narrow).record(0.5);
  registry.histogram("wide", {}, &wide).record(0.005);
  scraper.scrape_once();

  const auto narrow_q = tsdb.quantile("narrow{}", 0.5, 10.0, 5.0);
  ASSERT_TRUE(narrow_q.has_value());
  // The second observation lands in the +Inf bucket; the quantile clamps
  // to the highest finite bound.
  EXPECT_DOUBLE_EQ(*narrow_q, 0.1);
  const auto wide_q = tsdb.quantile("wide{}", 0.5, 10.0, 5.0);
  ASSERT_TRUE(wide_q.has_value());
  EXPECT_LE(*wide_q, 0.01 + 1e-12);
}

TEST_F(ColumnBlockTest, TargetLookupIsByNameFirstAddWins) {
  Registry second;
  Scraper scraper(sim, tsdb);
  scraper.add_target("dup", registry);
  scraper.add_target("dup", second);
  registry.counter("a", {}).add(1.0);
  second.counter("b", {}).add(2.0);

  // Disabling "dup" hits the FIRST registered target (the old linear
  // scan's first-match semantics); the second keeps scraping.
  EXPECT_TRUE(scraper.set_target_enabled("dup", false));
  scraper.scrape_once();
  EXPECT_FALSE(tsdb.last("a{}", 1.0, 0.0).has_value());
  EXPECT_TRUE(tsdb.last("b{}", 1.0, 0.0).has_value());

  EXPECT_TRUE(scraper.set_target_enabled("dup", true));
  scraper.scrape_once();
  EXPECT_TRUE(tsdb.last("a{}", 1.0, 0.0).has_value());

  EXPECT_FALSE(scraper.set_target_enabled("missing", false));
}

TEST_F(ColumnBlockTest, DisabledTargetSkipsWithoutPlanChurn) {
  Scraper scraper(sim, tsdb);
  scraper.add_target("t", registry);
  registry.counter("a", {}).add(1.0);
  scraper.scrape_once();
  EXPECT_EQ(scraper.plan_rebuilds(), 1u);

  scraper.set_target_enabled("t", false);
  scraper.scrape_once();
  scraper.set_target_enabled("t", true);
  scraper.scrape_once();
  // Enable/disable cycles never invalidate the plan.
  EXPECT_EQ(scraper.plan_rebuilds(), 1u);
}

// The control plane of the 24x420 mega scenario without its data plane (the
// per-region metric surface depends on regions x backends, not on replica
// count): 24 regions, each with its own TSDB, Scraper and L3Controller
// managing a 24-backend split. Synthetic traffic mutates every proxy series
// between rounds, so each round scrapes and queries fresh samples.
TEST(ColumnBlockControlPlane, MegaShapedPlansAndCursorsStayWarm) {
  namespace mn = mesh::metric_names;
  constexpr std::size_t kRegions = 24;
  constexpr int kWarmupRounds = 4;
  constexpr int kRounds = 160;
  sim::Simulator sim;
  mesh::MeshConfig mc;
  mc.health_probe_interval = 0.0;
  mesh::Mesh mesh(sim, SplitRng(20260808).split("mesh"), mc);
  for (std::size_t r = 0; r < kRegions; ++r) {
    mesh.add_cluster("region-" + std::to_string(r));
  }
  for (std::size_t r = 0; r < kRegions; ++r) {
    mesh.deploy("api", static_cast<mesh::ClusterId>(r), {},
                std::make_unique<mesh::FixedLatencyBehavior>(0.020, 0.060));
  }
  // Controllers and scrapers are destroyed before the TSDBs they reference.
  std::vector<std::unique_ptr<TimeSeriesDb>> tsdbs;
  std::vector<std::unique_ptr<Scraper>> scrapers;
  std::vector<std::unique_ptr<core::L3Controller>> controllers;
  const auto& names = mesh.cluster_names();
  for (std::size_t r = 0; r < kRegions; ++r) {
    const auto region = static_cast<mesh::ClusterId>(r);
    mesh.proxy(region, "api");  // materialise proxy + TrafficSplit
    tsdbs.push_back(std::make_unique<TimeSeriesDb>());
    scrapers.push_back(std::make_unique<Scraper>(sim, *tsdbs.back()));
    scrapers.back()->add_target(names[region], mesh.registry(region));
    controllers.push_back(std::make_unique<core::L3Controller>(
        mesh, *tsdbs.back(), region, std::make_unique<lb::L3Policy>()));
    controllers.back()->manage(*mesh.find_split(region, "api"));
  }

  // One bundle of the proxies' own series per (source, backend) pair.
  struct BackendSeries {
    Counter* requests;
    Counter* success;
    Counter* failure;
    HistogramSeries* latency_success;
    HistogramSeries* latency_failure;
    Counter* latency_success_sum;
    Gauge* inflight;
  };
  std::vector<BackendSeries> handles;
  for (std::size_t src = 0; src < kRegions; ++src) {
    auto& registry = mesh.registry(static_cast<mesh::ClusterId>(src));
    for (std::size_t dst = 0; dst < kRegions; ++dst) {
      const auto labels = mn::backend_labels("api", names[src], names[dst]);
      handles.push_back({&registry.counter(mn::kRequestTotal, labels),
                         &registry.counter(mn::kSuccessTotal, labels),
                         &registry.counter(mn::kFailureTotal, labels),
                         &registry.histogram(mn::kLatencySuccess, labels),
                         &registry.histogram(mn::kLatencyFailure, labels),
                         &registry.counter(mn::kLatencySuccessSum, labels),
                         &registry.gauge(mn::kInflight, labels)});
    }
  }
  double now = 0.0;
  const auto round = [&](int k) {
    now += 2.5;
    sim.run_until(now);
    for (std::size_t i = 0; i < handles.size(); ++i) {
      const BackendSeries& h = handles[i];
      const double succ = 9.0 + static_cast<double>(i % 5);
      const double lat =
          0.015 + 0.00125 * static_cast<double>((i + static_cast<std::size_t>(k)) % 8);
      h.requests->add(succ + 1.0);
      h.success->add(succ);
      h.failure->add(1.0);
      h.latency_success->record(lat);
      h.latency_failure->record(2.0 * lat);
      h.latency_success_sum->add(lat * succ);
      h.inflight->set(1.0 + static_cast<double>(k % 7));
    }
    for (auto& scraper : scrapers) scraper->scrape_once();
    for (auto& controller : controllers) controller->tick();
  };
  const auto plan_rebuilds = [&] {
    std::uint64_t total = 0;
    for (const auto& scraper : scrapers) total += scraper->plan_rebuilds();
    return total;
  };

  // Warm-up builds the scrape plans and fills the 10 s query windows.
  for (int k = 0; k < kWarmupRounds; ++k) round(k);
  const std::uint64_t warm_plan_rebuilds = plan_rebuilds();
  EXPECT_GE(warm_plan_rebuilds, kRegions);
  for (int k = kWarmupRounds; k < kWarmupRounds + kRounds; ++k) round(k);

  // A plan rebuilt per scrape would add kRegions per round.
  EXPECT_EQ(plan_rebuilds(), warm_plan_rebuilds);
  // Each series' cursor is built by its first query and then only advanced:
  // 1 - 1/164 = 0.9939 over these rounds.
  std::uint64_t hits = 0;
  std::uint64_t rebuilds = 0;
  for (const auto& tsdb : tsdbs) {
    hits += tsdb->cursor_hits();
    rebuilds += tsdb->cursor_rebuilds();
  }
  ASSERT_GT(hits + rebuilds, 0u);
  EXPECT_GE(static_cast<double>(hits) / static_cast<double>(hits + rebuilds),
            0.99);
}

}  // namespace
}  // namespace l3::metrics
