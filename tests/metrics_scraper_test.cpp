// Tests for the scrape loop: periodic snapshots, multiple targets, scrape
// gaps (disabled targets), and end-to-end registry→TSDB flow.
#include "l3/metrics/scraper.h"

#include <gtest/gtest.h>

namespace l3::metrics {
namespace {

class ScraperTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
  TimeSeriesDb tsdb;
  Registry registry;
};

TEST_F(ScraperTest, ScrapesOnInterval) {
  Scraper scraper(sim, tsdb);
  scraper.add_target("t", registry);
  Counter& c = registry.counter("req", {});
  scraper.start(5.0);

  c.add(10.0);
  sim.run_until(12.0);  // scrapes at t=5, t=10
  EXPECT_EQ(scraper.scrape_count(), 2u);
  const auto rate = tsdb.rate(tsdb.series("req{}"), 10.0, 12.0);
  ASSERT_TRUE(rate.has_value());
  EXPECT_DOUBLE_EQ(*rate, 0.0);  // counter static between the two scrapes

  c.add(25.0);
  sim.run_until(16.0);  // scrape at t=15 sees 35
  const auto rate2 = tsdb.rate(tsdb.series("req{}"), 10.0, 16.0);
  ASSERT_TRUE(rate2.has_value());
  EXPECT_DOUBLE_EQ(*rate2, 25.0 / 5.0);
}

TEST_F(ScraperTest, ScrapeOnceIsImmediate) {
  Scraper scraper(sim, tsdb);
  scraper.add_target("t", registry);
  registry.gauge("g", {}).set(3.0);
  scraper.scrape_once();
  EXPECT_EQ(scraper.scrape_count(), 1u);
  EXPECT_DOUBLE_EQ(*tsdb.last(tsdb.series("g{}"), 1.0, 0.0), 3.0);
}

TEST_F(ScraperTest, DisabledTargetLeavesGap) {
  Scraper scraper(sim, tsdb);
  scraper.add_target("t", registry);
  Counter& c = registry.counter("req", {});
  scraper.start(5.0);
  c.add(5.0);
  sim.run_until(11.0);
  ASSERT_TRUE(tsdb.rate(tsdb.series("req{}"), 10.0, 11.0).has_value());

  // Inject a scrape outage (the §4 ">10 s without data" path).
  EXPECT_TRUE(scraper.set_target_enabled("t", false));
  sim.run_until(40.0);
  EXPECT_FALSE(tsdb.rate(tsdb.series("req{}"), 10.0, 40.0).has_value());

  // Recovery.
  EXPECT_TRUE(scraper.set_target_enabled("t", true));
  sim.run_until(55.0);
  EXPECT_TRUE(tsdb.rate(tsdb.series("req{}"), 10.0, 55.0).has_value());
}

TEST_F(ScraperTest, UnknownTargetNameReturnsFalse) {
  Scraper scraper(sim, tsdb);
  EXPECT_FALSE(scraper.set_target_enabled("missing", false));
}

TEST_F(ScraperTest, MultipleTargetsAllScraped) {
  Registry r2;
  Scraper scraper(sim, tsdb);
  scraper.add_target("a", registry);
  scraper.add_target("b", r2);
  registry.counter("m", {{"t", "a"}}).add(1.0);
  r2.counter("m", {{"t", "b"}}).add(2.0);
  scraper.scrape_once();
  EXPECT_DOUBLE_EQ(*tsdb.last(tsdb.series("m{t=a}"), 1.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(*tsdb.last(tsdb.series("m{t=b}"), 1.0, 0.0), 2.0);
}

TEST_F(ScraperTest, HistogramsFlowThrough) {
  Scraper scraper(sim, tsdb);
  scraper.add_target("t", registry);
  HistogramSeries& h = registry.histogram("lat", {});
  scraper.start(5.0);
  sim.run_until(6.0);  // baseline scrape with no data
  for (int i = 0; i < 100; ++i) h.record(0.050);
  sim.run_until(11.0);
  const auto p99 =
      tsdb.quantile(tsdb.histogram_series("lat{}"), 0.99, 10.0, 11.0);
  ASSERT_TRUE(p99.has_value());
  // All observations are in the (40 ms, 50 ms] Linkerd bucket.
  EXPECT_GT(*p99, 0.040);
  EXPECT_LE(*p99, 0.050 + 1e-12);
}

TEST_F(ScraperTest, StopHaltsScraping) {
  Scraper scraper(sim, tsdb);
  scraper.add_target("t", registry);
  scraper.start(5.0);
  sim.run_until(11.0);
  const auto count = scraper.scrape_count();
  scraper.stop();
  sim.run_until(100.0);
  EXPECT_EQ(scraper.scrape_count(), count);
}

TEST_F(ScraperTest, PicksUpSeriesCreatedMidRun) {
  // The snapshot plan is cached per target and rebuilt only on registry
  // version bumps — a series created between scrapes must still appear.
  Scraper scraper(sim, tsdb);
  scraper.add_target("t", registry);
  registry.counter("a", {}).add(1.0);
  scraper.start(5.0);
  sim.run_until(6.0);  // scrape at t=5 plans only "a"
  EXPECT_FALSE(tsdb.last(tsdb.series("b{}"), 100.0, sim.now()).has_value());

  registry.counter("b", {}).add(3.0);
  sim.run_until(11.0);  // scrape at t=10 must rebuild the plan
  const auto b = tsdb.last(tsdb.series("b{}"), 100.0, sim.now());
  ASSERT_TRUE(b.has_value());
  EXPECT_DOUBLE_EQ(*b, 3.0);
  const auto a = tsdb.last(tsdb.series("a{}"), 100.0, sim.now());
  ASSERT_TRUE(a.has_value());
  EXPECT_DOUBLE_EQ(*a, 1.0);
}

}  // namespace
}  // namespace l3::metrics
