// Property tests for the TSDB's incremental window folds. Every query the
// WindowCursor answers by advancing a cached span must be bit-identical to
// the binary-search reseed path it replaces — across randomized schedules
// of scrape-like appends, retention compactions, >10 s scrape gaps and
// non-monotone query times. The oracle is a second TimeSeriesDb fed the
// identical sample stream whose cursor is deliberately clobbered (queried
// with a different window) before every real query, forcing it down the
// binary-search path each time.
#include "l3/metrics/tsdb.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

namespace l3::metrics {
namespace {

/// Deterministic 64-bit LCG (MMIX constants) so failures reproduce.
class Lcg {
 public:
  explicit Lcg(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 33;
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double uniform() {
    return static_cast<double>(next() % 1000000) / 1000000.0;
  }

 private:
  std::uint64_t state_;
};

/// Exact (bitwise-value) equality of two optional query results.
void ExpectSame(const std::optional<double>& cursor_path,
                const std::optional<double>& oracle_path, const char* what,
                double now) {
  ASSERT_EQ(cursor_path.has_value(), oracle_path.has_value())
      << what << " presence diverged at now=" << now;
  if (cursor_path.has_value()) {
    EXPECT_EQ(*cursor_path, *oracle_path)
        << what << " value diverged at now=" << now;
  }
}

TEST(WindowCursorTest, ScalarQueriesMatchBinarySearchOracle) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Lcg rng(seed);
    TimeSeriesDb live(30.0);    // queried monotonically: cursor advances
    TimeSeriesDb oracle(30.0);  // cursor clobbered: always binary search
    const SeriesId lc = live.series("c");
    const SeriesId oc = oracle.series("c");
    const SimDuration window = 10.0;
    double t = 0.0;
    double value = 0.0;
    double last_now = 0.0;
    int queries = 0;
    for (int step = 0; step < 500; ++step) {
      switch (rng.below(8)) {
        case 0:
        case 1:
        case 2:
        case 3: {  // scrape-like append (counter pattern: monotone value)
          t += 0.5 + 5.0 * rng.uniform();
          value += 10.0 * rng.uniform();
          live.append(lc, t, value);
          oracle.append(oc, t, value);
          break;
        }
        case 4: {  // scrape gap longer than the 10 s staleness window
          t += 10.0 + 10.0 * rng.uniform();
          break;
        }
        case 5: {  // retention sweep on both stores
          live.compact(t);
          oracle.compact(t);
          break;
        }
        default: {  // query batch
          double now = t + rng.uniform();
          if (rng.below(8) == 0) {
            // Non-monotone now: both sides must take the reseed path and
            // still agree.
            now = std::max(0.0, last_now - 2.0);
          }
          last_now = std::max(last_now, now);
          // Clobber the oracle's cursor so its next same-window query
          // rebuilds from binary search.
          (void)oracle.last(oc, 2.0 * window, now);
          ExpectSame(live.rate(lc, window, now), oracle.rate(oc, window, now),
                     "rate", now);
          (void)oracle.last(oc, 2.0 * window, now);
          ExpectSame(live.increase(lc, window, now),
                     oracle.increase(oc, window, now), "increase", now);
          (void)oracle.last(oc, 2.0 * window, now);
          ExpectSame(live.avg(lc, window, now), oracle.avg(oc, window, now),
                     "avg", now);
          (void)oracle.last(oc, 2.0 * window, now);
          ExpectSame(live.last(lc, window, now), oracle.last(oc, window, now),
                     "last", now);
          ++queries;
        }
      }
    }
    EXPECT_GT(queries, 50);
    // The live store must actually have exercised the cursor fast path.
    EXPECT_GT(live.cursor_hits(), 0u);
  }
}

TEST(WindowCursorTest, QuantileMatchesBinarySearchOracle) {
  const std::vector<double> bounds = {0.1, 0.5, 1.0};
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    Lcg rng(seed);
    TimeSeriesDb live(30.0);
    TimeSeriesDb oracle(30.0);
    const HistogramId lh = live.histogram_series("h");
    const HistogramId oh = oracle.histogram_series("h");
    live.set_histogram_bounds(lh, bounds);
    oracle.set_histogram_bounds(oh, bounds);
    const SimDuration window = 10.0;
    double t = 0.0;
    std::vector<double> cum(bounds.size() + 1, 0.0);
    double last_now = 0.0;
    for (int step = 0; step < 400; ++step) {
      switch (rng.below(8)) {
        case 0:
        case 1:
        case 2:
        case 3: {  // cumulative bucket row grows monotonically
          t += 0.5 + 5.0 * rng.uniform();
          for (std::size_t b = 0; b < cum.size(); ++b) {
            cum[b] += static_cast<double>(rng.below(5));
          }
          for (std::size_t b = 1; b < cum.size(); ++b) {
            cum[b] = std::max(cum[b], cum[b - 1]);
          }
          live.append_histogram(lh, t, cum);
          oracle.append_histogram(oh, t, cum);
          break;
        }
        case 4: {
          t += 10.0 + 10.0 * rng.uniform();
          break;
        }
        case 5: {
          live.compact(t);
          oracle.compact(t);
          break;
        }
        default: {
          double now = t + rng.uniform();
          if (rng.below(8) == 0) now = std::max(0.0, last_now - 2.0);
          last_now = std::max(last_now, now);
          for (const double q : {0.5, 0.99}) {
            (void)oracle.quantile(oh, q, 2.0 * window, now);
            ExpectSame(live.quantile(lh, q, window, now),
                       oracle.quantile(oh, q, window, now), "quantile", now);
          }
        }
      }
    }
    EXPECT_GT(live.cursor_hits(), 0u);
  }
}

TEST(WindowCursorTest, StalenessBoundaryIsInclusive) {
  // A sample at exactly now - window is inside the window — on both the
  // reseed path (first query) and the cursor-advance path (second query).
  TimeSeriesDb db;
  const SeriesId id = db.series("s");
  db.append(id, 5.0, 42.0);
  ASSERT_TRUE(db.last(id, 10.0, 14.0).has_value());  // reseed
  const auto boundary = db.last(id, 10.0, 15.0);     // cursor advance
  ASSERT_TRUE(boundary.has_value());
  EXPECT_EQ(*boundary, 42.0);
  // One step past the boundary the sample has aged out.
  EXPECT_FALSE(db.last(id, 10.0, 15.0 + 1e-9).has_value());
}

TEST(WindowCursorTest, HitAndRebuildCounters) {
  TimeSeriesDb db;
  const SeriesId id = db.series("s");
  for (int i = 0; i < 5; ++i) db.append(id, 5.0 * (i + 1), double(i));

  EXPECT_EQ(db.cursor_hits(), 0u);
  EXPECT_EQ(db.cursor_rebuilds(), 0u);

  (void)db.last(id, 10.0, 26.0);  // first query: reseed
  EXPECT_EQ(db.cursor_rebuilds(), 1u);
  EXPECT_EQ(db.cursor_hits(), 0u);

  (void)db.last(id, 10.0, 26.0);  // same now: hit
  (void)db.last(id, 10.0, 31.0);  // monotone advance: hit
  EXPECT_EQ(db.cursor_hits(), 2u);
  EXPECT_EQ(db.cursor_rebuilds(), 1u);

  (void)db.last(id, 20.0, 31.0);  // window change: rebuild
  EXPECT_EQ(db.cursor_rebuilds(), 2u);

  (void)db.last(id, 20.0, 28.0);  // now went backwards: rebuild
  EXPECT_EQ(db.cursor_rebuilds(), 3u);

  (void)db.last(id, 20.0, 28.0);  // steady again: hit
  EXPECT_EQ(db.cursor_hits(), 3u);
}

TEST(WindowCursorTest, CursorSurvivesRetentionTrim) {
  // Cursors hold absolute sequence numbers, so dropping old samples (which
  // shifts ring indices) must not re-point an established cursor.
  TimeSeriesDb db(20.0);
  const SeriesId id = db.series("s");
  TimeSeriesDb oracle(20.0);
  const SeriesId oid = oracle.series("s");
  for (int i = 1; i <= 40; ++i) {
    const double t = 2.5 * i;
    db.append(id, t, double(i));
    oracle.append(oid, t, double(i));
    const auto got = db.avg(id, 10.0, t);  // keeps the cursor warm
    (void)oracle.last(oid, 5.0, t);        // clobber
    const auto want = oracle.avg(oid, 10.0, t);
    ASSERT_EQ(got.has_value(), want.has_value()) << "t=" << t;
    if (got) {
      EXPECT_EQ(*got, *want) << "t=" << t;
    }
    if (i % 7 == 0) {
      db.compact(t);
      oracle.compact(t);
    }
  }
  EXPECT_GT(db.cursor_hits(), 0u);
}

}  // namespace
}  // namespace l3::metrics
