// Tests for the open-loop client, timeline aggregation and summaries.
#include "l3/workload/client.h"

#include "l3/common/assert.h"
#include "l3/mesh/mesh.h"
#include "l3/workload/trace_behavior.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace l3::workload {
namespace {

class ClientTest : public ::testing::Test {
 protected:
  ClientTest() : rng(31), mesh(sim, rng) {
    c1 = mesh.add_cluster("c1");
    mesh.deploy("svc", c1, {},
                std::make_unique<mesh::FixedLatencyBehavior>(0.010, 0.030));
  }

  sim::Simulator sim;
  SplitRng rng;
  mesh::Mesh mesh;
  mesh::ClusterId c1 = 0;
};

TEST_F(ClientTest, ConstantRateSendsExpectedCount) {
  OpenLoopClient client(mesh, c1, "svc", [](SimTime) { return 100.0; },
                        rng.split("c"));
  client.start(0.0, 10.0);
  sim.run_until(15.0);
  EXPECT_NEAR(static_cast<double>(client.sent()), 1000.0, 2.0);
  EXPECT_EQ(client.completed(), client.sent());
}

TEST_F(ClientTest, OpenLoopDoesNotWaitForResponses) {
  // Slow service (1 s) at 100 RPS: an open-loop client keeps firing.
  mesh::Mesh slow_mesh(sim, SplitRng(1));
  const auto a = slow_mesh.add_cluster("a");
  slow_mesh.deploy(
      "svc", a, {.replicas = 1, .concurrency = 4096, .queue_capacity = 1},
      std::make_unique<mesh::FixedLatencyBehavior>(1.0, 1.001));
  OpenLoopClient client(slow_mesh, a, "svc", [](SimTime) { return 100.0; },
                        SplitRng(2));
  client.start(0.0, 2.0);
  sim.run_until(1.5);
  EXPECT_GT(client.sent(), 100u);  // far more than completed
}

TEST_F(ClientTest, RateFunctionFollowedOverTime) {
  OpenLoopClient client(
      mesh, c1, "svc",
      [](SimTime t) { return t < 5.0 ? 50.0 : 200.0; }, rng.split("c"));
  client.start(0.0, 10.0);
  sim.run_until(15.0);
  const auto timeline = aggregate_timeline(client.records(), 0.0, 10.0, 5.0);
  ASSERT_EQ(timeline.size(), 2u);
  EXPECT_NEAR(timeline[0].rps, 50.0, 5.0);
  EXPECT_NEAR(timeline[1].rps, 200.0, 10.0);
}

TEST_F(ClientTest, PoissonArrivalsApproximateRate) {
  OpenLoopClient::Config config;
  config.poisson = true;
  OpenLoopClient client(mesh, c1, "svc", [](SimTime) { return 100.0; },
                        rng.split("p"), config);
  client.start(0.0, 20.0);
  sim.run_until(25.0);
  EXPECT_NEAR(static_cast<double>(client.sent()), 2000.0, 150.0);
}

TEST_F(ClientTest, RecordsAfterDropsWarmup) {
  OpenLoopClient client(mesh, c1, "svc", [](SimTime) { return 100.0; },
                        rng.split("c"));
  client.start(0.0, 10.0);
  sim.run_until(15.0);
  const auto post = client.records_after(5.0);
  EXPECT_NEAR(static_cast<double>(post.size()), 500.0, 5.0);
  for (const auto& r : post) EXPECT_GE(r.sent, 5.0);
}

TEST_F(ClientTest, LocalDirectModeBypassesSplit) {
  OpenLoopClient::Config config;
  config.mode = CallMode::kLocalDirect;
  OpenLoopClient client(mesh, c1, "svc", [](SimTime) { return 50.0; },
                        rng.split("d"), config);
  client.start(0.0, 4.0);
  sim.run_until(10.0);
  EXPECT_GT(client.completed(), 150u);
  EXPECT_EQ(mesh.find_split(c1, "svc"), nullptr);  // no split was created
  for (const auto& r : client.records()) {
    EXPECT_EQ(r.backend_cluster, c1);
    EXPECT_TRUE(r.success);
    EXPECT_GT(r.latency, 0.0);
  }
}

TEST_F(ClientTest, RetriesTurnFailuresIntoSuccesses) {
  mesh::Mesh failing_mesh(sim, SplitRng(8));
  const auto a = failing_mesh.add_cluster("a");
  failing_mesh.deploy(
      "svc", a, {},
      std::make_unique<mesh::FixedLatencyBehavior>(0.010, 0.030, 0.5));
  OpenLoopClient::Config config;
  config.max_retries = 5;
  config.retry_backoff = 0.01;
  OpenLoopClient client(failing_mesh, a, "svc", [](SimTime) { return 50.0; },
                        SplitRng(9), config);
  client.start(0.0, 20.0);
  sim.run_until(40.0);
  const auto s = summarize_records(client.records());
  // 5 retries against a 50 % success rate: ~98.4 % end up successful.
  EXPECT_GT(s.success_rate, 0.95);
  // Retried requests accumulate latency: mean latency of all requests must
  // exceed a single attempt's ~10 ms median noticeably.
  int multi_attempt = 0;
  for (const auto& r : client.records()) {
    EXPECT_GE(r.attempts, 1);
    EXPECT_LE(r.attempts, 6);
    if (r.attempts > 1) ++multi_attempt;
  }
  EXPECT_GT(multi_attempt, 300);  // ~half of 1000 requests needed a retry
}

TEST_F(ClientTest, NoRetriesByDefault) {
  mesh::Mesh failing_mesh(sim, SplitRng(10));
  const auto a = failing_mesh.add_cluster("a");
  failing_mesh.deploy(
      "svc", a, {},
      std::make_unique<mesh::FixedLatencyBehavior>(0.010, 0.030, 0.5));
  OpenLoopClient client(failing_mesh, a, "svc", [](SimTime) { return 50.0; },
                        SplitRng(11));
  client.start(0.0, 20.0);
  sim.run_until(40.0);
  const auto s = summarize_records(client.records());
  EXPECT_NEAR(s.success_rate, 0.5, 0.06);
  for (const auto& r : client.records()) EXPECT_EQ(r.attempts, 1);
}

TEST(Timeline, AggregatesPerBucket) {
  std::vector<RequestRecord> records;
  records.push_back({0.5, 0.100, true, false, 0});
  records.push_back({0.6, 0.300, false, false, 1});
  records.push_back({1.5, 0.200, true, false, 0});
  const auto timeline = aggregate_timeline(records, 0.0, 2.0, 1.0);
  ASSERT_EQ(timeline.size(), 2u);
  EXPECT_EQ(timeline[0].count, 2u);
  EXPECT_DOUBLE_EQ(timeline[0].success_rate, 0.5);
  EXPECT_DOUBLE_EQ(timeline[0].rps, 2.0);
  EXPECT_EQ(timeline[1].count, 1u);
  EXPECT_DOUBLE_EQ(timeline[1].p50, 0.200);
}

TEST(Timeline, EmptyBucketsAreZeroed) {
  std::vector<RequestRecord> records;
  records.push_back({2.5, 0.1, true, false, 0});
  const auto timeline = aggregate_timeline(records, 0.0, 4.0, 1.0);
  ASSERT_EQ(timeline.size(), 4u);
  EXPECT_EQ(timeline[0].count, 0u);
  EXPECT_EQ(timeline[2].count, 1u);
}

TEST(Timeline, RecordsOutsideRangeIgnored) {
  std::vector<RequestRecord> records;
  records.push_back({-1.0, 0.1, true, false, 0});
  records.push_back({10.0, 0.1, true, false, 0});
  const auto timeline = aggregate_timeline(records, 0.0, 5.0, 1.0);
  for (const auto& b : timeline) EXPECT_EQ(b.count, 0u);
}

TEST(Timeline, RejectsEmptyRangeOrNonPositiveBucket) {
  const std::vector<RequestRecord> records{{0.5, 0.1, true, false, 0}};
  EXPECT_THROW(aggregate_timeline(records, 0.0, 1.0, 0.0), ContractViolation);
  EXPECT_THROW(aggregate_timeline(records, 0.0, 1.0, -1.0), ContractViolation);
  EXPECT_THROW(aggregate_timeline(records, 1.0, 1.0, 1.0), ContractViolation);
  EXPECT_THROW(aggregate_timeline(records, 2.0, 1.0, 1.0), ContractViolation);
  EXPECT_THROW(summarize_run(records, 0.0, 1.0, 0.0), ContractViolation);
}

TEST(Summaries, SeparateSuccessLatency) {
  std::vector<RequestRecord> records;
  records.push_back({0.0, 0.100, true, false, 0});
  records.push_back({0.1, 0.900, false, false, 0});
  const auto s = summarize_records(records);
  EXPECT_EQ(s.count, 2u);
  EXPECT_DOUBLE_EQ(s.success_rate, 0.5);
  EXPECT_DOUBLE_EQ(s.success_latency.max, 0.100);
  EXPECT_DOUBLE_EQ(s.latency.max, 0.900);
}

TEST(Summaries, EmptyRecords) {
  const auto s = summarize_records(std::vector<RequestRecord>{});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.success_rate, 1.0);
}


// Summary equivalence: summarize_run, summarize_records and
// aggregate_timeline must equal, bit for bit, the plain reference — copy the
// records, std::sort each sample, read percentile_sorted, sum means in
// record order — on seeded random record sets.

LatencySummary reference_latency(std::vector<double> values) {
  LatencySummary s;
  s.count = values.size();
  if (values.empty()) return s;
  double sum = 0.0;
  for (const double v : values) sum += v;
  s.mean = sum / static_cast<double>(values.size());
  std::sort(values.begin(), values.end());
  s.p50 = percentile_sorted(values, 0.50);
  s.p90 = percentile_sorted(values, 0.90);
  s.p95 = percentile_sorted(values, 0.95);
  s.p99 = percentile_sorted(values, 0.99);
  s.p999 = percentile_sorted(values, 0.999);
  s.max = values.back();
  return s;
}

ClientSummary reference_summary(const std::vector<RequestRecord>& records) {
  ClientSummary s;
  s.count = records.size();
  if (records.empty()) return s;
  std::vector<double> all;
  std::vector<double> ok;
  for (const auto& r : records) {
    all.push_back(r.latency);
    if (r.success) ok.push_back(r.latency);
  }
  s.success_rate =
      static_cast<double>(ok.size()) / static_cast<double>(records.size());
  s.latency = reference_latency(std::move(all));
  s.success_latency = reference_latency(std::move(ok));
  return s;
}

std::vector<TimelineBucket> reference_timeline(
    const std::vector<RequestRecord>& records, SimTime t0, SimTime t1,
    SimDuration bucket) {
  const auto n = static_cast<std::size_t>(std::ceil((t1 - t0) / bucket));
  std::vector<std::vector<double>> latencies(n);
  std::vector<std::size_t> successes(n, 0);
  for (const auto& r : records) {
    if (r.sent < t0 || r.sent >= t1) continue;
    const auto i = static_cast<std::size_t>((r.sent - t0) / bucket);
    if (i >= n) continue;
    latencies[i].push_back(r.latency);
    if (r.success) ++successes[i];
  }
  std::vector<TimelineBucket> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double>& run = latencies[i];
    out[i].start = t0 + static_cast<double>(i) * bucket;
    out[i].count = run.size();
    out[i].rps = static_cast<double>(run.size()) / bucket;
    if (run.empty()) continue;
    std::sort(run.begin(), run.end());
    out[i].p50 = percentile_sorted(run, 0.50);
    out[i].p99 = percentile_sorted(run, 0.99);
    out[i].success_rate =
        static_cast<double>(successes[i]) / static_cast<double>(run.size());
  }
  return out;
}

/// Exact equality, down to the sign of zero.
void expect_same(double got, double want, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << what << ": " << got << " vs " << want;
}

void expect_same(const LatencySummary& got, const LatencySummary& want) {
  EXPECT_EQ(got.count, want.count);
  expect_same(got.mean, want.mean, "mean");
  expect_same(got.p50, want.p50, "p50");
  expect_same(got.p90, want.p90, "p90");
  expect_same(got.p95, want.p95, "p95");
  expect_same(got.p99, want.p99, "p99");
  expect_same(got.p999, want.p999, "p999");
  expect_same(got.max, want.max, "max");
}

void expect_same(const ClientSummary& got, const ClientSummary& want) {
  EXPECT_EQ(got.count, want.count);
  expect_same(got.success_rate, want.success_rate, "success_rate");
  expect_same(got.latency, want.latency);
  expect_same(got.success_latency, want.success_latency);
}

void expect_same(const std::vector<TimelineBucket>& got,
                 const std::vector<TimelineBucket>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(got[i].count, want[i].count);
    expect_same(got[i].start, want[i].start, "start");
    expect_same(got[i].p50, want[i].p50, "p50");
    expect_same(got[i].p99, want[i].p99, "p99");
    expect_same(got[i].success_rate, want[i].success_rate, "success_rate");
    expect_same(got[i].rps, want[i].rps, "rps");
  }
}

/// `n` records sent over [0, horizon), in completion order (sent + latency,
/// as the client appends them), so send order is shuffled. Failures are
/// split between depth-cap rejections (+0.0 latency), timeouts (all at the
/// same deadline) and slow errors; a third of the latencies sit on a 1 ms
/// grid so ties are common.
std::vector<RequestRecord> random_records(std::uint64_t seed, std::size_t n,
                                          double fail_frac, SimTime horizon) {
  SplitRng rng(seed);
  std::vector<RequestRecord> out;
  for (std::size_t i = 0; i < n; ++i) {
    RequestRecord r;
    r.sent = rng.uniform(0.0, horizon);
    r.backend_cluster = static_cast<mesh::ClusterId>(rng.uniform_int(0, 2));
    double latency = rng.lognormal(std::log(0.05), 0.8);
    if (rng.bernoulli(0.3)) latency = std::round(latency * 1000.0) / 1000.0;
    if (rng.bernoulli(fail_frac)) {
      r.success = false;
      switch (rng.uniform_int(0, 2)) {
        case 0:
          latency = 0.0;
          break;
        case 1:
          r.timed_out = true;
          latency = 0.25;
          break;
        default:
          break;
      }
    }
    r.latency = latency;
    out.push_back(r);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const RequestRecord& a, const RequestRecord& b) {
                     return a.sent + a.latency < b.sent + b.latency;
                   });
  return out;
}

TEST(SummaryEquivalence, MatchesCopySortReference) {
  struct Shape {
    std::size_t n;
    SimTime horizon;
    SimDuration bucket;
  };
  // Sizes straddle the 2048-sample radix threshold; the small shapes and
  // the 0.25 s buckets leave many buckets empty or holding one or two
  // records.
  const std::array<Shape, 10> shapes = {{{0, 10.0, 1.0},
                                         {1, 10.0, 1.0},
                                         {2, 10.0, 1.0},
                                         {40, 20.0, 1.0},
                                         {300, 20.0, 0.25},
                                         {2047, 30.0, 1.0},
                                         {2048, 30.0, 1.0},
                                         {2600, 30.0, 1.0},
                                         {6000, 50.0, 0.5},
                                         {60000, 60.0, 1.0}}};
  std::array<std::size_t, 3> small_buckets{};  // buckets of 0, 1, 2 records
  for (const Shape& shape : shapes) {
    for (const double fail_frac : {0.0, 0.017, 0.3, 1.0}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE(testing::Message() << "n=" << shape.n << " fail="
                                        << fail_frac << " seed=" << seed);
        const auto records =
            random_records(seed, shape.n, fail_frac, shape.horizon);
        // Warm-up before t0 and a drain tail past t1, as the runners have.
        const SimTime t0 = 0.2 * shape.horizon;
        const SimTime t1 = 0.9 * shape.horizon;
        std::vector<RequestRecord> measured;
        for (const auto& r : records) {
          if (r.sent >= t0) measured.push_back(r);
        }
        const ClientSummary want = reference_summary(measured);
        const auto want_timeline =
            reference_timeline(measured, t0, t1, shape.bucket);
        for (const auto& b : want_timeline) {
          if (b.count < small_buckets.size()) ++small_buckets[b.count];
        }

        const RunSummary run = summarize_run(records, t0, t1, shape.bucket);
        expect_same(run.summary, want);
        expect_same(run.timeline, want_timeline);
        expect_same(summarize_records(measured), want);
        expect_same(summarize_records(records), reference_summary(records));
        expect_same(aggregate_timeline(records, t0, t1, shape.bucket),
                    want_timeline);
      }
    }
  }
  for (std::size_t size = 0; size < small_buckets.size(); ++size) {
    EXPECT_GT(small_buckets[size], 0u) << "no bucket held " << size;
  }
}

}  // namespace
}  // namespace l3::workload
