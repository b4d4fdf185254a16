// Batched dispatch equivalence tests.
//
// The dispatch-batch contract is that batching is a pure caller-overhead
// optimization: EventQueue::dispatch_batch pops events in exactly the order
// the per-event loop would, and a full scenario run produces a
// byte-identical request trace at every batch size. These tests pin that at
// both layers — the queue primitive directly, and end-to-end trace hashes
// across scenarios 1-5 plus a chaos plan at batch sizes 1 (the unbatched
// baseline), 7 (misaligned with everything) and 64 (the default).
#include "l3/sim/event.h"
#include "l3/workload/runner.h"
#include "l3/workload/scenarios.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

namespace l3 {
namespace {

// --- EventQueue::dispatch_batch against the per-event loop ---------------

// The per-event loop is a batch of one (what Simulator::step() pops).
TEST(DispatchBatch, PopsInSameOrderAsDispatchMin) {
  sim::EventQueue batched;
  sim::EventQueue serial;
  std::vector<int> batched_order;
  std::vector<int> serial_order;
  std::uint64_t seq = 0;
  // Deliberate tie pile-up at t=2.0: FIFO-by-seq must hold in both modes.
  const double times[] = {5.0, 2.0, 2.0, 9.0, 2.0, 1.0, 7.0, 2.0};
  for (double t : times) {
    const int id = static_cast<int>(seq);
    batched.push(t, seq, [&batched_order, id] { batched_order.push_back(id); });
    serial.push(t, seq, [&serial_order, id] { serial_order.push_back(id); });
    ++seq;
  }
  const auto drain = [](sim::EventQueue& queue, std::size_t max_n) {
    while (!queue.empty()) {
      queue.dispatch_batch(std::numeric_limits<SimTime>::infinity(), max_n,
                           [](SimTime, sim::EventFn& fn) {
                             fn();
                             return true;
                           });
    }
  };
  drain(serial, 1);
  drain(batched, 3);
  EXPECT_EQ(batched_order, serial_order);
}

TEST(DispatchBatch, ReentrantPushAtCurrentTimeRunsWithinBatch) {
  sim::EventQueue queue;
  std::vector<int> order;
  std::uint64_t seq = 0;
  queue.push(1.0, seq++, [&] {
    order.push_back(0);
    // Same-timestamp push from inside a batch: must be popped by this very
    // batch (it is the earliest pending event once the current one ends).
    queue.push(1.0, 99, [&order] { order.push_back(99); });
  });
  queue.push(2.0, seq++, [&] { order.push_back(1); });
  const std::size_t n = queue.dispatch_batch(
      10.0, 16, [](SimTime, sim::EventFn& fn) {
        fn();
        return true;
      });
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(order, (std::vector<int>{0, 99, 1}));
}

TEST(DispatchBatch, RespectsEndTimeAndMaxN) {
  sim::EventQueue queue;
  int fired = 0;
  for (std::uint64_t s = 0; s < 10; ++s) {
    queue.push(static_cast<double>(s), s, [&fired] { ++fired; });
  }
  auto run_all = [](SimTime, sim::EventFn& fn) {
    fn();
    return true;
  };
  // max_n caps the batch even with due events remaining.
  EXPECT_EQ(queue.dispatch_batch(100.0, 4, run_all), 4u);
  EXPECT_EQ(fired, 4);
  // end stops before events scheduled past it (t=8, t=9 stay queued).
  EXPECT_EQ(queue.dispatch_batch(7.5, 100, run_all), 4u);
  EXPECT_EQ(fired, 8);
  EXPECT_EQ(queue.size(), 2u);
}

TEST(DispatchBatch, SinkReturningFalseEndsBatchAfterThatEvent) {
  sim::EventQueue queue;
  int fired = 0;
  for (std::uint64_t s = 0; s < 6; ++s) {
    queue.push(1.0, s, [&fired] { ++fired; });
  }
  const std::size_t n =
      queue.dispatch_batch(10.0, 100, [&fired](SimTime, sim::EventFn& fn) {
        fn();
        return fired < 3;  // stop request, as run_until's stop() path does
      });
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(queue.size(), 3u);
}

// --- End-to-end: batch size never changes the trace ----------------------

namespace w = workload;

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t mix_u64(std::uint64_t h, std::uint64_t v) {
  return fnv1a(h, &v, sizeof(v));
}

std::uint64_t mix_f64(std::uint64_t h, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return mix_u64(h, bits);
}

/// Same digest as sim_determinism_test: any reordered event, shifted
/// timestamp or changed routing decision perturbs it.
std::uint64_t trace_hash(const w::RunResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  h = mix_u64(h, r.requests);
  h = mix_u64(h, r.weight_updates);
  h = mix_f64(h, r.mean_attempts);
  h = mix_u64(h, r.summary.count);
  h = mix_f64(h, r.summary.success_rate);
  h = mix_f64(h, r.summary.latency.mean);
  h = mix_f64(h, r.summary.latency.p50);
  h = mix_f64(h, r.summary.latency.p99);
  h = mix_f64(h, r.summary.latency.max);
  h = mix_f64(h, r.summary.success_latency.mean);
  h = mix_f64(h, r.summary.success_latency.p99);
  for (const double share : r.traffic_share) h = mix_f64(h, share);
  for (const auto& bucket : r.timeline) {
    h = mix_f64(h, bucket.start);
    h = mix_u64(h, bucket.count);
    h = mix_f64(h, bucket.p50);
    h = mix_f64(h, bucket.p99);
    h = mix_f64(h, bucket.success_rate);
    h = mix_f64(h, bucket.rps);
  }
  return h;
}

w::RunnerConfig batch_config(std::size_t dispatch_batch) {
  w::RunnerConfig config;
  config.seed = 42;
  config.warmup = 10.0;
  config.duration = 20.0;
  config.dispatch_batch = dispatch_batch;
  return config;
}

/// Runs `trace` at batch sizes 1, 7 and 64 and requires identical hashes.
void expect_batch_invariant(const w::ScenarioTrace& trace,
                            w::PolicyKind policy,
                            w::RunnerConfig (*make)(std::size_t)) {
  const auto unbatched = w::run_scenario(trace, policy, make(1));
  const std::uint64_t expected = trace_hash(unbatched);
  ASSERT_GT(unbatched.requests, 100u) << "scenario produced no real load";
  for (std::size_t batch : {7u, 64u}) {
    const auto batched = w::run_scenario(trace, policy, make(batch));
    EXPECT_EQ(trace_hash(batched), expected) << "batch=" << batch;
  }
}

TEST(BatchedTraceIdentity, Scenario1) {
  expect_batch_invariant(w::make_scenario1(1), w::PolicyKind::kL3,
                         &batch_config);
}

TEST(BatchedTraceIdentity, Scenario2) {
  expect_batch_invariant(w::make_scenario2(2), w::PolicyKind::kL3,
                         &batch_config);
}

TEST(BatchedTraceIdentity, Scenario3) {
  expect_batch_invariant(w::make_scenario3(3), w::PolicyKind::kL3,
                         &batch_config);
}

TEST(BatchedTraceIdentity, Scenario4) {
  expect_batch_invariant(w::make_scenario4(4), w::PolicyKind::kL3,
                         &batch_config);
}

TEST(BatchedTraceIdentity, Scenario5) {
  expect_batch_invariant(w::make_scenario5(5), w::PolicyKind::kL3,
                         &batch_config);
}

TEST(BatchedTraceIdentity, PoissonArrivalsWithRetries) {
  // Poisson + kViaSplit: the arrival pregeneration path with real gap draws
  // on the client stream, plus the retry path.
  auto make = [](std::size_t batch) {
    auto config = batch_config(batch);
    config.poisson_arrivals = true;
    config.client_retries = 1;
    return config;
  };
  const auto trace = w::make_failure1(6);
  const auto unbatched = w::run_scenario(trace, w::PolicyKind::kC3, make(1));
  const auto batched = w::run_scenario(trace, w::PolicyKind::kC3, make(64));
  EXPECT_EQ(trace_hash(batched), trace_hash(unbatched));
}

TEST(BatchedTraceIdentity, ChaosPlan) {
  // Every fault kind active: crash/restart, brownout, partition, scrape
  // outage, controller pause — batching must not shift a single transition.
  auto make = [](std::size_t batch) {
    auto config = batch_config(batch);
    config.health_probe_interval = 0.0;
    config.faults.crash("api", 1, 5.0, 10.0)
        .brownout(0, 2, 8.0, 10.0, 0.050)
        .partition(0, 1, 18.0, 6.0)
        .scrape_outage(22.0, 5.0)
        .controller_pause(25.0, 4.0);
    return config;
  };
  const auto trace = w::make_scenario1(1);
  const auto unbatched = w::run_scenario(trace, w::PolicyKind::kL3, make(1));
  const auto batched = w::run_scenario(trace, w::PolicyKind::kL3, make(64));
  EXPECT_EQ(trace_hash(batched), trace_hash(unbatched));
}

}  // namespace
}  // namespace l3
