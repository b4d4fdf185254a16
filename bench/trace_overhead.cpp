// Tracing hot-path overhead (google-benchmark): drives a small multi-cluster
// mesh through full request lifecycles under three tracer configurations —
//
//   no_tracer   no tracer attached (the seed behaviour);
//   off         a tracer attached with SamplingMode::kOff — the ISSUE's
//               requirement: the hot path must pay only a single branch,
//               no allocations, no virtual dispatch;
//   sampled     ratio 1.0 — every request fully traced (the upper bound).
//
// no_tracer and off must be indistinguishable; sampled shows the cost of
// the spans themselves.
//
// The same split exists for the l3::obs flight recorder: no_recorder vs
// recorder-bound request benchmarks, plus `--obs-gate` — a
// non-google-benchmark mode used by scripts/check.sh that runs a full
// scenario with and without the recorder, asserts the median recorded run
// stays within 5% of the median plain one, and asserts both runs produce
// identical simulation results (profiling must not perturb the DES).
#include "l3/common/stats.h"
#include "l3/mesh/mesh.h"
#include "l3/obs/recorder.h"
#include "l3/sim/simulator.h"
#include "l3/trace/tracer.h"
#include "l3/workload/runner.h"
#include "l3/workload/scenarios.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <vector>

namespace {

using namespace l3;

enum class TracerSetup { kNone, kOff, kSampled };

/// One benchmark iteration = one request driven to completion through
/// proxy + WAN + server, on a mesh with timeouts disabled so the event
/// queue drains fully between requests.
void run_requests(benchmark::State& state, TracerSetup setup) {
  sim::Simulator sim;
  SplitRng rng(1);
  mesh::MeshConfig config;
  config.request_timeout = 0.0;        // no pending timeout events
  config.health_probe_interval = 0.0;  // no periodic events
  mesh::Mesh mesh(sim, rng.split("mesh"), config);
  const auto a = mesh.add_cluster("a");
  const auto b = mesh.add_cluster("b");
  mesh.wan().set_symmetric(a, b, {.base = 0.005, .jitter_frac = 0.1});
  mesh::DeploymentConfig dc;
  mesh.deploy("api", a, dc,
              std::make_unique<mesh::FixedLatencyBehavior>(0.020, 0.080));
  mesh.deploy("api", b, dc,
              std::make_unique<mesh::FixedLatencyBehavior>(0.020, 0.080));
  mesh.proxy(a, "api");

  std::optional<trace::Tracer> tracer;
  if (setup != TracerSetup::kNone) {
    trace::TracerConfig tc;
    tc.sampling = setup == TracerSetup::kOff ? trace::SamplingMode::kOff
                                             : trace::SamplingMode::kRatio;
    tc.ratio = 1.0;
    tc.max_traces = 64;
    tracer.emplace(sim, tc);
    mesh.set_tracer(&*tracer);
  }

  for (auto _ : state) {
    trace::SpanContext root{};
    if (tracer && tracer->enabled()) {
      root = tracer->start_trace("api", "a", "api");
    }
    bool done = false;
    mesh.call(a, "api", 0, root, [&](const mesh::Response& response) {
      benchmark::DoNotOptimize(response.success);
      done = true;
    });
    while (sim.step()) {
    }  // drain: the response is delivered before the queue empties
    if (root.sampled()) tracer->end_trace(root);
    benchmark::DoNotOptimize(done);
  }
}

void BM_RequestNoTracer(benchmark::State& state) {
  run_requests(state, TracerSetup::kNone);
}
BENCHMARK(BM_RequestNoTracer);

void BM_RequestTracerOff(benchmark::State& state) {
  run_requests(state, TracerSetup::kOff);
}
BENCHMARK(BM_RequestTracerOff);

void BM_RequestTracerSampled(benchmark::State& state) {
  run_requests(state, TracerSetup::kSampled);
}
BENCHMARK(BM_RequestTracerSampled);

/// The isolated single-branch cost: start_trace on a kOff tracer.
void BM_StartTraceOff(benchmark::State& state) {
  sim::Simulator sim;
  trace::Tracer tracer(sim, trace::TracerConfig{});  // sampling = kOff
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracer.start_trace("api", "a", "api"));
  }
}
BENCHMARK(BM_StartTraceOff);

/// Request path with no recorder bound: every L3_OBS_* macro pays one
/// thread-local read + null check and nothing else.
void BM_RequestNoRecorder(benchmark::State& state) {
  run_requests(state, TracerSetup::kNone);
}
BENCHMARK(BM_RequestNoRecorder);

/// Request path with the flight recorder bound: counters, rings and sampled
/// scope timers all live. The ratio to BM_RequestNoRecorder is the recorder
/// overhead the --obs-gate mode asserts on at scenario scale.
void BM_RequestRecorder(benchmark::State& state) {
  obs::Recorder recorder;
  obs::ScopedRecorderBind bind(recorder);
  run_requests(state, TracerSetup::kNone);
}
BENCHMARK(BM_RequestRecorder);

/// Isolated cost of one counter increment on a bound shard.
void BM_ObsCountBound(benchmark::State& state) {
  obs::Recorder recorder;
  obs::ScopedRecorderBind bind(recorder);
  for (auto _ : state) {
    L3_OBS_COUNT(kMeshRequests, 1);
  }
}
BENCHMARK(BM_ObsCountBound);

/// Isolated cost of one counter increment with no recorder bound (the
/// common case in production runs: TLS read + branch, nothing else).
void BM_ObsCountUnbound(benchmark::State& state) {
  for (auto _ : state) {
    L3_OBS_COUNT(kMeshRequests, 1);
  }
}
BENCHMARK(BM_ObsCountUnbound);

// ---------------------------------------------------------------------------
// --obs-gate: the check.sh overhead gate. Times scenario-1 under the L3
// policy with the recorder off and on, kObsGateReps samples each. A sample
// sums kRunsPerSample full-length runs, about 1 s of wall on a 4-vCPU
// Xeon. The two sides alternate run by run, and the side that goes first
// swaps each time, so a drift in machine speed hits both alike. Fails if
// the median recorded sample is more than kObsGateMaxPct slower than the
// median plain one, if profiling changed the simulation results, or if too
// few subsystems were profiled.

constexpr double kObsGateMaxPct = 5.0;
constexpr int kObsGateReps = 5;
constexpr int kRunsPerSample = 4;

struct GateRun {
  std::uint64_t requests = 0;
  double p99 = 0.0;
  std::size_t subsystems = 0;
};

/// Runs `config` once and returns its wall seconds; the (deterministic)
/// results land in `out`.
double timed_run(const workload::ScenarioTrace& trace,
                 const workload::RunnerConfig& config, GateRun& out) {
  const auto start = std::chrono::steady_clock::now();
  const auto result =
      workload::run_scenario(trace, workload::PolicyKind::kL3, config);
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  out = {result.requests, result.summary.latency.p99,
         result.profile.active_subsystems()};
  return wall;
}

int run_obs_gate() {
  const auto trace = workload::make_scenario1(1);
  workload::RunnerConfig plain_config;  // full scenario length
  plain_config.seed = 42;
  workload::RunnerConfig recorded_config = plain_config;
  recorded_config.profile = true;

  GateRun plain;
  GateRun recorded;
  std::vector<double> plain_walls;
  std::vector<double> recorded_walls;
  for (int r = 0; r < kObsGateReps; ++r) {
    double plain_wall = 0.0;
    double recorded_wall = 0.0;
    for (int i = 0; i < kRunsPerSample; ++i) {
      const bool plain_first = (r + i) % 2 == 0;
      if (plain_first) plain_wall += timed_run(trace, plain_config, plain);
      recorded_wall += timed_run(trace, recorded_config, recorded);
      if (!plain_first) plain_wall += timed_run(trace, plain_config, plain);
    }
    plain_walls.push_back(plain_wall);
    recorded_walls.push_back(recorded_wall);
    std::printf("obs-gate: sample %d plain %.3f s, recorder %.3f s\n", r,
                plain_wall, recorded_wall);
  }
  const double plain_median = percentile(plain_walls, 0.5);
  const double recorded_median = percentile(recorded_walls, 0.5);
  const double overhead_pct =
      (recorded_median - plain_median) / plain_median * 100.0;
  std::printf("obs-gate: median of %d, plain %.3f s, recorder %.3f s, "
              "overhead %+.2f%% (limit %.1f%%), %zu subsystems profiled\n",
              kObsGateReps, plain_median, recorded_median, overhead_pct,
              kObsGateMaxPct, recorded.subsystems);

  if (plain.requests != recorded.requests || plain.p99 != recorded.p99) {
    std::printf("obs-gate FAIL: profiling perturbed the simulation "
                "(requests %llu vs %llu, p99 %.17g vs %.17g)\n",
                static_cast<unsigned long long>(plain.requests),
                static_cast<unsigned long long>(recorded.requests), plain.p99,
                recorded.p99);
    return 1;
  }
  if (recorded.subsystems < 6) {
    std::printf("obs-gate FAIL: only %zu subsystems profiled (expected >= 6 "
                "on the full scenario path)\n",
                recorded.subsystems);
    return 1;
  }
  if (overhead_pct > kObsGateMaxPct) {
    std::printf("obs-gate FAIL: recorder overhead %.2f%% exceeds %.1f%%\n",
                overhead_pct, kObsGateMaxPct);
    return 1;
  }
  std::printf("obs-gate ok\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--obs-gate") == 0) {
    return run_obs_gate();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
