// In-process wall-clock ratio gates. Each gate runs two configurations of
// the same work back to back in one process and compares them, so the bar
// does not depend on the machine:
//   * batch picks  — pick_backend_batch() on a 3-backend weighted proxy must
//     run >= 1.5x the scalar pick_backend() loop (under that, the batch path
//     lost its fused table loads);
//   * sharded mega — the 10k-backend mega scenario at 2000 req/s per region
//     must run at shards=4 >= kShardRatioFloor x its shards=1 req/s (a
//     barrier taken per event drops the ratio ~3-4x). Needs 4 hardware
//     threads; with fewer it is reported as not run.
// Each side is the best of 3 runs. Prints the ratios and exits 1 on a
// violation; writes no file. End-to-end and per-layer throughput live in
// perfbench (`python3 perfbench/run.py`, baseline in perfbench/baseline.json).
//
// Usage: sim_core
#include "l3/common/rng.h"
#include "l3/mesh/deployment.h"
#include "l3/mesh/mesh.h"
#include "l3/sim/simulator.h"
#include "l3/workload/mega.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

namespace {

constexpr int kReps = 3;
constexpr double kBatchRatioFloor = 1.5;
// Half the smallest shards=4 / shards=1 ratio over 14 runs on a 4-vCPU Xeon
// (1.94-2.91); a window of about one event per barrier gave 0.57-0.72.
constexpr double kShardRatioFloor = 0.97;

double seconds(const std::function<void()>& work) {
  const auto start = std::chrono::steady_clock::now();
  work();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Best-of-kReps wall of `a` and of `b`, the runs interleaved so a drift in
/// machine load hits both sides alike.
std::pair<double, double> best_seconds(const std::function<void()>& a,
                                       const std::function<void()>& b) {
  std::pair<double, double> best{1e300, 1e300};
  for (int r = 0; r < kReps; ++r) {
    best.first = std::min(best.first, seconds(a));
    best.second = std::min(best.second, seconds(b));
  }
  return best;
}

/// Walls of `picks` scalar pick_backend() calls and of the same number of
/// picks through pick_backend_batch() in blocks of 64 (the default dispatch
/// batch), on one weighted 3-backend proxy. Pure pick loop: no events.
std::pair<double, double> pick_seconds(int picks) {
  l3::sim::Simulator sim;
  l3::mesh::MeshConfig config;
  config.local_delay = 0.0;
  config.local_jitter_frac = 0.0;
  config.health_probe_interval = 0.0;
  l3::mesh::Mesh mesh(sim, l3::SplitRng(42), config);
  for (const char* name : {"c0", "c1", "c2"}) {
    mesh.deploy("svc", mesh.add_cluster(name), {},
                std::make_unique<l3::mesh::FixedLatencyBehavior>(0.010, 0.030));
  }
  l3::mesh::Proxy& proxy = mesh.proxy(0, "svc");
  mesh.find_split(0, "svc")
      ->set_weights(std::vector<std::uint64_t>{6000, 3000, 1000});
  volatile std::uint64_t sink = 0;  // keeps the picks observable
  return best_seconds(
      [&] {
        std::uint64_t sum = 0;
        for (int i = 0; i < picks; ++i) sum += proxy.pick_backend();
        sink = sum;
      },
      [&] {
        constexpr int kBlock = 64;
        std::uint32_t block[kBlock] = {};
        std::uint64_t sum = 0;
        for (int i = 0; i + kBlock <= picks; i += kBlock) {
          proxy.pick_backend_batch(block, kBlock);
          sum += block[0] + block[kBlock - 1];
        }
        sink = sum;
      });
}

/// Walls of a 2 s mega run (24 regions x 420 replicas, ~96k requests) at 1
/// and at 4 pinned shard threads, timed around the whole run_mega call. The
/// load keeps event work well above the ~25 ms of set-up.
std::pair<double, double> mega_seconds() {
  const auto run = [](std::size_t shards) {
    l3::workload::MegaConfig config;
    config.duration = 2.0;
    config.rps_per_region = 2000.0;
    config.pin_threads = true;
    config.shards = shards;
    l3::workload::run_mega(config);
  };
  return best_seconds([&] { run(1); }, [&] { run(4); });
}

bool gate(const char* name, double ratio, double floor) {
  const bool ok = ratio >= floor;
  std::printf("%-13s: %.3gx (gate: >= %.3gx) %s\n", name, ratio, floor,
              ok ? "ok" : "FAIL");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 1) {
    std::fprintf(stderr, "usage: %s\n", argv[0]);
    return 2;
  }
  const auto [scalar, batched] = pick_seconds(2000000);
  std::printf("weighted picks: scalar %.4g s, batched %.4g s\n", scalar,
              batched);
  const bool batch_ok = gate("batch picks", scalar / batched, kBatchRatioFloor);
  const unsigned threads = std::thread::hardware_concurrency();
  if (threads < 4) {
    std::printf("sharded mega : not run (%u hardware threads, needs 4)\n",
                threads);
    return batch_ok ? 0 : 1;
  }
  const auto [serial, sharded] = mega_seconds();
  std::printf("mega wall     : shards=1 %.4g s, shards=4 %.4g s\n", serial,
              sharded);
  const bool shard_ok = gate("sharded mega", serial / sharded, kShardRatioFloor);
  return batch_ok && shard_ok ? 0 : 1;
}
