// In-process wall-clock ratio gate. It runs two configurations of the same
// work back to back in one process and compares them, so the bar does not
// depend on the machine: the 10k-backend mega scenario at 2000 req/s per
// region must run at shards=4 >= kShardRatioFloor x its shards=1 req/s (a
// barrier taken per event drops the ratio ~3-4x). Needs 4 hardware threads;
// with fewer it is reported as not run. Each side is the best of 3 runs,
// interleaved. Prints the ratio and exits 1 on a violation; writes no file.
// End-to-end and per-layer throughput live in perfbench
// (`python3 perfbench/run.py`, baseline in perfbench/baseline.json).
//
// Usage: sim_core
#include "l3/workload/mega.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>
#include <utility>

namespace {

constexpr int kReps = 3;
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

}  // namespace

int main(int argc, char** argv) {
  if (argc != 1) {
    std::fprintf(stderr, "usage: %s\n", argv[0]);
    return 2;
  }
  const unsigned threads = std::thread::hardware_concurrency();
  if (threads < 4) {
    std::printf("sharded mega : not run (%u hardware threads, needs 4)\n",
                threads);
    return 0;
  }
  const auto [serial, sharded] = mega_seconds();
  std::printf("mega wall     : shards=1 %.4g s, shards=4 %.4g s\n", serial,
              sharded);
  const double ratio = serial / sharded;
  const bool ok = ratio >= kShardRatioFloor;
  std::printf("sharded mega : %.3gx (gate: >= %.3gx) %s\n", ratio,
              kShardRatioFloor, ok ? "ok" : "FAIL");
  return ok ? 0 : 1;
}
