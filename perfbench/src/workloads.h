// The benchmark's three workloads, their seed-derived inputs, and the two
// run modes:
//
//   paper_sweep      Fig 10 grid (scenarios 1-5 x RR/C3/L3, full length)
//                    through exp::run_experiment at jobs = min(4, nproc).
//   failover_costed  both chaos failure plans x RR/L3, serial, with Poisson
//                    arrivals, one client retry, a request timeout near the
//                    scenario's P99 and the proxy cost model on.
//   mega             workload::run_mega, 24 regions x 420 replicas at
//                    2000 rps per region: serial end to end; the traced
//                    mode adds the run at shards = min(4, nproc).
//
// run_untraced() gives the end-to-end metrics (medians over repetitions for
// the requested seconds); run_traced() gives the per-layer metrics from the
// ledger of the traced cell build. Both run the correctness checks.
#pragma once

#include "machine.h"

#include "l3/exp/spec.h"
#include "l3/workload/mega.h"
#include "l3/workload/runner.h"
#include "l3/workload/scenario.h"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Workload { kPaperSweep, kFailoverCosted, kMega };

std::optional<Workload> parse_workload(std::string_view name);
std::string_view workload_name(Workload w);

/// Generated inputs of a three-cluster workload: everything the grid runs
/// on, derived from the seed argument alone.
struct GridInputs {
  std::string name;
  std::vector<l3::workload::ScenarioTrace> traces;
  std::vector<l3::workload::PolicyKind> policies;
  /// Full RunnerConfig per scenario (faults, timeout, ...); the cell seed is
  /// filled in per cell. scenario_configs[0].seed is the grid seed.
  std::vector<l3::workload::RunnerConfig> scenario_configs;
  int jobs = 1;
};

GridInputs make_grid_inputs(Workload w, std::uint64_t seed);

/// The grid as the library runs it: exp::scenario_grid, one repetition.
l3::exp::ExperimentSpec make_spec(const GridInputs& inputs);

/// The RunnerConfig the grid's cell function runs for `cell`.
l3::workload::RunnerConfig cell_config(const GridInputs& inputs,
                                       const l3::exp::Cell& cell);

l3::workload::MegaConfig make_mega_config(std::uint64_t seed,
                                          std::size_t shards);

/// One reported metric. `q` is set for repeated timings.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::optional<Quartiles> q;
};

/// One correctness check; every check can fail.
struct Check {
  std::string name;
  bool pass = false;
  std::string detail;
};

struct RunReport {
  std::vector<Metric> metrics;
  std::vector<Check> checks;
  /// Simulation calls made (grid cells, traced cells, run_mega calls).
  std::uint64_t sim_calls = 0;
  std::size_t width = 1;  ///< jobs or shards the parallel pass used
  std::string spans_json;  ///< traced mode: the recorded cell skeleton

  const Metric* find(std::string_view name) const;
  std::size_t failed_checks() const;
};

RunReport run_untraced(Workload w, std::uint64_t seed, double seconds);
RunReport run_traced(Workload w, std::uint64_t seed, double seconds);

/// Metric names each mode must report (BENCHMARK.json's end_to_end and
/// per_layer lists).
const std::vector<std::string>& end_to_end_metric_names();
const std::vector<std::string>& per_layer_metric_names();

}  // namespace perfbench
