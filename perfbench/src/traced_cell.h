// The traced build of one three-cluster cell. It assembles the run from the
// same public parts, in the same order, that workload::run_scenario_with
// uses — Simulator, Mesh, deploys, TimeSeriesDb, Scraper, L3Controller,
// FaultInjector, OpenLoopClient — and wraps the calls the benchmark owns in
// ledger spans:
//
//   exp.cell
//   ├─ cell.build          construction, through client.start()
//   ├─ sim.run_until       the event loop; its self time is the data plane
//   │  ├─ workload.behavior  TraceReplayBehavior::invoke (timing decorator)
//   │  ├─ metrics.scrape     Scraper::scrape_once at start()'s cadence
//   │  └─ core.tick          L3Controller::tick at start()'s cadence
//   │     └─ lb.compute      the policy, under a forwarding decorator
//   ├─ workload.summary    records_after + summarize_records +
//   │                      aggregate_timeline
//   └─ cell.teardown       destruction of every part
//
// Its RunResult must equal run_scenario's for the same inputs;
// result_digest() is the byte form that equivalence is checked on.
#pragma once

#include "ledger.h"

#include "l3/workload/runner.h"
#include "l3/workload/scenario.h"

#include <cstdint>
#include <string>

namespace perfbench {

/// Counts read at the layer boundaries of one traced cell.
struct CellCounts {
  std::uint64_t sent = 0;       ///< OpenLoopClient::sent()
  std::uint64_t recorded = 0;   ///< client records after the drain
  std::uint64_t events = 0;     ///< Simulator::executed()
  std::uint64_t timeouts = 0;   ///< post-warm-up records that timed out
  std::uint64_t attempts = 0;   ///< post-warm-up client attempts
  std::uint64_t plan_rebuilds = 0;
  std::uint64_t cursor_hits = 0;
  std::uint64_t cursor_rebuilds = 0;
};

struct TracedCell {
  l3::workload::RunResult result;
  CellCounts counts;
};

/// Builds and runs one cell. Supports the RunnerConfig subset the benchmark
/// uses: no profile, one shard, no dynamic penalty (throws otherwise).
TracedCell run_traced_cell(const l3::workload::ScenarioTrace& trace,
                           l3::workload::PolicyKind kind,
                           const l3::workload::RunnerConfig& config,
                           Ledger& ledger);

/// Every RunResult field at full precision (%.17g), one per line.
std::string result_digest(const l3::workload::RunResult& result);

}  // namespace perfbench
