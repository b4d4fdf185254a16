// Shared helpers for the figure-reproduction bench binaries: the common
// command-line surface (strict parsing, see l3/exp/args.h) and uniform
// table output.
//
// Every bench accepts:   [--reps N] [--fast] [--jobs N] [--json PATH]
//                        [--profile]
//   --reps N     repetitions per configuration (default: the paper's count)
//   --fast       shrink durations/repetitions for smoke runs
//   --jobs N     parallel simulation cells (default: hardware concurrency);
//                stdout and the JSON report are byte-identical for every N
//   --json PATH  write the unified machine-readable report
//   --profile    bind a flight recorder to every cell: the JSON gains a
//                deterministic `profile` block (counts only — still
//                jobs-invariant); per-layer wall time is perfbench's traced
//                ledger (perfbench/README.md)
#pragma once

#include "l3/common/table.h"
#include "l3/common/time.h"
#include "l3/exp/args.h"
#include "l3/exp/report.h"

#include <iostream>
#include <string>

namespace l3::bench {

using BenchArgs = exp::BenchArgs;

inline BenchArgs parse_args(int argc, char** argv) {
  return exp::parse_bench_args(argc, argv);
}

/// Applies --proxy-cost=US to a runner config: US microseconds of sidecar
/// CPU per request through the data-plane cost model (DESIGN.md §16). 0
/// leaves the model disabled — the run is byte-identical to one without
/// the flag (check.sh diffs this against the fig10 golden).
template <typename RunnerConfigT>
inline void apply_proxy_cost(RunnerConfigT& config, const BenchArgs& args) {
  config.proxy_cost.cpu_per_request =
      static_cast<double>(args.proxy_cost_us) * 1e-6;
}

/// Prints the standard bench header naming the reproduced figure.
inline void print_header(const std::string& figure,
                         const std::string& description) {
  std::cout << "== " << figure << " — " << description << " ==\n";
}

/// Percentage decrease of `value` relative to `baseline` (positive = better).
inline double percent_decrease(double baseline, double value) {
  if (baseline <= 0.0) return 0.0;
  return (baseline - value) / baseline * 100.0;
}

/// Writes the unified JSON report if --json was given; complains on I/O
/// failure but doesn't fail the bench (the tables already printed).
inline void finish_report(const BenchArgs& args, const exp::Report& report) {
  if (args.json.empty()) return;
  if (!report.write_file(args.json)) {
    std::cerr << "warning: could not write " << args.json << "\n";
  }
}

}  // namespace l3::bench
