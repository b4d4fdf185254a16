#include "workloads.h"

#include "ledger.h"
#include "traced_cell.h"

#include "l3/exp/runner.h"
#include "l3/workload/scenarios.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <memory>
#include <numeric>
#include <utility>

namespace perfbench {

using namespace l3;

namespace {

/// Fig 10's L3-vs-RR P99 decreases (%), scenarios 1-5 (EXPERIMENTS.md).
constexpr std::array<double, 5> kPaperFig10Gain = {21.7, 35.0, 19.0, 9.0, 9.0};

/// Repetitions run even when --seconds is shorter than their total.
constexpr std::size_t kMinReps = 3;
/// Set-up samples per run of a three-cluster workload (input generation
/// takes a few ms, so the median needs several).
constexpr std::size_t kGridSetupSamples = 31;
/// Set-up samples per mega run (each is a zero-load run_mega call).
constexpr std::size_t kMegaSetupSamples = 9;

/// Mega load: 24 regions x 2000 rps x 20 s = 960k requests, ~95 per
/// backend. The end-to-end run is serial; the sharded run (traced mode and
/// the digest check) needs real work per 5 ms lookahead window, which mega's
/// default 200 rps per region (~6 events per shard per window) does not
/// give it.
constexpr double kMegaRpsPerRegion = 2000.0;
constexpr SimDuration kMegaDuration = 20.0;
/// The zero-load mega run that measures set-up: the shortest allowed
/// measured window, so the run is construction, the fixed 5 s idle drain,
/// collection and teardown.
constexpr SimDuration kMegaSetupDuration = 1e-6;

double seconds_since(std::uint64_t t0_ns) {
  return static_cast<double>(steady_ns() - t0_ns) * 1e-9;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double percent_decrease(double baseline, double value) {
  return baseline <= 0.0 ? 0.0 : (baseline - value) / baseline * 100.0;
}

std::string fmt(const char* format, double a, double b = 0.0) {
  char buf[160];
  std::snprintf(buf, sizeof buf, format, a, b);
  return buf;
}

/// Per-iteration samples of named values, reduced to medians at the end.
class Samples {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    auto [it, fresh] = index_.try_emplace(name, series_.size());
    if (fresh) series_.push_back({name, unit, {}});
    series_[it->second].values.push_back(value);
  }
  void emit(std::vector<Metric>& out, bool with_quartiles) const {
    for (const auto& s : series_) {
      const Quartiles q = quartiles(s.values);
      out.push_back(Metric{s.name, q.median, s.unit,
                           with_quartiles ? std::optional(q) : std::nullopt});
    }
  }

 private:
  struct Series {
    std::string name;
    std::string unit;
    std::vector<double> values;
  };
  std::map<std::string, std::size_t> index_;
  std::vector<Series> series_;
};

std::string grid_digest(const std::vector<exp::CellResult>& results) {
  std::string out;
  for (const auto& r : results) out += result_digest(r.data.run);
  return out;
}

std::size_t policy_index(const GridInputs& inputs, workload::PolicyKind k) {
  for (std::size_t p = 0; p < inputs.policies.size(); ++p) {
    if (inputs.policies[p] == k) return p;
  }
  return 0;
}

/// The paper-facing outputs of one grid run. They depend on the seed and
/// the model, not on host speed.
struct ModelOutputs {
  double fail_frac = 0.0;
  double l3_p99_gain_pct = 0.0;
  double l3_success_gain_pp = 0.0;
  double paper_gain_err_pp = 0.0;
  std::vector<double> gains;          ///< per scenario, L3 vs RR P99 (%)
  std::vector<double> success_gains;  ///< per scenario, L3 - RR (pp)
};

ModelOutputs model_outputs(const GridInputs& inputs,
                           const exp::ExperimentSpec& spec,
                           const std::vector<exp::CellResult>& results) {
  ModelOutputs m;
  const exp::ResultGrid grid(spec, results);
  const std::size_t rr = policy_index(inputs, workload::PolicyKind::kRoundRobin);
  const std::size_t l3 = policy_index(inputs, workload::PolicyKind::kL3);
  double failed = 0.0, requests = 0.0;
  for (const auto& r : results) {
    const double n = static_cast<double>(r.data.run.requests);
    failed += n * (1.0 - r.data.run.summary.success_rate);
    requests += n;
  }
  m.fail_frac = ratio(failed, requests);
  const auto scenarios = static_cast<double>(inputs.traces.size());
  for (std::size_t s = 0; s < inputs.traces.size(); ++s) {
    const double gain = percent_decrease(exp::mean_p99(grid.at(s, rr)),
                                         exp::mean_p99(grid.at(s, l3)));
    const double sgain = (exp::mean_success_rate(grid.at(s, l3)) -
                          exp::mean_success_rate(grid.at(s, rr))) *
                         100.0;
    m.gains.push_back(gain);
    m.success_gains.push_back(sgain);
    m.l3_p99_gain_pct += gain / scenarios;
    m.l3_success_gain_pp += sgain / scenarios;
    if (s < kPaperFig10Gain.size()) {
      m.paper_gain_err_pp += std::fabs(gain - kPaperFig10Gain[s]) / scenarios;
    }
  }
  return m;
}

void add_model_metrics(Samples& samples, const std::string& prefix,
                       Workload w, const ModelOutputs& m) {
  samples.add(prefix + "fail_frac", m.fail_frac, "frac");
  samples.add(prefix + "l3_p99_gain_pct", m.l3_p99_gain_pct, "%");
  samples.add(prefix + "l3_success_gain_pp", m.l3_success_gain_pp, "pp");
  samples.add(prefix + "paper_gain_err_pp",
              w == Workload::kPaperSweep ? m.paper_gain_err_pp : 0.0, "pp");
}

/// The paper's orderings on one grid: Fig 10 (L3 P99 below RR on every
/// scenario) for paper_sweep, Fig 12 (L3 success at least RR's on both
/// plans) for failover_costed.
Check ordering_check(Workload w, const GridInputs& inputs,
                     const ModelOutputs& m) {
  const bool p99 = w == Workload::kPaperSweep;
  Check c{p99 ? "l3_p99_below_rr_every_scenario"
              : "l3_success_at_least_rr_both_plans",
          true, ""};
  for (std::size_t s = 0; s < inputs.traces.size(); ++s) {
    c.pass = c.pass && (p99 ? m.gains[s] > 0.0 : m.success_gains[s] >= 0.0);
    c.detail += inputs.traces[s].name() +
                (p99 ? fmt(" %+.2f%%; ", m.gains[s])
                     : fmt(" %+.3fpp; ", m.success_gains[s]));
  }
  return c;
}

Check determinism_check(std::size_t runs, std::size_t mismatches) {
  return Check{"deterministic_across_repetitions", mismatches == 0,
               fmt("%.0f of %.0f later runs differ from the first",
                   static_cast<double>(mismatches),
                   static_cast<double>(runs > 0 ? runs - 1 : 0))};
}

/// Runs the traced build of the given grid cells against reference results
/// of the same grid (run_scenario via exp::run_experiment).
struct TracedPass {
  std::vector<CellCounts> counts;
  std::vector<workload::RunResult> results;
  std::size_t cells = 0;
  std::size_t mismatches = 0;
  std::size_t unconserved = 0;
  std::string mismatch_detail;
};

TracedPass traced_pass(const GridInputs& inputs,
                       const exp::ExperimentSpec& spec,
                       const std::vector<exp::CellResult>& reference,
                       const std::vector<std::size_t>& indices,
                       Ledger& ledger) {
  TracedPass pass;
  for (const std::size_t index : indices) {
    const exp::Cell cell = spec.cell_at(index);
    TracedCell traced = run_traced_cell(
        inputs.traces[cell.scenario], inputs.policies[cell.policy],
        cell_config(inputs, cell), ledger);
    ++pass.cells;
    if (result_digest(traced.result) !=
        result_digest(reference[index].data.run)) {
      ++pass.mismatches;
      pass.mismatch_detail += spec.scenarios[cell.scenario] + "/" +
                              spec.policies[cell.policy] + " ";
    }
    if (traced.counts.sent != traced.counts.recorded) ++pass.unconserved;
    pass.counts.push_back(traced.counts);
    pass.results.push_back(std::move(traced.result));
  }
  return pass;
}

void traced_pass_checks(const TracedPass& pass, std::vector<Check>& checks) {
  checks.push_back(Check{
      "traced_equals_run_scenario", pass.mismatches == 0,
      fmt("%.0f of %.0f traced cells differ ",
          static_cast<double>(pass.mismatches),
          static_cast<double>(pass.cells)) +
          pass.mismatch_detail});
  std::uint64_t sent = 0, recorded = 0;
  for (const auto& c : pass.counts) {
    sent += c.sent;
    recorded += c.recorded;
  }
  checks.push_back(Check{"requests_conserved", pass.unconserved == 0,
                         fmt("sent %.0f, recorded %.0f after the drain",
                             static_cast<double>(sent),
                             static_cast<double>(recorded))});
}

// --- three-cluster workloads ---------------------------------------------

RunReport untraced_grid(Workload w, std::uint64_t seed, double seconds) {
  RunReport report;
  Samples timing;
  std::vector<double> setup;
  const std::uint64_t start = steady_ns();

  std::optional<GridInputs> inputs0;
  std::optional<exp::ExperimentSpec> spec0;
  std::vector<exp::CellResult> results0;
  std::string digest0;
  std::size_t reps = 0, mismatches = 0;
  while (reps < kMinReps || seconds_since(start) < seconds) {
    const std::uint64_t s0 = steady_ns();
    GridInputs inputs = make_grid_inputs(w, seed);
    exp::ExperimentSpec spec = make_spec(inputs);
    setup.push_back(seconds_since(s0));

    const CpuTimes cpu0 = process_cpu();
    const std::uint64_t w0 = steady_ns();
    auto results = exp::run_experiment(spec, {.jobs = inputs.jobs});
    const double wall = seconds_since(w0);
    const CpuTimes cpu1 = process_cpu();
    report.sim_calls += results.size();
    report.width = static_cast<std::size_t>(inputs.jobs);

    double requests = 0.0;
    for (const auto& r : results) {
      requests += static_cast<double>(r.data.run.requests);
    }
    timing.add("sim_req_per_s", requests / wall, "1/s");
    timing.add("cpu_us_per_req",
               (cpu1.total() - cpu0.total()) * 1e6 / requests, "us");

    std::string digest = grid_digest(results);
    if (reps == 0) {
      digest0 = std::move(digest);
      results0 = std::move(results);
      inputs0.emplace(std::move(inputs));
      spec0.emplace(std::move(spec));
    } else if (digest != digest0) {
      ++mismatches;
    }
    ++reps;
  }
  // Peak RSS of the measured work, before the checks run anything else.
  const double rss = peak_rss_mb();
  while (setup.size() < kGridSetupSamples) {
    const std::uint64_t s0 = steady_ns();
    const exp::ExperimentSpec spec = make_spec(make_grid_inputs(w, seed));
    setup.push_back(seconds_since(s0));
  }

  timing.emit(report.metrics, true);
  const Quartiles sq = quartiles(setup);
  report.metrics.push_back(Metric{"setup_s", sq.median, "s", sq});
  report.metrics.push_back(Metric{"peak_rss_mb", rss, "MiB", std::nullopt});

  // One traced L3 cell of the last scenario, checked against the grid.
  Ledger ledger;
  const std::size_t check_index = spec0->index_of(exp::Cell{
      inputs0->traces.size() - 1,
      policy_index(*inputs0, workload::PolicyKind::kL3), 0, 0});
  const TracedPass pass =
      traced_pass(*inputs0, *spec0, results0, {check_index}, ledger);
  report.sim_calls += pass.cells;

  const ModelOutputs model = model_outputs(*inputs0, *spec0, results0);
  Samples model_samples;
  add_model_metrics(model_samples, "", w, model);
  model_samples.emit(report.metrics, false);

  traced_pass_checks(pass, report.checks);
  report.checks.push_back(determinism_check(reps, mismatches));
  report.checks.push_back(ordering_check(w, *inputs0, model));
  return report;
}

RunReport traced_grid(Workload w, std::uint64_t seed, double seconds) {
  RunReport report;
  Samples layers;
  const std::uint64_t start = steady_ns();
  std::string digest0;
  std::size_t iterations = 0, mismatches = 0;
  TracedPass all_passes;  // accumulated over iterations, for the checks
  std::optional<Check> ordering;

  while (iterations < 1 || seconds_since(start) < seconds) {
    const GridInputs inputs = make_grid_inputs(w, seed);
    const exp::ExperimentSpec spec = make_spec(inputs);

    // Untraced serial reference pass: run_scenario per cell.
    const std::uint64_t u0 = steady_ns();
    const auto reference = exp::run_experiment(spec, {.jobs = 1});
    const double untraced_wall = seconds_since(u0);

    // Traced serial pass over every cell.
    Ledger ledger;
    std::vector<std::size_t> all(spec.cell_count());
    std::iota(all.begin(), all.end(), std::size_t{0});
    const std::uint64_t t0 = ledger.now();
    TracedPass pass = traced_pass(inputs, spec, reference, all, ledger);
    const double traced_wall = static_cast<double>(ledger.now() - t0) * 1e-9;

    // Parallel pass at the workload's jobs, timing each cell from outside.
    std::vector<double> cell_walls(spec.cell_count(), 0.0);
    exp::ExperimentSpec timed = spec;
    timed.cell = [&spec, &cell_walls](const exp::Cell& cell,
                                      std::uint64_t cseed) {
      const std::uint64_t c0 = steady_ns();
      exp::CellData data = spec.cell(cell, cseed);
      cell_walls[spec.index_of(cell)] = seconds_since(c0);
      return data;
    };
    const CpuTimes cpu0 = process_cpu();
    const std::uint64_t g0 = steady_ns();
    exp::run_experiment(timed, {.jobs = inputs.jobs});
    const double grid_wall = seconds_since(g0);
    const CpuTimes cpu1 = process_cpu();
    report.sim_calls += 3 * spec.cell_count();
    report.width = static_cast<std::size_t>(inputs.jobs);

    // Counts summed over the traced cells.
    double recorded = 0, requests = 0, events = 0, attempts = 0,
           timeouts = 0, handshakes = 0, pool_hits = 0, queued = 0,
           rebuilds = 0, cursor_hits = 0, cursor_rebuilds = 0,
           weight_updates = 0;
    for (std::size_t i = 0; i < pass.counts.size(); ++i) {
      const CellCounts& c = pass.counts[i];
      const workload::RunResult& r = pass.results[i];
      recorded += static_cast<double>(c.recorded);
      requests += static_cast<double>(r.requests);
      events += static_cast<double>(c.events);
      attempts += static_cast<double>(c.attempts);
      timeouts += static_cast<double>(c.timeouts);
      handshakes += static_cast<double>(r.proxy_cost_stats.handshakes);
      pool_hits += static_cast<double>(r.proxy_cost_stats.pool_hits);
      queued += static_cast<double>(r.proxy_cost_stats.queued);
      rebuilds += static_cast<double>(c.plan_rebuilds);
      cursor_hits += static_cast<double>(c.cursor_hits);
      cursor_rebuilds += static_cast<double>(c.cursor_rebuilds);
      weight_updates += static_cast<double>(r.weight_updates);
    }
    const auto cells = static_cast<double>(pass.counts.size());
    auto self = [&](const char* layer) {
      return static_cast<double>(ledger.self_ns(layer));
    };
    auto per_call_us = [&](const char* layer) {
      return ratio(self(layer), static_cast<double>(ledger.calls(layer))) /
             1e3;
    };
    const double admissions = handshakes + pool_hits;

    layers.add("sim.events_per_req", events / recorded, "count");
    layers.add("sim.ns_per_event",
               static_cast<double>(ledger.inclusive_ns("sim.run_until")) /
                   events,
               "ns");
    layers.add("sim.dataplane_self_ns_per_req",
               self("sim.run_until") / recorded, "ns");
    layers.add("shard.speedup", 0.0, "x");
    layers.add("shard.msgs_per_req", 0.0, "count");
    layers.add("shard.msgs_per_flush", 0.0, "count");
    layers.add("shard.capacity_flush_frac", 0.0, "frac");
    layers.add("shard.sys_cpu_frac",
               ratio(cpu1.sys_s - cpu0.sys_s, cpu1.total() - cpu0.total()),
               "frac");
    layers.add("workload.behavior_ns_per_call",
               per_call_us("workload.behavior") * 1e3, "ns");
    layers.add("workload.summary_ns_per_record",
               self("workload.summary") / requests, "ns");
    layers.add("workload.attempts_per_req", attempts / requests, "count");
    layers.add("mesh.timeouts_per_kreq", timeouts * 1e3 / requests, "count");
    layers.add("mesh.proxy_queued_frac", ratio(queued, admissions), "frac");
    layers.add("mesh.handshakes_per_kreq", handshakes * 1e3 / requests,
               "count");
    layers.add("mesh.pool_hit_rate", ratio(pool_hits, admissions), "frac");
    layers.add("metrics.scrape_us", per_call_us("metrics.scrape"), "us");
    layers.add("metrics.plan_rebuilds", rebuilds / cells, "count");
    layers.add("metrics.cursor_hit_frac",
               ratio(cursor_hits, cursor_hits + cursor_rebuilds), "frac");
    layers.add("core.tick_us", per_call_us("core.tick"), "us");
    layers.add("lb.compute_us", per_call_us("lb.compute"), "us");
    layers.add("core.weight_updates", weight_updates / cells, "count");
    layers.add("exp.parallel_efficiency",
               std::accumulate(cell_walls.begin(), cell_walls.end(), 0.0) /
                   (grid_wall * inputs.jobs),
               "frac");
    const double wall_ns = traced_wall * 1e9;
    layers.add("ledger.residual_frac",
               (wall_ns - static_cast<double>(ledger.total_self_ns())) /
                   wall_ns,
               "frac");
    layers.add("trace.overhead_frac", traced_wall / untraced_wall - 1.0,
               "frac");
    for (const auto& layer : ledger.layers()) {
      layers.add("share." + layer.name,
                 static_cast<double>(layer.self_ns) / wall_ns, "frac");
    }
    const ModelOutputs model = model_outputs(inputs, spec, reference);
    add_model_metrics(layers, "model.", w, model);

    std::string digest = grid_digest(reference);
    if (iterations == 0) {
      digest0 = std::move(digest);
      ordering = ordering_check(w, inputs, model);
      report.spans_json = ledger.spans_json();
    } else if (digest != digest0) {
      ++mismatches;
    }
    all_passes.cells += pass.cells;
    all_passes.mismatches += pass.mismatches;
    all_passes.unconserved += pass.unconserved;
    all_passes.mismatch_detail += pass.mismatch_detail;
    all_passes.counts.insert(all_passes.counts.end(), pass.counts.begin(),
                             pass.counts.end());
    ++iterations;
  }
  layers.emit(report.metrics, true);
  traced_pass_checks(all_passes, report.checks);
  report.checks.push_back(determinism_check(iterations, mismatches));
  report.checks.push_back(*ordering);
  return report;
}

// --- mega ------------------------------------------------------------------

struct TimedMega {
  workload::MegaResult result;
  double wall = 0.0;
  CpuTimes cpu;  ///< process CPU spent during the call
};

TimedMega timed_mega(const workload::MegaConfig& config) {
  TimedMega out;
  const CpuTimes cpu0 = process_cpu();
  const std::uint64_t w0 = steady_ns();
  out.result = workload::run_mega(config);
  out.wall = seconds_since(w0);
  const CpuTimes cpu1 = process_cpu();
  out.cpu = CpuTimes{cpu1.user_s - cpu0.user_s, cpu1.sys_s - cpu0.sys_s};
  return out;
}

double mega_fail_frac(const workload::MegaResult& r) {
  double failed = 0.0;
  for (const auto& region : r.regions) {
    failed += static_cast<double>(region.requests) * (1.0 - region.success_rate);
  }
  return ratio(failed, static_cast<double>(r.total_requests));
}

// Shards of the sharded mega run: at least 2 even on a 1-vCPU host, so the
// 1-vs-N digest check always compares a real partition (the ShardEngine
// gives the same digest with more shards than cores).
std::size_t mega_shard_count() {
  return std::max<std::size_t>(2, parallel_width());
}

Check mega_shard_check(const workload::MegaResult& one,
                       const workload::MegaResult& n) {
  return Check{"mega_digest_equal_1_vs_n_shards", one.digest() == n.digest(),
               fmt("shards 1 vs %.0f, %.0f requests",
                   static_cast<double>(n.shards),
                   static_cast<double>(n.total_requests))};
}

void add_mega_model_metrics(Samples& samples, const std::string& prefix,
                            const workload::MegaResult& r) {
  samples.add(prefix + "fail_frac", mega_fail_frac(r), "frac");
  samples.add(prefix + "l3_p99_gain_pct", 0.0, "%");
  samples.add(prefix + "l3_success_gain_pp", 0.0, "pp");
  samples.add(prefix + "paper_gain_err_pp", 0.0, "pp");
}

RunReport untraced_mega(std::uint64_t seed, double seconds) {
  RunReport report;
  const workload::MegaConfig config = make_mega_config(seed, 1);

  std::vector<double> setup;
  workload::MegaConfig setup_config = config;
  setup_config.duration = kMegaSetupDuration;
  for (std::size_t i = 0; i < kMegaSetupSamples; ++i) {
    setup.push_back(timed_mega(setup_config).wall);
    ++report.sim_calls;
  }

  Samples timing;
  const std::uint64_t start = steady_ns();
  std::optional<workload::MegaResult> first;
  std::size_t reps = 0, mismatches = 0;
  while (reps < kMinReps || seconds_since(start) < seconds) {
    TimedMega run = timed_mega(config);
    ++report.sim_calls;
    const auto requests = static_cast<double>(run.result.total_requests);
    timing.add("sim_req_per_s", requests / run.wall, "1/s");
    timing.add("cpu_us_per_req", run.cpu.total() * 1e6 / requests, "us");
    if (!first) {
      first = std::move(run.result);
    } else if (run.result.digest() != first->digest()) {
      ++mismatches;
    }
    ++reps;
  }
  timing.emit(report.metrics, true);
  const Quartiles sq = quartiles(setup);
  report.metrics.push_back(Metric{"setup_s", sq.median, "s", sq});
  // Peak RSS of the measured runs, before the sharded check run.
  report.metrics.push_back(
      Metric{"peak_rss_mb", peak_rss_mb(), "MiB", std::nullopt});

  const workload::MegaResult sharded =
      workload::run_mega(make_mega_config(seed, mega_shard_count()));
  ++report.sim_calls;
  Samples model;
  add_mega_model_metrics(model, "", *first);
  model.emit(report.metrics, false);

  report.checks.push_back(mega_shard_check(*first, sharded));
  report.checks.push_back(determinism_check(reps, mismatches));
  return report;
}

RunReport traced_mega(std::uint64_t seed, double seconds) {
  RunReport report;
  const std::size_t shards = mega_shard_count();
  report.width = shards;
  const workload::MegaConfig config_1 = make_mega_config(seed, 1);
  const workload::MegaConfig config_n = make_mega_config(seed, shards);

  Samples layers;
  const std::uint64_t start = steady_ns();
  std::optional<Check> shard_check;
  std::string digest0;
  std::size_t iterations = 0, mismatches = 0;
  while (iterations < 1 || seconds_since(start) < seconds) {
    const TimedMega untraced = timed_mega(config_1);

    Ledger ledger;
    const std::size_t l_1 = ledger.layer("mega.run_mega_1_shard");
    const std::size_t l_n = ledger.layer("mega.run_mega_n_shards");
    const std::uint64_t t0 = ledger.now();
    std::optional<TimedMega> traced_1, traced_n;
    {
      const Scope span(ledger, l_1);
      traced_1.emplace(timed_mega(config_1));
    }
    {
      const Scope span(ledger, l_n);
      traced_n.emplace(timed_mega(config_n));
    }
    const double traced_ns = static_cast<double>(ledger.now() - t0);
    report.sim_calls += 3;

    const workload::MegaResult& r1 = traced_1->result;
    const workload::MegaResult& rn = traced_n->result;
    const auto requests = static_cast<double>(rn.total_requests);
    const auto events = static_cast<double>(rn.total_events);
    const sim::MailboxStats& mb = rn.mailbox;
    const auto wall_1_ns =
        static_cast<double>(ledger.inclusive_ns("mega.run_mega_1_shard"));
    const auto wall_n_ns =
        static_cast<double>(ledger.inclusive_ns("mega.run_mega_n_shards"));
    layers.add("sim.events_per_req", events / requests, "count");
    layers.add("sim.ns_per_event", wall_1_ns / events, "ns");
    layers.add("shard.speedup", wall_1_ns / wall_n_ns, "x");
    layers.add("shard.msgs_per_req",
               static_cast<double>(mb.messages) / requests, "count");
    layers.add("shard.msgs_per_flush",
               ratio(static_cast<double>(mb.messages),
                     static_cast<double>(mb.flushes)),
               "count");
    layers.add("shard.capacity_flush_frac",
               ratio(static_cast<double>(mb.capacity_flushes),
                     static_cast<double>(mb.flushes)),
               "frac");
    layers.add("shard.sys_cpu_frac",
               ratio(traced_n->cpu.sys_s, traced_n->cpu.total()), "frac");
    // Layers mega runs inside run_mega, where the benchmark has no span:
    // reported as 0 (not measured on this workload).
    for (const auto& [name, unit] :
         std::initializer_list<std::pair<const char*, const char*>>{
             {"sim.dataplane_self_ns_per_req", "ns"},
             {"workload.behavior_ns_per_call", "ns"},
             {"workload.summary_ns_per_record", "ns"},
             {"mesh.timeouts_per_kreq", "count"},
             {"mesh.proxy_queued_frac", "frac"},
             {"mesh.handshakes_per_kreq", "count"},
             {"mesh.pool_hit_rate", "frac"},
             {"metrics.scrape_us", "us"},
             {"metrics.plan_rebuilds", "count"},
             {"metrics.cursor_hit_frac", "frac"},
             {"core.tick_us", "us"},
             {"lb.compute_us", "us"},
             {"core.weight_updates", "count"},
             {"exp.parallel_efficiency", "frac"}}) {
      layers.add(name, 0.0, unit);
    }
    layers.add("workload.attempts_per_req", 1.0, "count");
    layers.add("ledger.residual_frac",
               (traced_ns - static_cast<double>(ledger.total_self_ns())) /
                   traced_ns,
               "frac");
    layers.add("trace.overhead_frac", wall_1_ns * 1e-9 / untraced.wall - 1.0,
               "frac");
    for (const auto& layer : ledger.layers()) {
      layers.add("share." + layer.name,
                 static_cast<double>(layer.self_ns) / traced_ns, "frac");
    }
    add_mega_model_metrics(layers, "model.", r1);

    if (iterations == 0) {
      digest0 = r1.digest();
      shard_check = mega_shard_check(r1, rn);
      report.spans_json = ledger.spans_json();
    }
    if (untraced.result.digest() != digest0 || r1.digest() != digest0) {
      ++mismatches;
    }
    ++iterations;
  }
  layers.emit(report.metrics, true);
  report.checks.push_back(*shard_check);
  report.checks.push_back(determinism_check(iterations + 1, mismatches));
  return report;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w : {Workload::kPaperSweep, Workload::kFailoverCosted,
                           Workload::kMega}) {
    if (workload_name(w) == name) return w;
  }
  return std::nullopt;
}

std::string_view workload_name(Workload w) {
  switch (w) {
    case Workload::kPaperSweep:
      return "paper_sweep";
    case Workload::kFailoverCosted:
      return "failover_costed";
    case Workload::kMega:
      return "mega";
  }
  return "unknown";
}

GridInputs make_grid_inputs(Workload w, std::uint64_t seed) {
  GridInputs in;
  workload::RunnerConfig base;
  base.seed = 42 + seed;  // seed 0 = the fig benches' grid seed
  if (w == Workload::kPaperSweep) {
    in.name = "paper_sweep";
    // Seed 0 reproduces fig10's traces (scenario seeds 1..5).
    in.traces = workload::all_latency_scenarios(1 + 5 * seed);
    in.policies = {workload::PolicyKind::kRoundRobin, workload::PolicyKind::kC3,
                   workload::PolicyKind::kL3};
    in.scenario_configs.assign(in.traces.size(), base);
    in.jobs = static_cast<int>(parallel_width());
    return in;
  }
  if (w != Workload::kFailoverCosted) {
    throw std::invalid_argument("make_grid_inputs: not a grid workload");
  }
  in.name = "failover_costed";
  // Seed 0 reproduces fig11/fig12's traces (failure seeds 6 and 7).
  in.traces.push_back(workload::make_failure1_chaos(6 + 2 * seed));
  in.traces.push_back(workload::make_failure2_chaos(7 + 2 * seed));
  in.policies = {workload::PolicyKind::kRoundRobin, workload::PolicyKind::kL3};
  base.health_probe_interval = 0.0;  // failures visible via metrics only
  base.poisson_arrivals = true;
  base.client_retries = 1;
  // Sidecar CPU at about half a 1-worker stage's capacity under failure-1's
  // ~300 rps, plus per-edge mTLS connection pools.
  base.proxy_cost.cpu_per_request = 0.0015;
  base.proxy_cost.handshake_cost = 0.002;
  base.proxy_cost.concurrency = 1;
  base.proxy_cost.pool_size = 16;
  base.proxy_cost.idle_timeout = 30.0;
  // Request timeouts near each scenario's P99, so the timeout ring fires.
  const std::array<chaos::FaultPlan, 2> plans = {workload::failure1_faults(),
                                                 workload::failure2_faults()};
  const std::array<SimDuration, 2> timeouts = {0.5, 0.15};
  for (std::size_t s = 0; s < 2; ++s) {
    workload::RunnerConfig c = base;
    c.faults = plans[s];
    c.request_timeout = timeouts[s];
    in.scenario_configs.push_back(std::move(c));
  }
  in.jobs = 1;
  return in;
}

exp::ExperimentSpec make_spec(const GridInputs& inputs) {
  auto configs = std::make_shared<const std::vector<workload::RunnerConfig>>(
      inputs.scenario_configs);
  return exp::scenario_grid(
      inputs.name, inputs.traces, inputs.policies, inputs.scenario_configs[0],
      1, {}, [configs](std::size_t scenario, workload::RunnerConfig& c) {
        const std::uint64_t cell_seed = c.seed;
        c = (*configs)[scenario];
        c.seed = cell_seed;
      });
}

workload::RunnerConfig cell_config(const GridInputs& inputs,
                                   const exp::Cell& cell) {
  workload::RunnerConfig c = inputs.scenario_configs[cell.scenario];
  c.seed = exp::cell_seed(inputs.scenario_configs[0].seed, cell);
  return c;
}

workload::MegaConfig make_mega_config(std::uint64_t seed, std::size_t shards) {
  workload::MegaConfig c;
  c.seed = 42 + seed;
  c.shards = shards;
  c.pin_threads = false;
  c.duration = kMegaDuration;
  c.rps_per_region = kMegaRpsPerRegion;
  return c;
}

const Metric* RunReport::find(std::string_view name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::size_t RunReport::failed_checks() const {
  std::size_t n = 0;
  for (const Check& c : checks) n += c.pass ? 0 : 1;
  return n;
}

RunReport run_untraced(Workload w, std::uint64_t seed, double seconds) {
  return w == Workload::kMega ? untraced_mega(seed, seconds)
                                     : untraced_grid(w, seed, seconds);
}

RunReport run_traced(Workload w, std::uint64_t seed, double seconds) {
  return w == Workload::kMega ? traced_mega(seed, seconds)
                                     : traced_grid(w, seed, seconds);
}

const std::vector<std::string>& end_to_end_metric_names() {
  static const std::vector<std::string> names = {
      "sim_req_per_s", "cpu_us_per_req", "setup_s", "peak_rss_mb"};
  return names;
}

const std::vector<std::string>& per_layer_metric_names() {
  static const std::vector<std::string> names = {
      "sim.events_per_req",
      "sim.ns_per_event",
      "sim.dataplane_self_ns_per_req",
      "shard.speedup",
      "shard.msgs_per_req",
      "shard.msgs_per_flush",
      "shard.capacity_flush_frac",
      "shard.sys_cpu_frac",
      "workload.behavior_ns_per_call",
      "workload.summary_ns_per_record",
      "workload.attempts_per_req",
      "mesh.timeouts_per_kreq",
      "mesh.proxy_queued_frac",
      "mesh.handshakes_per_kreq",
      "mesh.pool_hit_rate",
      "metrics.scrape_us",
      "metrics.plan_rebuilds",
      "metrics.cursor_hit_frac",
      "core.tick_us",
      "lb.compute_us",
      "core.weight_updates",
      "exp.parallel_efficiency",
      "ledger.residual_frac",
      "trace.overhead_frac",
      "model.fail_frac",
      "model.l3_p99_gain_pct",
      "model.l3_success_gain_pp",
      "model.paper_gain_err_pp",
  };
  return names;
}

}  // namespace perfbench
