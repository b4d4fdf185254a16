// The benchmark's own tests: the ledger's accounting identity, the traced
// build's equivalence check (and that it can fail), seed handling, and the
// metric lists against BENCHMARK.json.
#include "ledger.h"
#include "machine.h"
#include "traced_cell.h"
#include "workloads.h"

#include "l3/workload/mega.h"
#include "l3/workload/scenarios.h"

#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <sstream>

namespace perfbench {
namespace {

using l3::workload::PolicyKind;
using l3::workload::RunnerConfig;

std::uint64_t fake_now_ns = 0;
std::uint64_t fake_clock() { return fake_now_ns; }

TEST(Ledger, SelfTimesPlusResidualSumToWall) {
  fake_now_ns = 1000;
  Ledger ledger(fake_clock);
  const std::size_t outer = ledger.layer("outer");
  const std::size_t inner = ledger.layer("inner");
  const std::size_t leaf = ledger.layer("leaf");
  const std::uint64_t wall_start = ledger.now();
  fake_now_ns += 5;  // unattributed gap
  {
    const Scope a(ledger, outer);
    fake_now_ns += 10;
    {
      const Scope b(ledger, inner);
      fake_now_ns += 20;
      {
        const Scope c(ledger, leaf);
        fake_now_ns += 7;
      }
      fake_now_ns += 3;
    }
    {
      const Scope b(ledger, inner);
      fake_now_ns += 11;
    }
    fake_now_ns += 2;
  }
  fake_now_ns += 4;  // unattributed gap
  const std::uint64_t wall = ledger.now() - wall_start;

  EXPECT_EQ(ledger.inclusive_ns("outer"), 53u);
  EXPECT_EQ(ledger.self_ns("outer"), 12u);
  EXPECT_EQ(ledger.inclusive_ns("inner"), 41u);
  EXPECT_EQ(ledger.self_ns("inner"), 34u);
  EXPECT_EQ(ledger.calls("inner"), 2u);
  EXPECT_EQ(ledger.self_ns("leaf"), 7u);
  const std::uint64_t residual = wall - ledger.total_self_ns();
  EXPECT_EQ(residual, 9u);
  EXPECT_EQ(ledger.total_self_ns() + residual, wall);
  EXPECT_EQ(ledger.open_spans(), 0u);
  // Depth-limited span records: outer and both inner spans, not the leaf.
  ASSERT_EQ(ledger.spans().size(), 3u);
  EXPECT_EQ(ledger.spans()[1].parent, 0);
  EXPECT_EQ(ledger.spans()[2].parent, 0);
}

TEST(Ledger, EndWithoutBeginThrows) {
  Ledger ledger;
  EXPECT_THROW(ledger.end(), std::logic_error);
}

/// A short scenario-2 cell: 10 s warm-up + 30 s measured.
RunnerConfig short_config() {
  RunnerConfig c;
  c.seed = 7;
  c.warmup = 10.0;
  c.duration = 30.0;
  return c;
}

TEST(TracedCell, LayerSelfTimesSumToCellWall) {
  const auto trace = l3::workload::make_scenario2();
  Ledger ledger;
  const TracedCell traced =
      run_traced_cell(trace, PolicyKind::kL3, short_config(), ledger);
  // exp.cell is the only top-level span, so every nanosecond of it is some
  // layer's self time.
  EXPECT_EQ(ledger.total_self_ns(), ledger.inclusive_ns("exp.cell"));
  EXPECT_GT(ledger.calls("workload.behavior"), 0u);
  EXPECT_GT(ledger.calls("metrics.scrape"), 0u);
  EXPECT_GT(ledger.calls("lb.compute"), 0u);
  EXPECT_EQ(traced.counts.sent, traced.counts.recorded);
  EXPECT_GT(traced.result.requests, 0u);
}

TEST(TracedCell, EqualsRunScenario) {
  const auto trace = l3::workload::make_scenario2();
  const RunnerConfig config = short_config();
  const std::string expected = result_digest(
      l3::workload::run_scenario(trace, PolicyKind::kL3, config));
  Ledger ledger;
  EXPECT_EQ(result_digest(
                run_traced_cell(trace, PolicyKind::kL3, config, ledger).result),
            expected);
}

struct FieldChange {
  const char* name;
  std::function<void(RunnerConfig&)> apply;
};

class EquivalenceCheck : public ::testing::TestWithParam<int> {};

/// The equivalence check fails when run_scenario ran a config that differs
/// from the traced build's in a single field.
TEST_P(EquivalenceCheck, FailsWhenOneConfigFieldDiffers) {
  const std::vector<FieldChange> changes = {
      {"seed", [](RunnerConfig& c) { c.seed += 1; }},
      {"scrape_interval", [](RunnerConfig& c) { c.scrape_interval = 4.0; }},
      {"poisson_arrivals", [](RunnerConfig& c) { c.poisson_arrivals = true; }},
      {"request_timeout", [](RunnerConfig& c) { c.request_timeout = 0.05; }},
  };
  const FieldChange& change = changes[static_cast<std::size_t>(GetParam())];
  const auto trace = l3::workload::make_scenario2();
  const RunnerConfig traced_config = short_config();
  RunnerConfig other = traced_config;
  change.apply(other);
  Ledger ledger;
  const std::string traced = result_digest(
      run_traced_cell(trace, PolicyKind::kL3, traced_config, ledger).result);
  const std::string reference =
      result_digest(l3::workload::run_scenario(trace, PolicyKind::kL3, other));
  EXPECT_NE(traced, reference) << "changed field: " << change.name;
}

INSTANTIATE_TEST_SUITE_P(Fields, EquivalenceCheck, ::testing::Range(0, 4));

TEST(TracedCell, RejectsConfigsOutsideTheTracedBuild) {
  const auto trace = l3::workload::make_scenario2();
  RunnerConfig config = short_config();
  config.shards = 2;
  Ledger ledger;
  EXPECT_THROW(run_traced_cell(trace, PolicyKind::kL3, config, ledger),
               std::invalid_argument);
}

std::string trace_fingerprint(const l3::workload::ScenarioTrace& t) {
  std::ostringstream out;
  out.precision(17);
  for (std::size_t step = 0; step < t.steps(); step += 37) {
    out << t.rps_at(static_cast<double>(step)) << ' ';
    for (std::size_t c = 0; c < t.cluster_count(); ++c) {
      out << t.at(c, step).median << ' ' << t.at(c, step).p99 << ' ';
    }
  }
  return out.str();
}

TEST(Seed, ChangesGeneratedInputsAndSimulatedOutputs) {
  for (const Workload w : {Workload::kPaperSweep, Workload::kFailoverCosted}) {
    const GridInputs a = make_grid_inputs(w, 1);
    const GridInputs b = make_grid_inputs(w, 2);
    const GridInputs a2 = make_grid_inputs(w, 1);
    ASSERT_EQ(a.traces.size(), b.traces.size());
    for (std::size_t s = 0; s < a.traces.size(); ++s) {
      EXPECT_NE(trace_fingerprint(a.traces[s]), trace_fingerprint(b.traces[s]));
      EXPECT_EQ(trace_fingerprint(a.traces[s]), trace_fingerprint(a2.traces[s]));
    }
    const l3::exp::Cell cell{0, 0, 0, 0};
    EXPECT_NE(cell_config(a, cell).seed, cell_config(b, cell).seed);
    EXPECT_EQ(cell_config(a, cell).seed, cell_config(a2, cell).seed);

    // Simulated outputs: a shortened cell of each seed's inputs.
    RunnerConfig ca = cell_config(a, cell);
    RunnerConfig cb = cell_config(b, cell);
    ca.warmup = cb.warmup = 10.0;
    ca.duration = cb.duration = 20.0;
    Ledger ledger;
    const std::string out_a = result_digest(
        run_traced_cell(a.traces[0], a.policies[0], ca, ledger).result);
    const std::string out_b = result_digest(
        run_traced_cell(b.traces[0], b.policies[0], cb, ledger).result);
    EXPECT_NE(out_a, out_b) << workload_name(w);
  }

  l3::workload::MegaConfig ma = make_mega_config(1, 1);
  l3::workload::MegaConfig mb = make_mega_config(2, 1);
  EXPECT_NE(ma.seed, mb.seed);
  for (auto* m : {&ma, &mb}) {  // a small mega for test speed
    m->regions = 4;
    m->replicas_per_region = 8;
    m->duration = 2.0;
  }
  EXPECT_NE(l3::workload::run_mega(ma).digest(),
            l3::workload::run_mega(mb).digest());
}

TEST(Machine, QuartilesMatchPythonExclusiveMethod) {
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  const Quartiles q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.median, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  EXPECT_EQ(q.n, 10u);
  // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
  const Quartiles small = quartiles({4, 1, 2});
  EXPECT_DOUBLE_EQ(small.q1, 1.0);
  EXPECT_DOUBLE_EQ(small.median, 2.0);
  EXPECT_DOUBLE_EQ(small.q3, 4.0);
}

TEST(Benchmark, MetricListsMatchBenchmarkJson) {
  std::ifstream in(PERFBENCH_JSON);
  ASSERT_TRUE(in) << PERFBENCH_JSON;
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  std::size_t declared = 0;
  for (std::size_t pos = json.find("\"name\": \""); pos != std::string::npos;
       pos = json.find("\"name\": \"", pos + 1)) {
    ++declared;
  }
  std::size_t listed = 0;
  for (const auto* names :
       {&end_to_end_metric_names(), &per_layer_metric_names()}) {
    for (const std::string& name : *names) {
      EXPECT_NE(json.find("\"name\": \"" + name + "\""), std::string::npos)
          << name;
      ++listed;
    }
  }
  for (const Workload w : {Workload::kPaperSweep, Workload::kFailoverCosted,
                           Workload::kMega}) {
    EXPECT_NE(json.find("\"name\": \"" + std::string(workload_name(w)) + "\""),
              std::string::npos);
    ++listed;
  }
  EXPECT_EQ(declared, listed);
}

}  // namespace
}  // namespace perfbench
