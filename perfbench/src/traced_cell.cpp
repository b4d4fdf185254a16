#include "traced_cell.h"

#include "l3/chaos/injector.h"
#include "l3/core/controller.h"
#include "l3/mesh/mesh.h"
#include "l3/metrics/scraper.h"
#include "l3/metrics/tsdb.h"
#include "l3/sim/simulator.h"
#include "l3/workload/client.h"
#include "l3/workload/trace_behavior.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

namespace perfbench {

using namespace l3;

namespace {

/// Times the wrapped behaviour's invoke() (TraceReplayBehavior's sampling).
class TimedBehavior final : public mesh::ServiceBehavior {
 public:
  TimedBehavior(std::unique_ptr<mesh::ServiceBehavior> inner, Ledger& ledger,
                std::size_t layer)
      : inner_(std::move(inner)), ledger_(ledger), layer_(layer) {}

  void invoke(const mesh::BehaviorContext& ctx, mesh::OutcomeFn done) override {
    const Scope span(ledger_, layer_);
    inner_->invoke(ctx, std::move(done));
  }

 private:
  std::unique_ptr<mesh::ServiceBehavior> inner_;
  Ledger& ledger_;
  std::size_t layer_;
};

/// Forwarding policy decorator that times the weight computation.
class TimedPolicy final : public lb::LoadBalancingPolicy {
 public:
  TimedPolicy(std::unique_ptr<lb::LoadBalancingPolicy> inner, Ledger& ledger,
              std::size_t layer)
      : inner_(std::move(inner)), ledger_(ledger), layer_(layer) {}

  std::vector<std::uint64_t> compute(const lb::PolicyInput& input) override {
    const Scope span(ledger_, layer_);
    return inner_->compute(input);
  }
  std::vector<std::uint64_t> compute_explained(
      const lb::PolicyInput& input, lb::PolicyExplain& explain) override {
    const Scope span(ledger_, layer_);
    return inner_->compute_explained(input, explain);
  }
  std::string_view name() const override { return inner_->name(); }

 private:
  std::unique_ptr<lb::LoadBalancingPolicy> inner_;
  Ledger& ledger_;
  std::size_t layer_;
};

/// Every part of one cell, declared in run_scenario_with's construction
/// order so destruction runs in the same (reverse) order.
struct Parts {
  sim::Simulator sim;
  std::optional<mesh::Mesh> mesh;
  std::shared_ptr<const workload::ScenarioTrace> trace;
  std::optional<metrics::TimeSeriesDb> tsdb;
  std::optional<metrics::Scraper> scraper;
  sim::PeriodicHandle scrape_task;
  std::optional<core::L3Controller> controller;
  sim::PeriodicHandle tick_task;
  std::optional<chaos::FaultInjector> injector;
  std::optional<workload::OpenLoopClient> client;
};

}  // namespace

TracedCell run_traced_cell(const workload::ScenarioTrace& trace,
                           workload::PolicyKind kind,
                           const workload::RunnerConfig& config,
                           Ledger& ledger) {
  if (config.profile || config.shards > 1 ||
      config.controller.dynamic_penalty || trace.cluster_count() != 3) {
    throw std::invalid_argument(
        "run_traced_cell: profile, shards > 1 and dynamic_penalty are not "
        "part of the traced build");
  }
  const std::size_t l_cell = ledger.layer("exp.cell");
  const std::size_t l_build = ledger.layer("cell.build");
  const std::size_t l_run = ledger.layer("sim.run_until");
  const std::size_t l_behavior = ledger.layer("workload.behavior");
  const std::size_t l_scrape = ledger.layer("metrics.scrape");
  const std::size_t l_tick = ledger.layer("core.tick");
  const std::size_t l_compute = ledger.layer("lb.compute");
  const std::size_t l_summary = ledger.layer("workload.summary");
  const std::size_t l_teardown = ledger.layer("cell.teardown");
  const Scope cell_span(ledger, l_cell);

  const SimDuration measured =
      config.duration > 0.0 ? std::min(config.duration, trace.duration())
                            : trace.duration();
  const SimTime t0 = config.warmup;
  const SimTime t1 = config.warmup + measured;
  const std::string service = "api";
  auto parts = std::make_unique<Parts>();
  mesh::ClusterId c1 = 0;
  {
    const Scope build_span(ledger, l_build);
    sim::Simulator& sim = parts->sim;
    sim.set_dispatch_batch(config.dispatch_batch);
    SplitRng root(config.seed);

    mesh::MeshConfig mesh_config;
    mesh_config.local_delay = config.local_one_way;
    mesh_config.propagation_delay = config.propagation_delay;
    mesh_config.routing = config.routing;
    mesh_config.outlier_detection = config.outlier;
    mesh_config.proxy_cost = config.proxy_cost;
    mesh_config.request_timeout = config.request_timeout;
    mesh_config.health_probe_interval = config.health_probe_interval;
    mesh::Mesh& mesh = parts->mesh.emplace(sim, root.split("mesh"), mesh_config);

    c1 = mesh.add_cluster("cluster-1", "eu-central-1");
    const auto c2 = mesh.add_cluster("cluster-2", "eu-west-3");
    const auto c3 = mesh.add_cluster("cluster-3", "eu-south-1");
    mesh::WanModel::Link wan_link;
    wan_link.base = config.wan_one_way;
    wan_link.jitter_frac = config.wan_jitter_frac;
    wan_link.flap_amp = config.wan_flap_amp;
    mesh.wan().set_symmetric(c1, c2, wan_link);
    mesh.wan().set_symmetric(c1, c3, wan_link);
    mesh.wan().set_symmetric(c2, c3, wan_link);

    parts->trace = std::make_shared<const workload::ScenarioTrace>(trace);
    mesh::DeploymentConfig dc;
    dc.replicas = config.replicas_per_cluster;
    dc.concurrency = config.replica_concurrency;
    dc.queue_capacity = config.replica_queue_capacity;
    for (mesh::ClusterId c : {c1, c2, c3}) {
      mesh.deploy(service, c, dc,
                  std::make_unique<TimedBehavior>(
                      std::make_unique<workload::TraceReplayBehavior>(
                          parts->trace, c, config.warmup),
                      ledger, l_behavior));
    }
    mesh.proxy(c1, service);

    metrics::TimeSeriesDb& tsdb = parts->tsdb.emplace();
    metrics::Scraper& scraper = parts->scraper.emplace(sim, tsdb);
    scraper.add_target("cluster-1", mesh.registry(c1));
    // Scraper::start(interval): schedule_every(interval, scrape_once,
    // first = interval) — the same task, with the call wrapped in a span.
    parts->scrape_task = sim.schedule_every(
        config.scrape_interval,
        [&scraper, &ledger, l_scrape] {
          const Scope span(ledger, l_scrape);
          scraper.scrape_once();
        },
        config.scrape_interval);

    core::L3Controller& controller = parts->controller.emplace(
        mesh, tsdb, c1,
        std::make_unique<TimedPolicy>(
            workload::make_policy(kind, config.l3, config.c3), ledger,
            l_compute),
        config.controller);
    controller.manage_all();
    // L3Controller::start(): schedule_every(interval, tick, first =
    // interval), again with the call wrapped.
    const SimDuration ci = config.controller.control_interval;
    parts->tick_task = sim.schedule_every(
        ci,
        [&controller, &ledger, l_tick] {
          const Scope span(ledger, l_tick);
          controller.tick();
        },
        ci);

    chaos::FaultInjector& injector = parts->injector.emplace(sim, mesh);
    injector.set_scraper(&scraper);
    injector.add_controller(&controller);
    if (!config.faults.empty()) injector.arm(config.faults, config.warmup);

    workload::OpenLoopClient::Config client_config;
    client_config.mode = workload::CallMode::kViaSplit;
    client_config.poisson = config.poisson_arrivals;
    client_config.max_retries = config.client_retries;
    client_config.retry_backoff = config.retry_backoff;
    client_config.arrival_batch = config.dispatch_batch;
    const workload::ScenarioTrace* shared = parts->trace.get();
    workload::OpenLoopClient& client = parts->client.emplace(
        mesh, c1, service,
        [shared, t0](SimTime t) {
          return shared->rps_at(std::max(0.0, t - t0));
        },
        root.split("client"), client_config);
    client.start(0.0, t1);
  }

  {
    const Scope run_span(ledger, l_run);
    parts->sim.run_until(t1 + 30.0);
  }

  TracedCell out;
  workload::RunResult& result = out.result;
  mesh::Mesh& mesh = *parts->mesh;
  const workload::OpenLoopClient& client = *parts->client;
  std::vector<workload::RequestRecord> records;
  {
    const Scope summary_span(ledger, l_summary);
    records = client.records_after(t0);
    result.summary = workload::summarize_records(records);
    result.timeline = workload::aggregate_timeline(records, t0, t1);
  }
  result.policy = std::string(parts->controller->policy().name());
  result.scenario = trace.name();
  result.requests = records.size();
  result.weight_updates = mesh.control_plane().updates_applied();
  result.proxy_cost_stats = mesh.proxy(c1, service).cost_stats();
  result.traffic_share.assign(mesh.clusters().size(), 0.0);
  CellCounts& counts = out.counts;
  if (!records.empty()) {
    double attempts = 0.0;
    for (const auto& r : records) {
      result.traffic_share[r.backend_cluster] += 1.0;
      attempts += static_cast<double>(r.attempts);
      counts.attempts += static_cast<std::uint64_t>(r.attempts);
      counts.timeouts += r.timed_out ? 1 : 0;
    }
    for (auto& share : result.traffic_share) {
      share /= static_cast<double>(records.size());
    }
    result.mean_attempts = attempts / static_cast<double>(records.size());
  }
  counts.sent = client.sent();
  counts.recorded = client.completed();
  counts.events = parts->sim.executed();
  counts.plan_rebuilds = parts->scraper->plan_rebuilds();
  counts.cursor_hits = parts->tsdb->cursor_hits();
  counts.cursor_rebuilds = parts->tsdb->cursor_rebuilds();

  {
    const Scope teardown_span(ledger, l_teardown);
    parts.reset();
  }
  return out;
}

std::string result_digest(const workload::RunResult& r) {
  std::string out;
  char buf[256];
  auto line = [&](const char* fmt, auto... args) {
    std::snprintf(buf, sizeof buf, fmt, args...);
    out += buf;
  };
  auto summary = [&](const char* tag, const LatencySummary& s) {
    line("%s count=%zu mean=%.17g p50=%.17g p90=%.17g p95=%.17g p99=%.17g "
         "p999=%.17g max=%.17g\n",
         tag, s.count, s.mean, s.p50, s.p90, s.p95, s.p99, s.p999, s.max);
  };
  out += "policy=" + r.policy + " scenario=" + r.scenario + "\n";
  summary("latency", r.summary.latency);
  summary("success_latency", r.summary.success_latency);
  line("success_rate=%.17g count=%zu\n", r.summary.success_rate,
       r.summary.count);
  for (const auto& b : r.timeline) {
    line("bucket start=%.17g count=%zu p50=%.17g p99=%.17g ok=%.17g "
         "rps=%.17g\n",
         b.start, b.count, b.p50, b.p99, b.success_rate, b.rps);
  }
  line("requests=%llu weight_updates=%llu mean_attempts=%.17g\n",
       static_cast<unsigned long long>(r.requests),
       static_cast<unsigned long long>(r.weight_updates), r.mean_attempts);
  for (const double share : r.traffic_share) line("share=%.17g\n", share);
  const mesh::ProxyCostStats& p = r.proxy_cost_stats;
  line("proxy handshakes=%llu pool_hits=%llu expired=%llu closed=%llu "
       "queued=%llu busy=%.17g qdelay=%.17g qmax=%.17g\n",
       static_cast<unsigned long long>(p.handshakes),
       static_cast<unsigned long long>(p.pool_hits),
       static_cast<unsigned long long>(p.expired),
       static_cast<unsigned long long>(p.closed),
       static_cast<unsigned long long>(p.queued), p.cpu_busy_total,
       p.queue_delay_total, p.queue_delay_max);
  return out;
}

}  // namespace perfbench
