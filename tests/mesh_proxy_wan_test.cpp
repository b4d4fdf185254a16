// Tests for the proxy's single WAN discipline: both transit legs are drawn
// on the proxy's stream at send time, and the transport (direct scheduling
// on the mesh's simulator vs keyed posting through a shard router) changes
// how the legs travel, never what is drawn. Traced sends on an unrouted
// mesh record WAN-out, server and WAN-in spans that tile the proxy span.
#include "l3/mesh/mesh.h"

#include "l3/sim/shard_engine.h"
#include "l3/sim/simulator.h"
#include "l3/trace/tracer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

namespace l3::mesh {
namespace {

/// Sends `n` requests from cluster 0 to a service deployed in both
/// clusters of a two-cluster mesh and returns the sorted client-side
/// latencies. With `routed`, the mesh posts both WAN legs through a 1-shard
/// engine's router; otherwise it schedules them on the simulator directly.
std::vector<double> sorted_latencies(bool routed, int n) {
  sim::Simulator sim;
  sim::ShardEngine engine(1);
  engine.set_cluster_owners({0, 0});
  MeshConfig config;
  config.health_probe_interval = 0.0;
  if (routed) config.shard_router = &engine.router(0);
  Mesh mesh(sim, SplitRng(5), config);
  const ClusterId c1 = mesh.add_cluster("c1");
  const ClusterId c2 = mesh.add_cluster("c2");
  mesh.wan().set_symmetric(c1, c2, {.base = 0.010, .jitter_frac = 0.2});
  // Ample concurrency: no request ever queues, so each latency is exactly
  // outbound + service + inbound.
  DeploymentConfig deployment;
  deployment.replicas = 2;
  deployment.concurrency = 1000;
  for (const ClusterId c : {c1, c2}) {
    mesh.deploy("svc", c, deployment,
                std::make_unique<FixedLatencyBehavior>(0.005, 0.020));
  }

  std::vector<double> latencies;
  for (int i = 0; i < n; ++i) {
    sim.schedule_at(0.0025 * i, [&mesh, &latencies, c1] {
      mesh.call(c1, "svc", 0, [&latencies](const Response& r) {
        latencies.push_back(r.latency);
      });
    });
  }
  const SimTime end = 0.0025 * n + 5.0;
  if (routed) {
    sim::ShardRouter& router = engine.router(0);
    router.attach(sim);
    engine.run([&router, end](std::size_t) { router.run_until(end); });
  } else {
    sim.run_until(end);
  }
  std::sort(latencies.begin(), latencies.end());
  return latencies;
}

TEST(ProxyWan, TransportDoesNotChangeDraws) {
  const std::vector<double> direct = sorted_latencies(false, 400);
  const std::vector<double> routed = sorted_latencies(true, 400);
  ASSERT_EQ(direct.size(), 400u);
  EXPECT_EQ(routed, direct);
}

TEST(ProxyWan, TracedSpansTileTheProxySpan) {
  sim::Simulator sim;
  MeshConfig config;
  config.health_probe_interval = 0.0;  // cost model stays off (defaults)
  Mesh mesh(sim, SplitRng(9), config);
  const ClusterId c1 = mesh.add_cluster("c1");
  const ClusterId c2 = mesh.add_cluster("c2");
  mesh.wan().set_symmetric(c1, c2, {.base = 0.010, .jitter_frac = 0.2});
  for (const ClusterId c : {c1, c2}) {
    mesh.deploy("svc", c, {},
                std::make_unique<FixedLatencyBehavior>(0.005, 0.020));
  }
  trace::TracerConfig tracer_config;
  tracer_config.sampling = trace::SamplingMode::kRatio;
  trace::Tracer tracer(sim, tracer_config);
  mesh.set_tracer(&tracer);

  constexpr int kRequests = 50;
  for (int i = 0; i < kRequests; ++i) {
    sim.schedule_at(0.01 * i, [&] {
      const trace::SpanContext root = tracer.start_trace("req", "c1", "svc");
      mesh.call(c1, "svc", 0, root,
                [&tracer, root](const Response&) { tracer.end_trace(root); });
    });
  }
  sim.run_until(10.0);
  ASSERT_EQ(tracer.traces().size(), static_cast<std::size_t>(kRequests));

  for (const trace::TraceRecord& record : tracer.traces()) {
    const trace::Span* proxy = nullptr;
    for (const trace::Span& span : record.spans) {
      if (span.kind == trace::SpanKind::kProxy) proxy = &span;
    }
    ASSERT_NE(proxy, nullptr);
    std::vector<const trace::Span*> wans;
    const trace::Span* server = nullptr;
    for (const trace::Span& span : record.spans) {
      if (span.parent_id != proxy->span_id) continue;
      if (span.kind == trace::SpanKind::kWan) wans.push_back(&span);
      if (span.kind == trace::SpanKind::kService) server = &span;
    }
    ASSERT_EQ(wans.size(), 2u);
    ASSERT_NE(server, nullptr);
    std::sort(wans.begin(), wans.end(),
              [](const trace::Span* a, const trace::Span* b) {
                return a->start < b->start;
              });
    const trace::Span& out = *wans[0];
    const trace::Span& in = *wans[1];
    EXPECT_EQ(out.start, proxy->start);
    EXPECT_EQ(out.end, server->start);
    EXPECT_EQ(in.start, server->end);
    EXPECT_EQ(in.end, proxy->end);
    EXPECT_LT(out.start, out.end);
    EXPECT_LT(in.start, in.end);
  }
}

}  // namespace
}  // namespace l3::mesh
