// Tests for the trace exporters and the latency-breakdown analysis: JSON
// escaping, Chrome trace-event output (validity + a golden check), the
// critical-path walk and its per-kind attribution.
#include "l3/trace/breakdown.h"
#include "l3/trace/export.h"

#include "l3/sim/simulator.h"
#include "test_json.h"

#include <gtest/gtest.h>

#include <deque>

namespace l3::trace {
namespace {

using l3::testing::JsonValidator;

Span make_span(std::uint64_t id, std::uint64_t parent, SpanKind kind,
               const char* name, const char* cluster, SimTime start,
               SimTime end) {
  Span span;
  span.span_id = id;
  span.parent_id = parent;
  span.kind = kind;
  span.status = SpanStatus::kOk;
  span.name = name;
  span.cluster = cluster;
  span.service = "api";
  span.start = start;
  span.end = end;
  return span;
}

/// root [0, 0.100]
///   ├ proxy [0.001, 0.099]
///   │   ├ wan out [0.001, 0.006]
///   │   ├ server [0.006, 0.094]
///   │   │   └ queue [0.006, 0.010]
///   │   └ wan back [0.094, 0.099]
TraceRecord make_trace() {
  TraceRecord trace;
  trace.trace_id = 1;
  trace.root_name = "req";
  trace.start = 0.0;
  trace.end = 0.100;
  trace.latency = 0.100;
  trace.status = SpanStatus::kOk;
  trace.spans.push_back(
      make_span(1, 0, SpanKind::kClient, "req", "c1", 0.0, 0.100));
  trace.spans.push_back(
      make_span(2, 1, SpanKind::kProxy, "proxy:api", "c1", 0.001, 0.099));
  trace.spans.push_back(
      make_span(3, 2, SpanKind::kWan, "wan:c1->c2", "c1", 0.001, 0.006));
  trace.spans.push_back(
      make_span(4, 2, SpanKind::kService, "server:api", "c2", 0.006, 0.094));
  trace.spans.push_back(
      make_span(5, 4, SpanKind::kQueue, "queue", "c2", 0.006, 0.010));
  trace.spans.push_back(
      make_span(6, 2, SpanKind::kWan, "wan:c2->c1", "c1", 0.094, 0.099));
  return trace;
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string_view("a\x01z", 3)), "a\\u0001z");
}

TEST(ChromeTrace, OutputIsValidJson) {
  std::deque<TraceRecord> traces{make_trace(), make_trace()};
  traces[1].trace_id = 2;
  traces[1].root_name = "odd \"name\"\n";
  traces[1].spans[0].name = traces[1].root_name;
  std::ostringstream os;
  write_chrome_trace(traces, {}, nullptr, os);
  EXPECT_TRUE(JsonValidator::valid(os.str())) << os.str();
}

TEST(ChromeTrace, EmptyBufferIsValidJson) {
  std::ostringstream os;
  write_chrome_trace({}, {}, nullptr, os);
  EXPECT_TRUE(JsonValidator::valid(os.str())) << os.str();
}

TEST(ChromeTrace, GoldenSingleSpan) {
  TraceRecord trace;
  trace.trace_id = 1;
  trace.root_name = "req";
  trace.start = 0.0;
  trace.end = 0.001;
  trace.latency = 0.001;
  trace.status = SpanStatus::kOk;
  Span root = make_span(1, 0, SpanKind::kClient, "req", "c1", 0.0, 0.001);
  trace.spans.push_back(root);
  std::ostringstream os;
  write_chrome_trace({trace}, {}, nullptr, os);
  EXPECT_EQ(os.str(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
            "\"args\":{\"name\":\"trace 1: req (1.000 ms, ok)\"}},\n"
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
            "\"args\":{\"name\":\"req\"}},\n"
            "{\"name\":\"req\",\"cat\":\"client\",\"ph\":\"X\",\"ts\":0.000,"
            "\"dur\":1000.000,\"pid\":0,\"tid\":0,\"args\":{\"trace_id\":1,"
            "\"span_id\":1,\"parent_id\":0,\"cluster\":\"c1\",\"service\":"
            "\"api\",\"status\":\"ok\"}}\n"
            "]}\n");
}

TEST(ChromeTrace, FaultMarkersRenderAsGlobalInstants) {
  std::deque<TraceRecord> traces{make_trace()};
  const std::vector<FaultMarker> markers = {
      {0.050, "crash:api@c2", "begin"},
      {0.090, "crash:api@c2", "end"},
  };
  std::ostringstream os;
  write_chrome_trace(traces, markers, nullptr, os);
  const std::string text = os.str();
  EXPECT_TRUE(JsonValidator::valid(text)) << text;
  // Markers land in a dedicated "faults" process one pid past the traces,
  // as global-scope instant events.
  EXPECT_NE(text.find("\"name\":\"faults\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"crash:api@c2\",\"cat\":\"fault\","
                      "\"ph\":\"i\",\"s\":\"g\",\"ts\":50000.000,\"pid\":1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\"phase\":\"begin\""), std::string::npos);
  EXPECT_NE(text.find("\"phase\":\"end\""), std::string::npos);
}

TEST(ChromeTrace, EventsCarrySpanArgs) {
  std::deque<TraceRecord> traces{make_trace()};
  std::ostringstream os;
  write_chrome_trace(traces, {}, nullptr, os);
  const std::string text = os.str();
  EXPECT_NE(text.find("\"cat\":\"wan\""), std::string::npos);
  EXPECT_NE(text.find("\"cat\":\"queue\""), std::string::npos);
  EXPECT_NE(text.find("\"parent_id\":2"), std::string::npos);
  EXPECT_NE(text.find("\"cluster\":\"c2\""), std::string::npos);
}

TEST(CriticalPath, VisitsTheGatingChain) {
  const TraceRecord trace = make_trace();
  const auto path = critical_path(trace);
  // root → proxy → wan back → server → queue → wan out: every span here
  // gates the completion except none is skipped in this simple chain.
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path[0], 0u);  // root first
  EXPECT_EQ(path[1], 1u);  // the proxy span
}

TEST(CriticalPath, SkipsSpansThatDidNotGateCompletion) {
  // Two parallel children; only the slower one is on the critical path.
  TraceRecord trace;
  trace.trace_id = 1;
  trace.latency = 0.100;
  trace.spans.push_back(
      make_span(1, 0, SpanKind::kClient, "root", "c1", 0.0, 0.100));
  trace.spans.push_back(
      make_span(2, 1, SpanKind::kService, "fast", "c1", 0.0, 0.030));
  trace.spans.push_back(
      make_span(3, 1, SpanKind::kService, "slow", "c1", 0.0, 0.100));
  const auto path = critical_path(trace);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0], 0u);
  EXPECT_EQ(path[1], 2u);  // index of "slow"
}

TEST(Attribution, BucketsSumToRootLatency) {
  const TraceRecord trace = make_trace();
  const TraceAttribution a = attribute_critical_path(trace);
  EXPECT_DOUBLE_EQ(a.total, 0.100);
  // WAN: two transits of 5 ms each.
  EXPECT_NEAR(a.wan, 0.010, 1e-9);
  // Queue: 4 ms inside the server span.
  EXPECT_NEAR(a.queue, 0.004, 1e-9);
  // Service: server span minus queue child = 88 - 4 = 84 ms.
  EXPECT_NEAR(a.service, 0.084, 1e-9);
  // Client self-time: 1 ms before the proxy + 1 ms after.
  EXPECT_NEAR(a.client, 0.002, 1e-9);
  const double sum = a.wan + a.queue + a.service + a.proxy + a.client + a.other;
  EXPECT_NEAR(sum, a.total, 1e-9);
}

TEST(Breakdown, SummaryRowsAndShares) {
  std::deque<TraceRecord> traces{make_trace()};
  const BreakdownSummary summary = summarize_breakdown(traces);
  EXPECT_EQ(summary.trace_count, 1u);
  ASSERT_EQ(summary.rows.size(), 7u);
  EXPECT_EQ(summary.rows[0].category, "wan");
  EXPECT_EQ(summary.rows[6].category, "total");
  EXPECT_NEAR(summary.rows[0].share, 0.10, 1e-6);   // 10 ms of 100
  EXPECT_NEAR(summary.rows[2].share, 0.84, 1e-6);   // service
  EXPECT_NEAR(summary.rows[6].p50, 0.100, 1e-9);
}

}  // namespace
}  // namespace l3::trace
