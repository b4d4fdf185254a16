// Chrome trace export of obs snapshots: a golden byte-for-byte trace with
// counter tracks ("C" events), gauge tracks, and flight-recorder ring
// instants, rendered through trace::write_chrome_trace, which appends the
// obs process after the span/fault processes. The golden works under any
// L3_OBS setting because it drives the always-compiled Shard API directly.
#include "l3/obs/export.h"

#include "l3/obs/recorder.h"
#include "l3/trace/export.h"

#include <gtest/gtest.h>

#include <deque>
#include <sstream>

namespace l3::obs {
namespace {

Recorder make_golden_recorder() {
  RecorderConfig config;
  config.ring_capacity = 4;
  return Recorder(config);
}

void populate_golden(Recorder& recorder) {
  ScopedRecorderBind bind(recorder);
  Shard* shard = local_shard();
  ASSERT_NE(shard, nullptr);
  shard->add(CounterId::kSimEvents, 3);
  shard->set_gauge(GaugeId::kMeshInflight, 2.0);
  recorder.sample_tracks(1.0);
  shard->event(Domain::kMesh, 2.5, EventCode::kPickerRebuild, 7, 3.0);
}

/// The trace document holding only the snapshot's obs process.
std::string render(const Snapshot& snapshot) {
  std::ostringstream os;
  trace::write_chrome_trace({}, {}, &snapshot, os);
  return os.str();
}

TEST(ObsExport, GoldenChromeTraceWithCounterTracks) {
  Recorder recorder = make_golden_recorder();
  populate_golden(recorder);
  const std::string expected =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"obs\"}},\n"
      "{\"name\":\"rt.counter.sim.events\",\"ph\":\"C\",\"ts\":1000000.000,"
      "\"pid\":0,\"tid\":0,\"args\":{\"value\":3}},\n"
      "{\"name\":\"rt.gauge.mesh.inflight\",\"ph\":\"C\",\"ts\":1000000.000,"
      "\"pid\":0,\"tid\":0,\"args\":{\"value\":2}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":2,"
      "\"args\":{\"name\":\"ring:mesh\"}},\n"
      "{\"name\":\"rt.event.mesh.picker_rebuild\",\"cat\":\"obs\","
      "\"ph\":\"i\",\"s\":\"t\",\"ts\":2500000.000,\"pid\":0,\"tid\":2,"
      "\"args\":{\"arg\":7,\"value\":3}}\n"
      "]}\n";
  EXPECT_EQ(render(recorder.snapshot()), expected);
}

TEST(ObsExport, GoldenTraceIsReproducible) {
  std::string renders[2];
  for (std::string& out : renders) {
    Recorder recorder = make_golden_recorder();
    populate_golden(recorder);
    out = render(recorder.snapshot());
  }
  EXPECT_EQ(renders[0], renders[1]);
}

TEST(ObsExport, EmptySnapshotStillNamesTheProcess) {
  Recorder recorder;
  EXPECT_EQ(render(recorder.snapshot()),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
            "\"args\":{\"name\":\"obs\"}}\n"
            "]}\n");
}

TEST(ObsExport, CombinedTraceOverloadAppendsObsProcess) {
  Recorder recorder = make_golden_recorder();
  populate_golden(recorder);
  const Snapshot snapshot = recorder.snapshot();

  const std::deque<trace::TraceRecord> traces;
  std::ostringstream with_obs;
  trace::write_chrome_trace(traces, {}, &snapshot, with_obs);
  const std::string combined = with_obs.str();
  EXPECT_NE(combined.find("\"name\":\"obs\""), std::string::npos);
  EXPECT_NE(combined.find("rt.counter.sim.events"), std::string::npos);
  EXPECT_NE(combined.find("rt.event.mesh.picker_rebuild"), std::string::npos);

  // A null snapshot renders no obs process.
  std::ostringstream without_obs;
  trace::write_chrome_trace(traces, {}, nullptr, without_obs);
  EXPECT_EQ(without_obs.str().find("\"name\":\"obs\""), std::string::npos);
}

}  // namespace
}  // namespace l3::obs
