#include "l3/obs/export.h"

#include <cstdio>
#include <ostream>
#include <string>

namespace l3::obs {
namespace {

/// Microseconds, the unit of the Chrome trace-event `ts` field; fixed-point
/// so trace viewers never see exponent notation.
std::string fmt_us(SimTime seconds) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e6);
  return buf;
}

/// Counter values are exact event counts (u64-derived doubles) and gauge
/// samples are small integers; %.17g round-trips them without noise.
std::string fmt_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void write_event_prefix(std::ostream& os, bool& first) {
  if (!first) os << ",\n";
  first = false;
}

// All obs names are compile-time constants drawn from [a-z0-9._] — no JSON
// escaping required (checked by the naming conventions in DESIGN.md §12).

}  // namespace

void write_chrome_fragment(const Snapshot& snapshot, std::size_t pid,
                           bool& first, std::ostream& os) {
  write_event_prefix(os, first);
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
     << ",\"tid\":0,\"args\":{\"name\":\"obs\"}}";

  // Counter tracks: one "C" event per sample; Chrome groups them by name
  // into per-series tracks within the obs process.
  for (const TrackSample& sample : snapshot.tracks) {
    const std::string_view name =
        sample.is_gauge ? gauge_name(static_cast<GaugeId>(sample.id))
                        : counter_name(static_cast<CounterId>(sample.id));
    write_event_prefix(os, first);
    os << "{\"name\":\"" << name << "\",\"ph\":\"C\",\"ts\":"
       << fmt_us(sample.time) << ",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"value\":" << fmt_value(sample.value)
       << "}}";
  }

  // Flight-recorder rings: one thread lane per domain, events as thread-
  // scoped instants carrying the structured payload in args.
  std::size_t tid = 0;
  for (const Snapshot::Ring& ring : snapshot.rings) {
    ++tid;  // tid 0 is the counter-track lane
    if (ring.events.empty()) continue;
    write_event_prefix(os, first);
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":" << tid << ",\"args\":{\"name\":\"ring:" << ring.domain
       << "\"}}";
    for (const RtEvent& event : ring.events) {
      write_event_prefix(os, first);
      os << "{\"name\":\"" << event_code_name(event.code)
         << "\",\"cat\":\"obs\",\"ph\":\"i\",\"s\":\"t\",\"ts\":"
         << fmt_us(event.time) << ",\"pid\":" << pid << ",\"tid\":" << tid
         << ",\"args\":{\"arg\":" << event.arg
         << ",\"value\":" << fmt_value(event.value) << "}}";
    }
  }
}

}  // namespace l3::obs
