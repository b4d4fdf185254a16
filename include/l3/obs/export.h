// Chrome trace-event rendering for obs snapshots. The fragment writer emits
// counter tracks ("C" phase — Perfetto draws them as stacked area charts)
// for `rt.counter.*` / `rt.gauge.*` samples plus the flight-recorder ring
// events as instants, all inside a dedicated "obs" process.
// trace::write_chrome_trace composes this alongside request spans and fault
// markers into one document.
#pragma once

#include "l3/obs/recorder.h"

#include <cstddef>
#include <iosfwd>

namespace l3::obs {

/// Appends the snapshot's counter tracks and ring events to an open Chrome
/// `traceEvents` array under process id `pid`. `first` is the caller's
/// comma-separator state (true before the first event in the array).
/// Deterministic given the snapshot: track samples are in sim time, ring
/// events sorted by sim time, and no wall-clock values are rendered.
void write_chrome_fragment(const Snapshot& snapshot, std::size_t pid,
                           bool& first, std::ostream& os);

}  // namespace l3::obs
