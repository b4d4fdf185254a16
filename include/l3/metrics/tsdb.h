// A miniature Prometheus: timestamped sample storage plus the query
// functions L3 uses — `rate()`/`increase()` over a trailing window, gauge
// averaging, and `histogram_quantile()` over bucket-rate vectors. The L3
// controller reads ONLY from here (never from live registries), reproducing
// the 5 s scrape / 10 s window staleness the paper discusses in §4.
//
// Hot-path design: series names are interned once into SeriesId /
// HistogramId handles (TimeSeriesDb::series / histogram_series); the
// scraper and controller cache those ids, so steady-state appends and
// queries do zero string hashing or comparison. Samples live in
// power-of-two ring buffers (SampleRing); histogram bucket rows live in a
// contiguous columnar slab (RowRing) so an append is a row memcpy, not a
// per-sample vector allocation. Appends and queries take only interned
// ids; a caller resolves a name once through series() / histogram_series().
//
// Window folds are incremental: each series carries a WindowCursor caching
// the [first, end) sample span of the last query as ABSOLUTE sequence
// numbers (SampleRing::popped()-based, so retention trims can't re-point
// it). The controller always asks with the same window and monotonically
// increasing `now`, so steady-state queries advance the cursor a step or
// two instead of re-running two binary searches per query; a different
// window or a backwards `now` falls back to the binary search and reseeds
// the cursor. The fold only locates window boundaries — the arithmetic on
// the samples inside (rate endpoints, avg summation order, quantile bucket
// deltas) is unchanged, which is what keeps every output byte identical.
#pragma once

#include "l3/common/time.h"
#include "l3/metrics/sample_ring.h"

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace l3::metrics {

/// Interned handle to one scalar (counter/gauge) series. Cheap to copy;
/// valid for the lifetime of the TimeSeriesDb that issued it.
class SeriesId {
 public:
  SeriesId() = default;
  bool valid() const { return index_ != kInvalid; }
  friend bool operator==(SeriesId a, SeriesId b) {
    return a.index_ == b.index_;
  }

 private:
  friend class TimeSeriesDb;
  explicit SeriesId(std::uint32_t index) : index_(index) {}
  static constexpr std::uint32_t kInvalid = 0xffffffffu;
  std::uint32_t index_ = kInvalid;
};

/// Interned handle to one histogram series.
class HistogramId {
 public:
  HistogramId() = default;
  bool valid() const { return index_ != kInvalid; }
  friend bool operator==(HistogramId a, HistogramId b) {
    return a.index_ == b.index_;
  }

 private:
  friend class TimeSeriesDb;
  explicit HistogramId(std::uint32_t index) : index_(index) {}
  static constexpr std::uint32_t kInvalid = 0xffffffffu;
  std::uint32_t index_ = kInvalid;
};

/// Time-series database with per-series retention trimming.
class TimeSeriesDb {
 public:
  /// @param retention  samples older than now − retention are dropped on
  ///                   append (default generous enough for 10 s windows
  ///                   while bounding memory over 20-minute runs).
  explicit TimeSeriesDb(SimDuration retention = 120.0)
      : retention_(retention) {}

  // ---- Series interning -------------------------------------------------

  /// Interns `name` as a scalar series and returns its stable handle.
  /// Idempotent: the same name always yields the same id.
  SeriesId series(std::string_view name);

  /// Interns `name` as a histogram series.
  HistogramId histogram_series(std::string_view name);

  // ---- Appends ----------------------------------------------------------

  /// Appends a scalar (counter or gauge) sample.
  void append(SeriesId id, SimTime t, double value);

  /// Declares the bucket bounds of a histogram series: stored on first
  /// call, verified to match on every later one. Idempotent; the scraper
  /// calls this once per plan rebuild so steady-state appends don't carry
  /// (or compare) the bounds vector at all.
  void set_histogram_bounds(HistogramId id, std::span<const double> bounds);

  /// Bounds previously declared for the series (empty if none yet).
  std::span<const double> histogram_bounds(HistogramId id) const;

  /// Appends a histogram sample: the cumulative bucket counts at time t,
  /// one contiguous row of `histogram_bounds(id).size() + 1` values (the
  /// last being the +Inf total). Bounds must have been declared first.
  void append_histogram(HistogramId id, SimTime t,
                        std::span<const double> cumulative_counts);

  // ---- Queries ----------------------------------------------------------

  /// Per-second rate of increase of a counter over [now − window, now].
  /// Needs at least two samples in the window (the paper's reason for the
  /// 10 s window at a 5 s scrape interval); std::nullopt otherwise.
  std::optional<double> rate(SeriesId id, SimDuration window,
                             SimTime now) const;

  /// Absolute increase of a counter over the window (rate × elapsed).
  std::optional<double> increase(SeriesId id, SimDuration window,
                                 SimTime now) const;

  /// Mean of gauge samples in the window; std::nullopt if none.
  std::optional<double> avg(SeriesId id, SimDuration window,
                            SimTime now) const;

  /// Most recent sample value within the window; std::nullopt if none.
  std::optional<double> last(SeriesId id, SimDuration window,
                             SimTime now) const;

  /// Prometheus-style `histogram_quantile(q, rate(buckets[window]))`.
  /// std::nullopt when fewer than two samples exist or no requests were
  /// observed in the window.
  std::optional<double> quantile(HistogramId id, double q, SimDuration window,
                                 SimTime now) const;

  // ---- Maintenance / introspection --------------------------------------

  /// Drops every sample older than now − retention. Series only trim
  /// themselves on append, so a series that stops receiving samples
  /// (disabled scrape target, removed backend) would otherwise pin its
  /// stale samples forever; the scraper calls this once per scrape.
  ///
  /// Amortized: a global oldest-sample watermark makes the call O(1) when
  /// nothing can be stale, and the sweep skips already-fresh series with a
  /// single timestamp comparison each.
  void compact(SimTime now);

  /// Number of scalar series holding at least one sample. (Interned ids
  /// stay valid forever; a series whose samples all age out no longer
  /// counts here, matching the old erase-on-empty semantics.)
  std::size_t series_count() const { return nonempty_scalars_; }

  /// Number of histogram series holding at least one sample.
  std::size_t histogram_series_count() const { return nonempty_histograms_; }

  /// Stored sample count of one scalar series (0 for an invalid id).
  std::size_t sample_count(SeriesId id) const;

  /// Stored sample count of one histogram series (0 for an invalid id).
  std::size_t histogram_sample_count(HistogramId id) const;

  SimDuration retention() const { return retention_; }

  /// Window-fold cursor statistics, for tests and the control_plane bench:
  /// a "hit" is a query answered by advancing a cached cursor, a "rebuild"
  /// is a query that had to fall back to the two binary searches (first
  /// query of a series, window change, or non-monotone `now`).
  std::uint64_t cursor_hits() const { return cursor_hits_; }
  std::uint64_t cursor_rebuilds() const { return cursor_rebuilds_; }

 private:
  struct ScalarSample {
    SimTime t = 0.0;
    double v = 0.0;
  };
  /// Cached window span of the most recent query against one series, in
  /// absolute sample sequences (see SampleRing::popped()). Valid for a new
  /// query iff the window matches and `now` did not go backwards; then the
  /// span only needs advancing forward past newly-expired / newly-appended
  /// samples.
  struct WindowCursor {
    SimDuration window = -1.0;  ///< -1 never matches a real (positive) window
    SimTime last_now = 0.0;
    std::uint64_t first = 0;  ///< seq of first sample with t >= now - window
    std::uint64_t end = 0;    ///< seq one past the last sample with t <= now
  };
  struct ScalarSeries {
    std::string name;
    SampleRing<ScalarSample> samples;
    mutable WindowCursor cursor;
  };
  /// Columnar histogram series: timestamps in one ring, cumulative bucket
  /// rows in a parallel fixed-width slab ring (kept in lockstep).
  struct HistoSeries {
    std::string name;
    std::vector<double> bounds;
    bool bounds_set = false;
    SampleRing<SimTime> times;
    RowRing rows;
    mutable WindowCursor cursor;
  };

  /// Heterogeneous hashing so string_view lookups don't allocate.
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  using NameIndex =
      std::unordered_map<std::string, std::uint32_t, StringHash,
                         std::equal_to<>>;

  /// Lowers the global oldest-sample watermark for a series whose first
  /// sample just landed at time t.
  void note_new_front(SimTime t) {
    if (t < oldest_sample_) oldest_sample_ = t;
  }

  /// Locates the window [now - window, now] in a time-ordered sequence via
  /// the series' cursor (advance) or binary search (reseed). Returns the
  /// logical [first, last] index pair, or nullopt if fewer than
  /// `min_samples` samples fall inside.
  template <typename GetTime>
  std::optional<std::pair<std::size_t, std::size_t>> fold_window(
      WindowCursor& cursor, std::size_t count, std::uint64_t base,
      GetTime time_at, SimDuration window, SimTime now,
      std::size_t min_samples) const;

  std::vector<ScalarSeries> scalars_;
  std::vector<HistoSeries> histograms_;
  NameIndex scalar_index_;
  NameIndex histogram_index_;
  /// Reused scratch for quantile bucket deltas (sized to the widest row
  /// queried); avoids a vector allocation per quantile query.
  mutable std::vector<double> delta_scratch_;
  mutable std::uint64_t cursor_hits_ = 0;
  mutable std::uint64_t cursor_rebuilds_ = 0;
  std::size_t nonempty_scalars_ = 0;
  std::size_t nonempty_histograms_ = 0;
  /// Lower bound on the oldest sample timestamp across ALL series; compact
  /// is a no-op while `oldest_sample_ >= now - retention`. Refreshed to the
  /// exact minimum by each sweep.
  SimTime oldest_sample_ = kNoSamples;
  static constexpr SimTime kNoSamples = 1e300;
  SimDuration retention_;
};

}  // namespace l3::metrics
