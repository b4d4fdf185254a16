#include "l3/metrics/scraper.h"

#include "l3/common/assert.h"
#include "l3/obs/recorder.h"

#include <algorithm>
#include <span>

namespace l3::metrics {

void Scraper::add_target(std::string name, const Registry& registry) {
  Target target;
  target.name = std::move(name);
  target.registry = &registry;
  // emplace keeps the first entry on duplicate names, preserving the old
  // first-match lookup semantics.
  target_index_.emplace(target.name, targets_.size());
  targets_.push_back(std::move(target));
}

bool Scraper::set_target_enabled(const std::string& name, bool enabled) {
  const auto it = target_index_.find(name);
  if (it == target_index_.end()) return false;
  targets_[it->second].enabled = enabled;
  return true;
}

void Scraper::set_all_targets_enabled(bool enabled) {
  for (auto& target : targets_) target.enabled = enabled;
}

void Scraper::start(SimDuration interval) {
  L3_EXPECTS(interval > 0.0);
  stop();
  interval_ = interval;
  task_ = sim_.schedule_every(interval, [this] { scrape_once(); }, interval);
}

void Scraper::build_plan(Target& target) {
  ColumnBlock& plan = target.plan;
  plan.counters.clear();
  plan.counter_ids.clear();
  plan.gauges.clear();
  plan.gauge_ids.clear();
  plan.histograms.clear();
  plan.histogram_ids.clear();
  plan.histogram_widths.clear();
  target.registry->for_each_entry(
      [&](const std::string& key, const Counter* c) {
        plan.counters.push_back(c);
        plan.counter_ids.push_back(tsdb_.series(key));
      },
      [&](const std::string& key, const Gauge* g) {
        plan.gauges.push_back(g);
        plan.gauge_ids.push_back(tsdb_.series(key));
      },
      [&](const std::string& key, const HistogramSeries* h) {
        const HistogramId id = tsdb_.histogram_series(key);
        plan.histograms.push_back(h);
        plan.histogram_ids.push_back(id);
        plan.histogram_widths.push_back(
            static_cast<std::uint32_t>(h->bucket_count()));
        // Declared once here; steady-state appends carry only the row.
        tsdb_.set_histogram_bounds(id, h->bounds());
        if (h->bucket_count() > row_scratch_.size()) {
          row_scratch_.resize(h->bucket_count());
        }
      });
  target.planned_version = target.registry->version();
  ++plan_rebuilds_;
}

void Scraper::scrape_once() {
  const SimTime now = sim_.now();
  std::size_t series_copied = 0;
  std::size_t targets_scraped = 0;
  for (auto& target : targets_) {
    if (!target.enabled) continue;
    ++targets_scraped;
    if (target.planned_version != target.registry->version()) {
      build_plan(target);
    }
    const ColumnBlock& plan = target.plan;
    {
      const Counter* const* counters = plan.counters.data();
      const SeriesId* ids = plan.counter_ids.data();
      const std::size_t n = plan.counters.size();
      for (std::size_t i = 0; i < n; ++i) {
        tsdb_.append(ids[i], now, counters[i]->value());
      }
    }
    {
      const Gauge* const* gauges = plan.gauges.data();
      const SeriesId* ids = plan.gauge_ids.data();
      const std::size_t n = plan.gauges.size();
      for (std::size_t i = 0; i < n; ++i) {
        tsdb_.append(ids[i], now, gauges[i]->value());
      }
    }
    {
      const std::size_t n = plan.histograms.size();
      for (std::size_t i = 0; i < n; ++i) {
        const std::span<double> row(row_scratch_.data(),
                                    plan.histogram_widths[i]);
        plan.histograms[i]->write_cumulative(row);
        tsdb_.append_histogram(plan.histogram_ids[i], now, row);
      }
    }
    series_copied += plan.counters.size() + plan.gauges.size() +
                     plan.histograms.size();
  }
  // Series belonging to disabled targets receive no appends (which is where
  // per-series trimming happens); the compact call reaps them. It is O(1)
  // while nothing in the store has aged past the retention horizon.
  tsdb_.compact(now);
  ++scrapes_;
  L3_OBS_COUNT(kScraperSeries, series_copied);
  L3_OBS_GAUGE(kTsdbSeries, static_cast<double>(tsdb_.series_count() +
                                                tsdb_.histogram_series_count()));
  L3_OBS_EVENT(kMetrics, kScrape, now,
               static_cast<std::uint32_t>(targets_scraped),
               static_cast<double>(series_copied));
}

}  // namespace l3::metrics
