// Discrete-event simulation core. This substrate replaces the paper's EC2 /
// Kubernetes testbed: every other subsystem (mesh, metrics scraping, the L3
// control loops, workload generators) is driven by events scheduled here.
//
// The simulator is deliberately single-threaded and deterministic: events at
// equal timestamps fire in scheduling order, so a given (topology, scenario,
// seed) triple always reproduces the identical request trace (pinned by
// tests/sim_determinism_test.cpp).
//
// Hot-path design (see include/l3/sim/event.h): events are EventFns with
// inline storage for small captures, queued in a tiered EventQueue (a 4-ary
// heap front, a sorted run and an unsorted staging area).
// Periodic tasks keep their callback in a single heap-allocated control
// block for their whole lifetime and reschedule in place — the nth firing
// lands at exactly `first + n * interval`, so co-periodic tasks (5 s control
// ticks vs 5 s scrape ticks) never drift apart over long runs.
#pragma once

#include "l3/common/assert.h"
#include "l3/common/time.h"
#include "l3/sim/event.h"

#include <cstdint>
#include <memory>

namespace l3::sim {

namespace detail {
/// Control block of one periodic task. Allocated once per schedule_every()
/// and shared by the in-flight event and any PeriodicHandles; the callback
/// is never re-wrapped between firings.
struct PeriodicTask {
  EventFn fn;
  SimDuration interval = 0.0;
  SimTime first = 0.0;     ///< time of firing 0
  std::uint64_t fired = 0; ///< completed firings
  bool cancelled = false;
};
}  // namespace detail

/// Cancellation handle for a periodic task. Destroying the handle does NOT
/// cancel the task (handles are observers); call `cancel()` explicitly.
class PeriodicHandle {
 public:
  PeriodicHandle() = default;

  /// Stops future firings. Safe to call repeatedly or on a default handle.
  void cancel() {
    if (task_) task_->cancelled = true;
  }

  bool active() const { return task_ && !task_->cancelled; }

 private:
  friend class Simulator;
  explicit PeriodicHandle(std::shared_ptr<detail::PeriodicTask> task)
      : task_(std::move(task)) {}
  std::shared_ptr<detail::PeriodicTask> task_;
};

/// The event loop: a virtual clock plus a time-ordered queue of callbacks.
class Simulator {
 public:
  using EventFn = sim::EventFn;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time in seconds.
  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute time `t` (>= now).
  void schedule_at(SimTime t, EventFn fn);

  /// Schedules `fn` after `delay` (>= 0) seconds.
  void schedule_after(SimDuration delay, EventFn fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  /// Schedules a cross-shard delivery at absolute time `t` (>= now) under a
  /// shard-count-invariant sequence key instead of this simulator's local
  /// counter: the event's queue seq encodes (origin cluster, origin
  /// sequence), both assigned on the ORIGIN shard, so the pop order among
  /// deliveries — and between deliveries and local events — is identical no
  /// matter how clusters are grouped onto shards or when the mailbox commit
  /// happened to run. Delivered seqs sit above every local seq
  /// (kDeliveredSeqBase), so at equal timestamps local events fire first;
  /// that too is partition-invariant. Requires `origin_cluster` < 2^8 and
  /// `origin_seq` < 2^31.
  void schedule_delivered(SimTime t, std::uint32_t origin_cluster,
                          std::uint32_t origin_seq, EventFn fn);

  /// Local seqs live strictly below this; delivered seqs at/above it.
  static constexpr std::uint64_t kDeliveredSeqBase = 1ull << 39;
  static constexpr unsigned kDeliveredClusterBits = 8;
  static constexpr unsigned kDeliveredSeqBits = 31;

  /// Schedules `fn` every `interval` seconds, first firing at
  /// `now + initial_delay`. Returns a handle to cancel the task.
  PeriodicHandle schedule_every(SimDuration interval, EventFn fn,
                                SimDuration initial_delay = 0.0);

  /// Runs events until the queue is empty or the clock would pass `end`.
  /// The clock is left at `end` (or at the last event if the queue drained).
  /// Returns the number of events processed.
  ///
  /// Events are drained in dispatch batches of up to dispatch_batch()
  /// events (EventQueue::dispatch_batch): identical event order, one
  /// outer-loop iteration and one instrumentation record per batch.
  std::size_t run_until(SimTime end);

  /// Convenience: run_until(now() + duration).
  std::size_t run_for(SimDuration duration) { return run_until(now_ + duration); }

  /// Processes a single event, if any; returns whether one was processed.
  /// A dispatch batch of one with no end time: the same pop run_until makes.
  bool step();

  /// Requests the current run_until call to return after the in-flight
  /// event finishes.
  void stop() { stop_requested_ = true; }

  /// Default dispatch-batch size: deep enough to amortize the outer loop,
  /// far shallower than any point where latency-to-stop() could matter
  /// (stop() still takes effect after the in-flight event).
  static constexpr std::size_t kDefaultDispatchBatch = 64;

  /// Sets the max events drained per dispatch batch (clamped to >= 1).
  /// Batching never reorders events; 1 drains one event per batch, the
  /// same single pop step() makes.
  void set_dispatch_batch(std::size_t n) {
    dispatch_batch_ = n < 1 ? 1 : n;
  }
  std::size_t dispatch_batch() const { return dispatch_batch_; }

  /// Number of events currently pending.
  std::size_t pending() const { return queue_.size(); }

  /// Total number of events executed since construction.
  std::uint64_t executed() const { return executed_; }

 private:
  void fire_periodic(const std::shared_ptr<detail::PeriodicTask>& task);
  void schedule_periodic_firing(std::shared_ptr<detail::PeriodicTask> task,
                                SimTime at);

  EventQueue queue_;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t dispatch_batch_ = kDefaultDispatchBatch;
  bool stop_requested_ = false;
};

}  // namespace l3::sim
