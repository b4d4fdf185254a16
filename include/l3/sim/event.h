// Building blocks of the allocation-free event core: `EventFn`, a move-only
// callable with small-buffer optimization sized for the closures the mesh
// hot path actually schedules (proxy hops, WAN transits, client arrivals),
// and `EventQueue`, a tiered pending-event queue whose front is an
// explicit 4-ary min-heap ordered by (time, seq).
//
// Why not std::function + std::priority_queue:
//   * std::function heap-allocates for captures beyond ~2 pointers; every
//     simulated request crosses the queue 5+ times, so those allocations
//     dominated schedule_at() profiles. EventFn stores captures up to
//     kInlineCapacity bytes in place and only falls back to the heap for
//     oversized callables.
//   * priority_queue::top() returns a const reference, forcing a const_cast
//     to move the callable out before pop(). EventQueue::dispatch_batch()
//     invokes the callable in its pool slot instead, so it never moves. And
//     a monolithic heap pays a full-depth, random-access sift-down per pop
//     once the pending set outgrows the cache; the tiered queue keeps its
//     heap small and does the rest of its bookkeeping as sequential sorts
//     and merges.
#pragma once

#include "l3/common/assert.h"
#include "l3/common/function.h"
#include "l3/common/time.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

namespace l3::sim {

/// Move-only `void()` callable with inline storage for small captures.
/// Capacity is sized for the common event shapes — `this` + a pool handle +
/// a few scalars — and, deliberately, one byte-budget step above the mesh
/// callback types (l3/mesh/types.h) so a completion callback plus a scalar
/// still schedules inline.
using EventFn = common::SmallFn<void(), 48>;

/// Tiered pending-event queue: a small 4-ary min-heap front backed by a
/// sorted run and an unsorted staging buffer (a lazy queue in the spirit of
/// Ronngren & Ayani).
///
/// The heap holds exactly the events ordered before the horizon key, so it
/// stays a few thousand entries deep and its sifts run in L1/L2 regardless
/// of how many events are pending overall. Far-future pushes append to `staging_`
/// (O(1), sequential); when the heap drains, the next batch is bulk-loaded
/// from the sorted `run_` (an ascending append is already a valid heap, so
/// the load is sift-free) and `staging_` is partitioned against the new
/// horizon. Staging is sorted and merged into the run only when it grows
/// large, so every entry is sorted once and copied O(1) times amortized —
/// sequential work instead of the full-depth random-access sift-down a
/// monolithic heap pays per pop once the pending set outgrows the cache.
///
/// Heap entries are 16 bytes — the timestamp plus the sequence number and
/// slot index packed into one u64 — so the four children of a node share a
/// single cache line. The EventFns sit in a chunked slot pool on the side,
/// their indices recycled through a free list; callables never move between
/// tiers, and are moved exactly once in their queue lifetime (in at push —
/// dispatch_batch() invokes them in place). Steady state runs
/// allocation-free: pool and buffers high-watermark at the maximum number
/// of concurrently pending events.
///
/// Determinism: the pop order is exactly ascending (time, seq). Within the
/// heap that is the sift order; across tiers it follows from the invariant
/// that the heap holds exactly the pending entries ordered strictly before
/// the (horizon_, horizon_seq_slot_) key and everything outside orders at
/// or after it — the run is sorted and staging is sorted on every flush.
/// The horizon is a full (time, seq) key rather than a bare timestamp so
/// the ordering holds for ARBITRARY interleavings of sequence numbers, not
/// just monotonically increasing ones: cross-shard mailbox commits push
/// "delivered" events whose seq encodes a shard-count-invariant
/// (origin cluster, origin sequence) key and therefore arrive out of seq
/// order at equal timestamps (see Simulator::schedule_delivered).
class EventQueue {
 public:
  bool empty() const noexcept { return size() == 0; }
  std::size_t size() const noexcept {
    return entries_.size() + (run_.size() - run_head_) + staging_.size();
  }

  /// Timestamp of the earliest event; undefined when empty. May promote a
  /// batch of events into the heap front, hence non-const.
  SimTime min_time() {
    L3_EXPECTS(!empty());
    if (entries_.empty()) refill();
    return entries_.front().time;
  }

  /// Queues `fn` at `time`. `seq` breaks timestamp ties FIFO, which is what
  /// makes equal-time events fire in scheduling order (the determinism
  /// contract).
  void push(SimTime time, std::uint64_t seq, EventFn fn) {
    L3_EXPECTS(seq <= kMaxSeq);
    std::uint32_t slot;
    if (free_slots_.empty()) {
      slot = slot_count_;
      L3_EXPECTS(slot <= kSlotMask);
      if ((slot_count_ >> kChunkShift) == chunks_.size()) {
        chunks_.emplace_back(new EventFn[kChunkSize]);
      }
      ++slot_count_;
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
    slot_ref(slot) = std::move(fn);
    const Entry entry{time, (seq << kSlotBits) | slot};
    if (before_horizon(entry)) {
      entries_.push_back(entry);
      sift_up(entries_.size() - 1);
    } else {
      staging_.push_back(entry);
      staging_min_time_ = std::min(staging_min_time_, time);
    }
  }

  /// The queue's only pop. Drains up to `max_n` events with time <= `end`
  /// in (time, seq) order, invoking `sink(time, fn) -> bool` for each with
  /// the callable still in its pool slot — no move-out. The slot is
  /// reclaimed only after the sink returns, and chunked slot storage keeps
  /// the reference valid even when the sink re-enters push() (new pushes
  /// may add a chunk but never relocate existing ones). Re-entrant pushes
  /// are observed immediately (an event scheduling at the current timestamp
  /// is popped within the same batch), and a `false` return from the sink
  /// ends the batch after that event. The order never depends on `max_n`;
  /// a larger batch only amortizes the caller's per-call overhead (one
  /// outer-loop iteration, one empty()/min_time() probe and one
  /// instrumentation record per batch). Returns the number dispatched.
  template <typename Sink>
  std::size_t dispatch_batch(SimTime end, std::size_t max_n, Sink&& sink) {
    std::size_t n = 0;
    while (n < max_n) {
      if (entries_.empty()) {
        if (empty()) break;
        refill();
      }
      const Entry top = entries_.front();
      if (top.time > end) break;
      const std::uint32_t slot =
          static_cast<std::uint32_t>(top.seq_slot & kSlotMask);
      EventFn& fn = slot_ref(slot);
#if defined(__GNUC__)
      __builtin_prefetch(&fn);
#endif
      entries_.front() = entries_.back();
      entries_.pop_back();
      if (!entries_.empty()) sift_down(0);
      const bool keep_going = sink(top.time, fn);
      fn.reset();
      free_slots_.push_back(slot);
      ++n;
      if (!keep_going) break;
    }
    return n;
  }

  void clear() noexcept {
    entries_.clear();
    run_.clear();
    run_head_ = 0;
    staging_.clear();
    staging_min_time_ = kEmptyStagingMin;
    chunks_.clear();
    slot_count_ = 0;
    free_slots_.clear();
    horizon_ = kInitialHorizon;
    horizon_seq_slot_ = 0;
  }

 private:
  // Sequence number and slot index packed into one word, seq in the high
  // bits: sequence numbers are unique, so comparing the packed word orders
  // equal-time entries FIFO exactly as comparing seq alone would. The
  // 40/24 split allows ~1.1e12 total events and ~16.7M concurrently
  // pending — both guarded by preconditions in push().
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
  static constexpr std::uint64_t kMaxSeq = (~0ull) >> kSlotBits;

  /// Events promoted into the heap per refill: deep enough to amortize the
  /// staging scan, shallow enough that the heap (16 KiB of entries) sifts
  /// entirely in L1.
  static constexpr std::size_t kRefillBatch = 1024;
  /// Staging is merged into the run once it could no longer be rescanned
  /// cheaply relative to the run it shadows.
  static constexpr std::size_t kStagingFlushMin = 2 * kRefillBatch;
  /// All initial pushes stage until the first pop establishes a horizon.
  static constexpr SimTime kInitialHorizon =
      -std::numeric_limits<SimTime>::infinity();
  static constexpr SimTime kEmptyStagingMin =
      std::numeric_limits<SimTime>::infinity();

  struct Entry {
    SimTime time;
    std::uint64_t seq_slot;
  };
  static_assert(sizeof(Entry) == 16);

  static bool earlier(const Entry& a, const Entry& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq_slot < b.seq_slot;
  }

  /// Whether `e` orders strictly before the horizon key, i.e. belongs in
  /// the heap. At equal timestamps the seq decides, so a low-seq entry
  /// pushed while its timestamp equals the horizon still overtakes the
  /// staged/run entries it must precede.
  bool before_horizon(const Entry& e) const noexcept {
    if (e.time != horizon_) return e.time < horizon_;
    return e.seq_slot < horizon_seq_slot_;
  }

  std::size_t run_remaining() const noexcept {
    return run_.size() - run_head_;
  }

  /// Sorts staging and merges it into the run (consumed prefix compacted
  /// away first). Every entry is sorted exactly once on its way through.
  void flush_staging() {
    if (staging_.empty()) return;
    run_.erase(run_.begin(),
               run_.begin() + static_cast<std::ptrdiff_t>(run_head_));
    run_head_ = 0;
    std::sort(staging_.begin(), staging_.end(), &EventQueue::earlier);
    const auto mid = run_.size();
    run_.insert(run_.end(), staging_.begin(), staging_.end());
    std::inplace_merge(run_.begin(),
                       run_.begin() + static_cast<std::ptrdiff_t>(mid),
                       run_.end(), &EventQueue::earlier);
    staging_.clear();
    staging_min_time_ = kEmptyStagingMin;
  }

  /// Heap empty but events pending elsewhere: advance the horizon and bulk-
  /// load the next batch from the run, then pull in any staged events the
  /// new horizon now covers.
  void refill() {
    if (run_remaining() <= kRefillBatch ||
        (staging_.size() >= kStagingFlushMin &&
         staging_.size() * 4 >= run_remaining())) {
      flush_staging();
    }
    if (run_head_ >= kRefillBatch * 8 && run_head_ * 2 >= run_.size()) {
      run_.erase(run_.begin(),
                 run_.begin() + static_cast<std::ptrdiff_t>(run_head_));
      run_head_ = 0;
    }
    const std::size_t take_end =
        std::min(run_head_ + kRefillBatch, run_.size());
    L3_ASSERT(take_end > run_head_);
    // Ascending appends already satisfy the heap property — no sifts.
    entries_.assign(run_.begin() + static_cast<std::ptrdiff_t>(run_head_),
                    run_.begin() + static_cast<std::ptrdiff_t>(take_end));
#if defined(__GNUC__)
    // The batch's callables were pushed long ago and their slots have gone
    // cold; touching all of them here lets the misses overlap each other
    // instead of stalling one pop at a time over the coming epoch.
    for (const Entry& e : entries_) {
      __builtin_prefetch(
          &slot_ref(static_cast<std::uint32_t>(e.seq_slot & kSlotMask)), 0, 2);
    }
#endif
    horizon_ = run_[take_end - 1].time;
    horizon_seq_slot_ = run_[take_end - 1].seq_slot;
    run_head_ = take_end;
    if (run_head_ == run_.size()) {
      run_.clear();
      run_head_ = 0;
    }
    // Staged events the horizon has caught up with belong in the heap now.
    // Staged times usually sit well past the horizon (they were too far out
    // for the previous epoch too), so the tracked minimum lets most refills
    // skip the scan outright.
    if (staging_min_time_ <= horizon_) {
      std::size_t kept = 0;
      SimTime new_min = kEmptyStagingMin;
      for (const Entry& e : staging_) {
        if (before_horizon(e)) {
          entries_.push_back(e);
          sift_up(entries_.size() - 1);
        } else {
          staging_[kept++] = e;
          new_min = std::min(new_min, e.time);
        }
      }
      staging_.resize(kept);
      staging_min_time_ = new_min;
    }
  }

  static constexpr std::size_t kArity = 4;

  void sift_up(std::size_t i) {
    const Entry moving = entries_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!earlier(moving, entries_[parent])) break;
      entries_[i] = entries_[parent];
      i = parent;
    }
    entries_[i] = moving;
  }

  void sift_down(std::size_t i) {
    const std::size_t n = entries_.size();
    const Entry moving = entries_[i];
    for (;;) {
      const std::size_t first_child = i * kArity + 1;
      if (first_child >= n) break;
      std::size_t best = first_child;
      const std::size_t last_child = std::min(first_child + kArity, n);
      for (std::size_t c = first_child + 1; c < last_child; ++c) {
        if (earlier(entries_[c], entries_[best])) best = c;
      }
      if (!earlier(entries_[best], moving)) break;
      entries_[i] = entries_[best];
      i = best;
    }
    entries_[i] = moving;
  }

  std::vector<Entry> entries_;        // the 4-ary heap front (before horizon key)
  std::vector<Entry> run_;            // sorted ascending; consumed from run_head_
  std::size_t run_head_ = 0;
  // Slot pool for the EventFns, stored in fixed-size chunks so a slot's
  // address never changes once allocated. That stability is what lets
  // dispatch_batch() hand out a reference into the pool while the callable
  // runs: re-entrant pushes can grow the pool by appending a chunk, but
  // never relocate live slots the way a flat vector's reallocation would.
  static constexpr std::size_t kChunkShift = 8;
  static constexpr std::size_t kChunkSize = 1u << kChunkShift;

  EventFn& slot_ref(std::uint32_t slot) noexcept {
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }

  std::vector<Entry> staging_;        // unsorted pushes at/after the horizon key
  SimTime staging_min_time_ = kEmptyStagingMin;
  std::vector<std::unique_ptr<EventFn[]>> chunks_;
  std::uint32_t slot_count_ = 0;
  std::vector<std::uint32_t> free_slots_;
  SimTime horizon_ = kInitialHorizon;
  /// seq_slot of the last entry loaded into the heap: together with
  /// horizon_ it forms the full (time, seq) key that before_horizon()
  /// compares against, so equal-time pushes land on the correct side.
  std::uint64_t horizon_seq_slot_ = 0;
};

}  // namespace l3::sim
