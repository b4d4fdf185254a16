#include "l3/mesh/proxy.h"

#include "l3/common/assert.h"
#include "l3/mesh/mesh.h"
#include "l3/mesh/metric_names.h"
#include "l3/obs/recorder.h"
#include "l3/sim/shard_engine.h"
#include "l3/trace/tracer.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

namespace l3::mesh {

Proxy::Proxy(sim::Simulator& sim, const WanModel& wan, ClusterId source,
             TrafficSplit& split, std::vector<ServiceDeployment*> deployments,
             metrics::Registry& registry, const HealthChecker* health,
             SplitRng rng, ProxyConfig config,
             const std::vector<std::string>& cluster_names,
             sim::ShardRouter* router)
    : sim_(sim),
      wan_(wan),
      router_(router),
      source_(source),
      src_name_(cluster_names.at(source)),
      proxy_span_name_("proxy:" + split.service()),
      split_(split),
      health_(health),
      rng_(rng),
      config_(config),
      outlier_(deployments.size(), config.outlier) {
  L3_EXPECTS(deployments.size() == split.backend_count());
  // The availability cache is a 64-bit mask; far above any realistic
  // per-service cluster count (the paper runs 3).
  L3_EXPECTS(deployments.size() <= 64);
  L3_EXPECTS(source < cluster_names.size());
  backends_.reserve(deployments.size());
  p2c_scratch_.reserve(deployments.size());
  const std::string& src_name = cluster_names[source];
  for (std::size_t i = 0; i < deployments.size(); ++i) {
    ServiceDeployment* d = deployments[i];
    L3_EXPECTS(d != nullptr);
    L3_EXPECTS(d->cluster() < cluster_names.size());
    const std::string& dst_name = cluster_names[d->cluster()];
    const auto labels =
        metric_names::backend_labels(split.service(), src_name, dst_name);
    BackendSlot slot{
        d,
        dst_name,
        "wan:" + src_name + "->" + dst_name,
        "wan:" + dst_name + "->" + src_name,
        &registry.counter(metric_names::kRequestTotal, labels),
        &registry.counter(metric_names::kSuccessTotal, labels),
        &registry.counter(metric_names::kFailureTotal, labels),
        &registry.histogram(metric_names::kLatencySuccess, labels),
        &registry.histogram(metric_names::kLatencyFailure, labels),
        &registry.counter(metric_names::kLatencySuccessSum, labels),
        &registry.counter(metric_names::kLatencyFailureSum, labels),
        &registry.gauge(metric_names::kInflight, labels),
        metrics::PeakEwma(config.p2c_default_latency, config.p2c_half_life,
                          sim.now()),
        0,
    };
    backends_.push_back(std::move(slot));
  }
  if (config_.cost.enabled()) {
    cost_enabled_ = true;
    cpu_stage_.configure(config_.cost.concurrency);
    pools_.resize(backends_.size());
    // Audit families (per-proxy, {split, src}): registered only here so a
    // zero-cost run's registry — and everything scraped from it — stays
    // byte-identical to a build without the model.
    const auto audit_labels =
        metric_names::proxy_labels(split.service(), src_name);
    audit_handshakes_ =
        &registry.counter(metric_names::kHandshakeTotal, audit_labels);
    audit_pool_hits_ =
        &registry.counter(metric_names::kPoolHitTotal, audit_labels);
    audit_conn_closed_ =
        &registry.counter(metric_names::kConnCloseTotal, audit_labels);
  }
}

SimDuration Proxy::admit_cost(std::size_t idx) {
  const SimTime now = sim_.now();
  const EdgeConnectionPool::Checkout checkout = pools_[idx].checkout(now);
  SimDuration service = config_.cost.cpu_per_request;
  if (checkout.handshake) {
    service += config_.cost.handshake_cost;
    ++cost_stats_.handshakes;
    audit_handshakes_->increment();
    L3_OBS_COUNT(kMeshHandshakes, 1);
    L3_OBS_EVENT(kMesh, kHandshake, now, static_cast<std::uint32_t>(idx),
                 config_.cost.handshake_cost);
  } else {
    ++cost_stats_.pool_hits;
    audit_pool_hits_->increment();
    L3_OBS_COUNT(kMeshPoolHits, 1);
  }
  if (checkout.expired > 0) {
    cost_stats_.expired += checkout.expired;
    L3_OBS_COUNT_DYN(obs::CounterId::kMeshConnExpired, checkout.expired);
  }
  const SimTime done_at = cpu_stage_.admit(now, service);
  const SimDuration wait = done_at - now - service;
  cost_stats_.cpu_busy_total += service;
  if (wait > 0.0) {
    ++cost_stats_.queued;
    cost_stats_.queue_delay_total += wait;
    if (wait > cost_stats_.queue_delay_max) cost_stats_.queue_delay_max = wait;
    // Saturation signal: sampled on the queueing path only, so an idle
    // proxy records nothing.
    L3_OBS_GAUGE(kMeshProxyQueueDelay, wait);
  }
  return done_at - now;
}

void Proxy::refresh_availability() {
  const SimTime now = sim_.now();
  const std::uint64_t health_version =
      health_ == nullptr ? 0 : health_->version();
  const std::uint64_t outlier_version = outlier_.version();
  if (avail_valid_ && health_version == health_version_seen_ &&
      outlier_version == outlier_version_seen_ && now < avail_valid_until_) {
    return;
  }
  const std::size_t n = backends_.size();
  const bool check_partitions = wan_.has_partitions();
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const bool healthy =
        health_ == nullptr || health_->is_available(*backends_[i].deployment);
    const bool reachable =
        !check_partitions ||
        !wan_.is_partitioned(source_, backends_[i].deployment->cluster(), now);
    if (healthy && reachable && !outlier_.is_ejected(i, now)) {
      mask |= 1ull << i;
    }
  }
  if (mask == 0) {
    // Nothing available: fall back to trying everything so requests fail at
    // the backend rather than vanish.
    mask = n == 64 ? ~0ull : (1ull << n) - 1;
  }
  avail_mask_ = mask;
  // Slow path only (version change / cache expiry), so the flight-recorder
  // entry and inflight gauge cost nothing per request.
  L3_OBS_EVENT(kMesh, kAvailabilityRefresh, now,
               static_cast<std::uint32_t>(mask),
               static_cast<double>(std::popcount(mask)));
  L3_OBS_GAUGE(kMeshInflight, static_cast<double>(inflight_total_));
  health_version_seen_ = health_version;
  outlier_version_seen_ = outlier_version;
  avail_valid_until_ = outlier_.next_transition(now);
  if (check_partitions) {
    avail_valid_until_ =
        std::min(avail_valid_until_, wan_.next_partition_transition(now));
  }
  avail_valid_ = true;
}

void Proxy::refresh_picker() {
  if (picker_valid_ && split_.generation() == picker_generation_ &&
      avail_mask_ == picker_mask_) {
    return;
  }
  const auto backends = split_.backends();
  cum_weights_.clear();
  cum_index_.clear();
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < backends.size(); ++i) {
    if ((avail_mask_ >> i & 1) == 0) continue;
    total += backends[i].weight;
    cum_weights_.push_back(total);
    cum_index_.push_back(static_cast<std::uint32_t>(i));
  }
  cum_total_ = total;
  picker_generation_ = split_.generation();
  picker_mask_ = avail_mask_;
  picker_valid_ = true;
  ++picker_rebuilds_;
  L3_OBS_EVENT(kMesh, kPickerRebuild, sim_.now(),
               static_cast<std::uint32_t>(avail_mask_),
               static_cast<double>(cum_index_.size()));
}

namespace {
// WeightedKernel -> per-kernel pick counter, indexed by the enum value.
constexpr std::array<obs::CounterId, pick::kWeightedKernelCount>
    kKernelCounters = {
        obs::CounterId::kPickKernelLinear,
        obs::CounterId::kPickKernelMultiLane,
};
}  // namespace

std::size_t Proxy::pick_weighted() {
  const std::size_t count = cum_index_.size();
  L3_ASSERT(count > 0);
  // Kernel selection is one compare on the table size; every kernel
  // computes the identical upper_bound, so the choice can never perturb a
  // pick.
  const pick::WeightedKernel kernel = pick::select_weighted_kernel(count);
  L3_OBS_COUNT_DYN(kKernelCounters[static_cast<std::size_t>(kernel)], 1);
  if (cum_total_ == 0) {
    // All available weights are zero: ignore weights among the available
    // set (uniform pick). uniform() < 1 keeps the index below count; the
    // clamp guards the floating-point edge so it can never reach count.
    auto nth = static_cast<std::size_t>(rng_.uniform() *
                                        static_cast<double>(count));
    if (nth >= count) nth = count - 1;
    return cum_index_[nth];
  }
  auto r = static_cast<std::uint64_t>(rng_.uniform() *
                                      static_cast<double>(cum_total_));
  if (r >= cum_total_) r = cum_total_ - 1;  // fp edge: clamp into the table
  // First entry whose cumulative weight exceeds r. Zero-weight backends
  // repeat the previous cumulative value and are skipped. The table covers
  // available backends only, so the result is always one of them (the old
  // open-coded walk could fall back to an unavailable last backend).
  return cum_index_[pick::search(kernel, cum_weights_.data(), count, r)];
}

double Proxy::p2c_cost(const BackendSlot& slot) const {
  return slot.p2c_latency.value() *
         static_cast<double>(slot.outstanding + 1);
}

std::size_t Proxy::pick_p2c() {
  L3_OBS_COUNT(kPickKernelP2c, 1);
  // The candidate set is a pure function of the availability mask, so it is
  // rebuilt only when the mask changes instead of on every pick (the
  // rebuild loop used to be the P2C hot path's dominant cost). A live mask
  // is never 0 (all-true fallback), so 0 doubles as "never built".
  if (avail_mask_ != p2c_mask_) {
    p2c_scratch_.clear();
    for (std::size_t i = 0; i < backends_.size(); ++i) {
      if (avail_mask_ >> i & 1) {
        p2c_scratch_.push_back(static_cast<std::uint32_t>(i));
      }
    }
    p2c_mask_ = avail_mask_;
  }
  const std::vector<std::uint32_t>& candidates = p2c_scratch_;
  L3_ASSERT(!candidates.empty());
  if (candidates.size() == 1) return candidates.front();
  const double n = static_cast<double>(candidates.size());
  auto first = static_cast<std::size_t>(rng_.uniform() * n);
  if (first >= candidates.size()) first = candidates.size() - 1;
  const std::uint32_t a = candidates[first];
  std::uint32_t b = a;
  while (b == a) {
    auto second = static_cast<std::size_t>(rng_.uniform() * n);
    if (second >= candidates.size()) second = candidates.size() - 1;
    b = candidates[second];
  }
  return p2c_cost(backends_[a]) <= p2c_cost(backends_[b]) ? a : b;
}

std::size_t Proxy::pick() {
  refresh_availability();
  if (config_.routing == RoutingMode::kPeakEwmaP2C) return pick_p2c();
  refresh_picker();
  return pick_weighted();
}

void Proxy::send(int depth, trace::SpanContext parent, ResponseFn done) {
  L3_EXPECTS(done != nullptr);
  constexpr int kMaxDepth = 32;  // guards against call-graph cycles
  if (depth > kMaxDepth) {
    done(Response{.success = false, .latency = 0.0, .backend_cluster = source_,
                  .timed_out = false});
    return;
  }
  const std::size_t idx = pick();
  BackendSlot& slot = backends_[idx];
  ++sent_;
  L3_OBS_COUNT(kMeshRequests, 1);
  slot.requests->increment();
  slot.inflight->add(1.0);
  slot.outstanding += 1;
  ++inflight_total_;

  const bool with_timeout = config_.timeout > 0.0;
  const CallHandle handle = calls_.acquire();
  CallState& state = *calls_.get(handle);
  state.start = sim_.now();
  state.backend = static_cast<std::uint32_t>(idx);
  // Visitors that must settle before the slot recycles: the response chain,
  // plus the timeout event when one is armed.
  state.pending = with_timeout ? 2 : 1;
  state.finished = false;
  state.span = trace::SpanContext{};
  state.done = std::move(done);
  if (tracer_ != nullptr && parent.sampled()) {
    state.span = tracer_->start_span(parent, trace::SpanKind::kProxy,
                                     proxy_span_name_, src_name_,
                                     split_.service());
  }

  if (with_timeout) {
    const SimTime deadline = sim_.now() + config_.timeout;
    push_timeout(deadline, handle);
    if (!timeout_timer_armed_) arm_timeout_timer(deadline);
  }

  // The cost model's delay (connection handshake + CPU-stage queueing +
  // service) rides the outbound leg: the request leaves the proxy only once
  // its sidecar work is done. No extra event, no RNG draw — with the model
  // disabled cost_delay is exactly 0.0 and every event time below is
  // bit-identical to a build without it.
  const SimTime now = sim_.now();
  const SimDuration cost_delay = cost_enabled_ ? admit_cost(idx) : 0.0;
  ServiceDeployment* const dep = slot.deployment;
  const ClusterId dst = dep->cluster();
  // Both transit legs are drawn here, source-side, back to back: the
  // destination's streams are never touched, so the proxy's draw sequence
  // (and with it every downstream result) does not depend on where — or on
  // which shard — the destination side runs.
  const SimDuration outbound =
      cost_delay + wan_.sample(source_, dst, now, rng_);
  const SimDuration inbound = wan_.sample(dst, source_, now, rng_);
  const SimTime arrive = now + outbound;
  if (state.span.sampled()) {
    tracer_->add_span(state.span, trace::SpanKind::kWan, slot.wan_out_name,
                      src_name_, split_.service(), now + cost_delay, arrive);
  }
  if (wan_.has_partitions() && wan_.is_partitioned(source_, dst, arrive)) {
    // The link is down when the request would land (or the partitioned
    // backend was the all-unavailable fallback): the request is dropped on
    // the floor and the connection resets — a fast failure, not a full
    // client-timeout wait. Partitions are registered up front, so the
    // verdict at `arrive` is already known here.
    sim_.schedule_at(arrive, [this, handle] {
      on_response(handle, Outcome{.success = false, .rejected = true});
    });
    return;
  }
  // From here until the response lands back home, the closures run on the
  // destination's simulator: on a routed proxy they may touch only `dep`,
  // the destination's mesh and this proxy's immutable fields — never
  // calls_. An unrouted proxy shares one simulator with the destination,
  // so the traced path may read the call's span from calls_.
  auto on_arrival = [this, dep, handle, depth, inbound] {
    trace::SpanContext parent{};
    if (traced_here()) {
      const CallState* st = calls_.get(handle);
      L3_ASSERT(st != nullptr);  // the response chain holds the slot
      parent = st->span;
    }
    auto on_outcome = [this, dep, handle, inbound](const Outcome& outcome) {
      const SimTime done_at = dep->sim().now();
      const ClusterId dest = dep->cluster();
      if (traced_here()) {
        const CallState* st = calls_.get(handle);
        L3_ASSERT(st != nullptr);
        if (st->span.sampled()) {
          tracer_->add_span(st->span, trace::SpanKind::kWan,
                            backends_[st->backend].wan_in_name, src_name_,
                            split_.service(), done_at, done_at + inbound);
        }
      }
      // A partition racing the response direction loses the response: the
      // backend did the work but the client sees a failure. Decided now,
      // on the destination's WAN copy (identical to the source's).
      Outcome delivered = outcome;
      const WanModel& dest_wan = dep->mesh().wan();
      if (dest_wan.has_partitions() &&
          dest_wan.is_partitioned(dest, source_, done_at)) {
        delivered = Outcome{.success = false, .rejected = false};
      }
      auto on_return = [this, handle, delivered] {
        on_response(handle, delivered);
      };
      static_assert(sim::EventFn::fits_inline<decltype(on_return)>());
      deliver(dest, source_, done_at + inbound, std::move(on_return));
    };
    static_assert(OutcomeFn::fits_inline<decltype(on_outcome)>());
    dep->handle(depth + 1, parent, std::move(on_outcome));
  };
  static_assert(sim::EventFn::fits_inline<decltype(on_arrival)>());
  deliver(source_, dst, arrive, std::move(on_arrival));
}

void Proxy::deliver(ClusterId from, ClusterId to, SimTime at,
                    sim::EventFn fn) {
  if (router_ != nullptr) {
    // Keyed by (from, seq) and run by the shard that owns `to`.
    router_->engine().router_for_cluster(from).post(from, to, at,
                                                    std::move(fn));
  } else {
    sim_.schedule_at(at, std::move(fn));
  }
}

void Proxy::on_response(CallHandle handle, const Outcome& outcome) {
  CallState* state = calls_.get(handle);
  L3_ASSERT(state != nullptr);  // the chain's visitor still holds the slot
  if (!state->finished) {
    finish(*state, outcome.success, sim_.now() - state->start, false);
  }
  settle(handle, *state);
  drain_finished_timeouts();
}

void Proxy::push_timeout(SimTime deadline, CallHandle handle) {
  if (timeout_buckets_.empty() ||
      timeout_buckets_.back()->tail == kTimeoutBucketSize) {
    // Open a fresh tail bucket — recycled when possible, so steady state
    // admission allocates nothing and growth never copies a live entry.
    if (timeout_free_.empty()) {
      timeout_buckets_.push_back(std::make_unique<TimeoutBucket>());
    } else {
      timeout_buckets_.push_back(std::move(timeout_free_.back()));
      timeout_free_.pop_back();
      timeout_buckets_.back()->head = 0;
      timeout_buckets_.back()->tail = 0;
    }
  }
  TimeoutBucket& bucket = *timeout_buckets_.back();
  bucket.slots[bucket.tail++] = TimeoutEntry{deadline, handle};
  bucket.last_deadline = deadline;
  ++timeout_count_;
}

void Proxy::pop_timeout() {
  TimeoutBucket& bucket = *timeout_buckets_.front();
  ++bucket.head;
  --timeout_count_;
  if (bucket.head == bucket.tail && bucket.tail == kTimeoutBucketSize) {
    // Fully written and fully drained: park the bucket for reuse. (A
    // partially filled front bucket is also the tail bucket and keeps
    // accepting pushes.)
    timeout_free_.push_back(std::move(timeout_buckets_.front()));
    timeout_buckets_.erase(timeout_buckets_.begin());
  } else if (bucket.head == bucket.tail) {
    // Front == tail bucket drained: reset in place so the slots recycle.
    bucket.head = 0;
    bucket.tail = 0;
  }
}

void Proxy::arm_timeout_timer(SimTime deadline) {
  timeout_timer_armed_ = true;
  sim_.schedule_at(deadline, [this] { on_timeout_timer(); });
}

void Proxy::drain_finished_timeouts() {
  while (timeout_count_ > 0) {
    const TimeoutEntry& front = front_timeout();
    CallState* state = calls_.get(front.handle);
    if (state != nullptr) {
      if (!state->finished || state->pending != 1) break;  // still in flight
      settle(front.handle, *state);
    }
    pop_timeout();
  }
}

void Proxy::on_timeout_timer() {
  timeout_timer_armed_ = false;
  const SimTime now = sim_.now();
  while (timeout_count_ > 0) {
    // Radix fast path: when the whole front bucket's deadline bound is due,
    // entries inside need no per-entry deadline compare — only their
    // finished/pending state decides what happens.
    const bool bucket_due = timeout_buckets_.front()->last_deadline <= now;
    const TimeoutEntry front = front_timeout();
    CallState* state = calls_.get(front.handle);
    if (state == nullptr) {  // already recycled; nothing to settle
      pop_timeout();
      continue;
    }
    if (state->finished && state->pending == 1) {
      // Response already answered the caller; the store entry was the last
      // visitor, so this settle recycles the slot.
      settle(front.handle, *state);
      pop_timeout();
      continue;
    }
    if (!bucket_due && front.deadline > now) break;
    // Genuinely due: the caller gets the timeout response at exactly
    // start + timeout. The response chain (still in flight) keeps its
    // visitor and settles the slot when it lands.
    if (!state->finished) {
      L3_OBS_COUNT(kMeshTimeouts, 1);
      L3_OBS_EVENT(kMesh, kTimeoutFired, now, state->backend,
                   config_.timeout);
      finish(*state, false, config_.timeout, true);
    }
    settle(front.handle, *state);
    pop_timeout();
  }
  if (timeout_count_ > 0) {
    arm_timeout_timer(front_timeout().deadline);
  }
}

void Proxy::settle(CallHandle handle, CallState& state) {
  L3_ASSERT(state.pending > 0);
  if (--state.pending == 0) calls_.release(handle);
}

void Proxy::finish(CallState& state, bool success, SimDuration latency,
                   bool timed_out) {
  state.finished = true;
  if (cost_enabled_) {
    // Exactly once per call (finish is guarded by state.finished): a client
    // timeout tears the connection down mid-flight (churn); otherwise it
    // parks in the edge pool unless the idle list is already full.
    if (pools_[state.backend].release(sim_.now(), timed_out, config_.cost)) {
      ++cost_stats_.closed;
      audit_conn_closed_->increment();
    }
  }
  BackendSlot& slot = backends_[state.backend];
  slot.inflight->add(-1.0);
  L3_ASSERT(slot.outstanding > 0);
  slot.outstanding -= 1;
  L3_ASSERT(inflight_total_ > 0);
  --inflight_total_;
  if (success) {
    slot.success->increment();
    slot.latency_success->record(latency);
    slot.latency_success_sum->add(latency);
  } else {
    slot.failure->increment();
    slot.latency_failure->record(latency);
    slot.latency_failure_sum->add(latency);
  }
  if (config_.routing == RoutingMode::kPeakEwmaP2C) {
    // The PeakEWMA is only ever read by pick_p2c(); skipping the update in
    // weighted mode saves an exp() per response on the hot path.
    slot.p2c_latency.observe(latency, sim_.now());
  }
  outlier_.record(state.backend, success, sim_.now());
  if (state.span.sampled()) {
    tracer_->end_span(state.span,
                      timed_out ? trace::SpanStatus::kTimeout
                                : (success ? trace::SpanStatus::kOk
                                           : trace::SpanStatus::kError));
  }
  Response response;
  response.success = success;
  response.latency = latency;
  response.backend_cluster = slot.deployment->cluster();
  response.timed_out = timed_out;
  // Moved out before invoking: the callback may re-enter send() and touch
  // the pool; the slot itself stays put (chunked storage) until settled.
  ResponseFn done = std::move(state.done);
  done(response);
}

}  // namespace l3::mesh
