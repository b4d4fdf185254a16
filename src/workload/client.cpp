#include "l3/workload/client.h"

#include "l3/common/assert.h"
#include "l3/common/radix_sort.h"
#include "l3/trace/tracer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

namespace l3::workload {

OpenLoopClient::OpenLoopClient(mesh::Mesh& mesh, mesh::ClusterId source,
                               std::string service, RpsFn rps, SplitRng rng,
                               Config config)
    : mesh_(mesh),
      source_(source),
      service_(std::move(service)),
      rps_(std::move(rps)),
      rng_(rng),
      config_(config) {
  L3_EXPECTS(rps_ != nullptr);
}

void OpenLoopClient::start(SimTime begin, SimTime end) {
  L3_EXPECTS(end > begin);
  L3_EXPECTS(begin >= mesh_.simulator().now());
  end_ = end;
  records_.reserve(static_cast<std::size_t>(
      std::min(5e6, (end - begin) * std::max(1.0, rps_(begin)) * 1.5)));
  mesh_.simulator().schedule_at(begin, [this] {
    fire();
    schedule_next();
  });
}

void OpenLoopClient::schedule_next() {
  auto& sim = mesh_.simulator();
  if (arrival_next_ >= arrival_block_.size()) {
    refill_arrivals(sim.now());
    if (arrival_block_.empty()) return;  // recurrence crossed end_
  }
  sim.schedule_at(arrival_block_[arrival_next_++], [this] {
    fire();
    schedule_next();
  });
}

void OpenLoopClient::refill_arrivals(SimTime from) {
  arrival_block_.clear();
  arrival_next_ = 0;
  // Once a drawn arrival crosses end_, the recurrence is over for good.
  // Without this latch a partial block would end with the crossing draw
  // discarded and the NEXT refill would re-sample it — one extra stream
  // draw per block boundary, and occasionally an extra arrival that the
  // per-event recurrence (which stops at its first crossing draw) never
  // produces.
  if (arrivals_done_) return;
  // Pre-generating a block is draw-order-legal exactly when the recurrence
  // below is the only consumer of this client's stream between arrivals:
  // always true without poisson (no draws at all), and true in kViaSplit
  // mode (the proxy picks and WAN transits draw from their own streams).
  // In poisson + kLocalDirect mode fire() draws WAN samples from rng_
  // between gap draws, so the block degenerates to a single arrival and
  // the draw interleaving stays exactly as the per-event loop produced it.
  const bool interleaved_draws =
      config_.poisson && config_.mode == CallMode::kLocalDirect;
  const std::size_t block =
      interleaved_draws ? 1 : std::max<std::size_t>(1, config_.arrival_batch);
  SimTime t = from;
  for (std::size_t i = 0; i < block; ++i) {
    // Identical arithmetic to the old per-event step: `t` is exactly the
    // value schedule_at stored, so rate lookups and gap sums reproduce the
    // per-event FP results bit for bit.
    const double rate = std::max(0.1, rps_(t));
    const SimDuration gap =
        config_.poisson ? rng_.exponential(rate) : 1.0 / rate;
    t += gap;
    if (t >= end_) {
      arrivals_done_ = true;
      break;
    }
    arrival_block_.push_back(t);
  }
}

void OpenLoopClient::fire() {
  ++sent_;
  const SimTime sent_at = mesh_.simulator().now();
  if (config_.mode == CallMode::kLocalDirect) {
    fire_local_direct();
    return;
  }
  // Root span for the whole request including retries (the client's view).
  // Unsampled (zero) context when no tracer is attached or sampling says no.
  trace::SpanContext root{};
  if (trace::Tracer* tracer = mesh_.tracer()) {
    root = tracer->start_trace(service_, mesh_.cluster_names()[source_],
                               service_);
  }
  send_attempt(sent_at, 1, root);
}

void OpenLoopClient::end_trace(trace::SpanContext root, bool success,
                               bool timed_out) {
  if (!root.sampled()) return;
  trace::Tracer* tracer = mesh_.tracer();
  if (tracer == nullptr) return;
  tracer->end_trace(root, timed_out  ? trace::SpanStatus::kTimeout
                          : success ? trace::SpanStatus::kOk
                                    : trace::SpanStatus::kError);
}

void OpenLoopClient::send_attempt(SimTime first_sent, int attempt,
                                  trace::SpanContext root) {
  // The proxy is resolved once; every attempt goes to the same
  // (source, service) pair, so the per-request map lookup is pure overhead.
  if (proxy_ == nullptr) proxy_ = &mesh_.proxy(source_, service_);
  proxy_->send(/*depth=*/0, root,
               [this, first_sent, attempt, root](const mesh::Response& response) {
                 if (!response.success && attempt <= config_.max_retries) {
                   mesh_.simulator().schedule_after(
                       config_.retry_backoff, [this, first_sent, attempt, root] {
                         send_attempt(first_sent, attempt + 1, root);
                       });
                   return;
                 }
                 end_trace(root, response.success, response.timed_out);
                 records_.push_back(RequestRecord{
                     first_sent, mesh_.simulator().now() - first_sent,
                     response.success, response.timed_out,
                     response.backend_cluster, attempt});
               });
}

void OpenLoopClient::fire_local_direct() {
  // Straight to the local deployment: local network hop out and back, no
  // TrafficSplit, no proxy metrics (the client is not part of the mesh's
  // east-west traffic).
  auto& sim = mesh_.simulator();
  const SimTime sent_at = sim.now();
  if (local_deployment_ == nullptr) {
    local_deployment_ = mesh_.find_deployment(service_, source_);
    L3_EXPECTS(local_deployment_ != nullptr);
  }
  mesh::ServiceDeployment* deployment = local_deployment_;
  trace::SpanContext root{};
  if (trace::Tracer* tracer = mesh_.tracer()) {
    root = tracer->start_trace(service_, mesh_.cluster_names()[source_],
                               service_);
  }
  const SimDuration out = mesh_.wan().sample(source_, source_, sim.now(), rng_);
  sim.schedule_after(out, [this, deployment, sent_at, root] {
    deployment->handle(/*depth=*/1, root, [this, sent_at, root](
                                              const mesh::Outcome& outcome) {
      auto& sim2 = mesh_.simulator();
      const SimDuration back =
          mesh_.wan().sample(source_, source_, sim2.now(), rng_);
      sim2.schedule_after(back, [this, sent_at, root, outcome] {
        end_trace(root, outcome.success, false);
        records_.push_back(RequestRecord{sent_at,
                                         mesh_.simulator().now() - sent_at,
                                         outcome.success, false, source_});
      });
    });
  });
}

std::vector<RequestRecord> OpenLoopClient::records_after(SimTime t) const {
  std::vector<RequestRecord> out;
  out.reserve(records_.size());
  for (const auto& r : records_) {
    if (r.sent >= t) out.push_back(r);
  }
  return out;
}

namespace {

constexpr std::uint64_t kSuccessBit = std::uint64_t{1} << 63;
constexpr std::uint32_t kNoBucket = ~std::uint32_t{0};
constexpr SimTime kInf = std::numeric_limits<SimTime>::infinity();

/// The fixed windows aggregate_timeline buckets records into.
struct Buckets {
  Buckets(SimTime from, SimTime to, SimDuration w)
      : t0(from), t1(to), width(w) {
    L3_EXPECTS(to > from && w > 0.0);
    n = static_cast<std::size_t>(std::ceil((to - from) / w));
  }

  std::uint32_t of(SimTime sent) const {
    if (sent < t0 || sent >= t1) return kNoBucket;
    const auto i = static_cast<std::size_t>((sent - t0) / width);
    return i < n ? static_cast<std::uint32_t>(i) : kNoBucket;
  }

  SimTime t0;
  SimTime t1;
  SimDuration width;
  std::size_t n = 0;
};

/// Summary (if `summary` is set) and timeline (returned; empty without
/// `buckets`) of the records with from <= sent < to, read in place and
/// radix-sorted once.
///
/// Each selected record becomes one sort key: its latency's raw IEEE bits,
/// which order like the values because latencies are >= 0, with the
/// success flag folded into the free sign bit when a summary is wanted. The
/// sorted keys are then a failure block followed by a success block, each
/// ascending; negating the success block gives success_latency's sorted
/// sample, and a linear merge of the two blocks gives the all-requests
/// order (with no failures, or no successes, the sorted keys already are
/// it). A stable counting pass by bucket index over that order leaves each
/// bucket's latencies contiguous and still ascending. Means are summed in
/// record order, as mean() sums, and every quantile goes through
/// percentile_sorted on the same ascending values a per-sample std::sort
/// produces, so results are bit-identical to summarizing copies.
std::vector<TimelineBucket> summarize_in_place(
    std::span<const RequestRecord> records, SimTime from, SimTime to,
    ClientSummary* summary, const Buckets* buckets) {
  const std::size_t nb = buckets != nullptr ? buckets->n : 0;
  std::vector<std::size_t> counts(nb, 0);
  std::vector<std::size_t> successes(nb, 0);
  RadixBuffer<double> buf(records.size(), /*with_payload=*/nb > 0);
  double* keys = buf.data();
  std::uint32_t* bucket_of = buf.payload();
  const std::uint64_t flag = summary != nullptr ? kSuccessBit : 0;
  std::size_t m = 0;
  std::size_t ok = 0;
  double sum_all = 0.0;
  double sum_ok = 0.0;
  std::uint64_t sign_bits = 0;
  for (const auto& r : records) {
    if (r.sent < from || r.sent >= to) continue;
    std::uint64_t bits = std::bit_cast<std::uint64_t>(r.latency);
    sign_bits |= bits;
    sum_all += r.latency;
    if (r.success) {
      sum_ok += r.latency;
      ++ok;
      bits |= flag;
    }
    keys[m] = std::bit_cast<double>(bits);
    if (bucket_of != nullptr) {
      const std::uint32_t b = buckets->of(r.sent);
      bucket_of[m] = b;
      if (b != kNoBucket) {
        ++counts[b];
        if (r.success) ++successes[b];
      }
    }
    ++m;
  }
  // Negative latencies would sort after positive ones and read as flagged.
  L3_ASSERT((sign_bits & kSuccessBit) == 0);
  buf.sort(m);

  if (summary != nullptr && m > 0) {
    const std::size_t failed = m - ok;
    double* sorted = buf.data();
    for (std::size_t i = failed; i < m; ++i) sorted[i] = -sorted[i];
    summary->success_latency =
        summarize_sorted({sorted + failed, ok},
                         ok > 0 ? sum_ok / static_cast<double>(ok) : 0.0);
    if (failed > 0 && ok > 0) {
      double* out = buf.scratch();
      const std::uint32_t* pin = buf.payload();
      std::uint32_t* pout = buf.payload_scratch();
      std::size_t i = 0;
      std::size_t j = failed;
      for (std::size_t o = 0; o < m; ++o) {
        const std::size_t src =
            j == m || (i < failed && sorted[i] <= sorted[j]) ? i++ : j++;
        out[o] = sorted[src];
        if (pin != nullptr) pout[o] = pin[src];
      }
      buf.swap();
    }
    summary->latency = summarize_sorted({buf.data(), m},
                                        sum_all / static_cast<double>(m));
    summary->success_rate = static_cast<double>(ok) / static_cast<double>(m);
    summary->count = m;
  }

  std::vector<TimelineBucket> timeline(nb);
  if (nb == 0) return timeline;
  std::vector<std::size_t> next(nb);
  std::size_t at = 0;
  for (std::size_t b = 0; b < nb; ++b) {
    next[b] = at;
    at += counts[b];
  }
  const double* sorted = buf.data();
  const std::uint32_t* sorted_bucket = buf.payload();
  double* by_bucket = buf.scratch();
  for (std::size_t i = 0; i < m; ++i) {
    const std::uint32_t b = sorted_bucket[i];
    if (b != kNoBucket) by_bucket[next[b]++] = sorted[i];
  }
  for (std::size_t b = 0; b < nb; ++b) {
    TimelineBucket& out = timeline[b];
    out.start = buckets->t0 + static_cast<double>(b) * buckets->width;
    out.count = counts[b];
    out.rps = static_cast<double>(counts[b]) / buckets->width;
    if (counts[b] > 0) {
      const std::span<const double> run(by_bucket + next[b] - counts[b],
                                        counts[b]);
      out.p50 = percentile_sorted(run, 0.50);
      out.p99 = percentile_sorted(run, 0.99);
      out.success_rate = static_cast<double>(successes[b]) /
                         static_cast<double>(counts[b]);
    }
  }
  return timeline;
}

}  // namespace

std::vector<TimelineBucket> aggregate_timeline(
    std::span<const RequestRecord> records, SimTime t0, SimTime t1,
    SimDuration bucket) {
  const Buckets buckets(t0, t1, bucket);
  return summarize_in_place(records, t0, t1, nullptr, &buckets);
}

ClientSummary summarize_records(std::span<const RequestRecord> records) {
  ClientSummary s;
  summarize_in_place(records, -kInf, kInf, &s, nullptr);
  return s;
}

RunSummary summarize_run(std::span<const RequestRecord> records, SimTime t0,
                         SimTime t1, SimDuration bucket) {
  const Buckets buckets(t0, t1, bucket);
  RunSummary run;
  run.timeline = summarize_in_place(records, t0, kInf, &run.summary, &buckets);
  return run;
}

}  // namespace l3::workload
