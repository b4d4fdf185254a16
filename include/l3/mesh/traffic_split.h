// SMI TrafficSplit equivalent (§4): the declarative object that distributes
// one source cluster's outbound traffic for a service across the service's
// per-cluster backends, proportionally to non-negative integer weights.
// Weight changes flow through the ControlPlane, which models the Linkerd
// control plane's configuration push (optional propagation delay).
#pragma once

#include "l3/common/assert.h"
#include "l3/common/time.h"
#include "l3/mesh/types.h"
#include "l3/sim/simulator.h"

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace l3::mesh {

/// One backend entry of a TrafficSplit.
struct SplitBackend {
  BackendRef ref;
  std::uint64_t weight = 1;
};

/// Traffic distribution for (source cluster, target service).
class TrafficSplit {
 public:
  /// Creates a split with equal initial weights for every backend.
  TrafficSplit(std::string service, ClusterId source,
               std::vector<BackendRef> backends,
               std::uint64_t initial_weight);

  const std::string& service() const { return service_; }
  ClusterId source() const { return source_; }

  std::span<const SplitBackend> backends() const { return backends_; }
  std::size_t backend_count() const { return backends_.size(); }

  /// Current weights, in backend order.
  std::vector<std::uint64_t> weights() const;

  /// Applies new weights immediately (the ControlPlane calls this; tests
  /// may too). Size must match; weights may be zero (a backend with zero
  /// weight receives no traffic). A call that changes nothing leaves the
  /// generation untouched.
  void set_weights(std::span<const std::uint64_t> weights);

  /// Monotone counter bumped on every *effective* weight change — lets
  /// observers (proxies' cached pickers, tests) detect propagation without
  /// reacting to no-op re-publications.
  std::uint64_t generation() const { return generation_; }

 private:
  std::string service_;
  ClusterId source_;
  std::vector<SplitBackend> backends_;
  std::uint64_t generation_ = 0;
};

/// Applies weight updates to TrafficSplits after a configurable propagation
/// delay, modelling the control-plane push to sidecar proxies (§4 notes too
/// frequent updates are to be avoided at scale).
class ControlPlane {
 public:
  ControlPlane(sim::Simulator& sim, SimDuration propagation_delay)
      : sim_(sim), propagation_delay_(propagation_delay) {
    L3_EXPECTS(propagation_delay >= 0.0);
  }

  /// Schedules `weights` to take effect on `split` after the propagation
  /// delay (immediately when the delay is zero).
  void apply(TrafficSplit& split, std::vector<std::uint64_t> weights);

  /// Number of weight updates pushed so far.
  std::uint64_t updates_applied() const { return updates_; }

 private:
  sim::Simulator& sim_;
  const SimDuration propagation_delay_;
  std::uint64_t updates_ = 0;
};

}  // namespace l3::mesh
