#include "l3/chaos/injector.h"

#include "l3/common/assert.h"
#include "l3/mesh/deployment.h"
#include "l3/mesh/wan.h"
#include "l3/obs/recorder.h"

#include <algorithm>
#include <limits>
#include <string>

namespace l3::chaos {

void FaultInjector::add_controller(core::L3Controller* controller) {
  L3_EXPECTS(controller != nullptr);
  controllers_.push_back(controller);
}

void FaultInjector::arm(const FaultPlan& plan, SimTime time_offset) {
  L3_EXPECTS(time_offset >= 0.0);
  for (const Fault& original : plan.faults()) {
    Fault fault = original;
    fault.start += time_offset;
    const bool bounded = fault.duration > 0.0;
    const SimTime end = fault.start + fault.duration;

    markers_.push_back({fault.start, marker_name(fault), "begin"});
    if (bounded) markers_.push_back({end, marker_name(fault), "end"});

    switch (fault.kind) {
      case FaultKind::kWanPartition:
        // Time-windowed inside the model; no events needed.
        mesh_.wan().add_partition(
            {fault.a, fault.b, fault.start,
             bounded ? end : std::numeric_limits<SimTime>::infinity()});
        break;
      case FaultKind::kWanBrownout: {
        const SimTime d_end =
            bounded ? end : std::numeric_limits<SimTime>::infinity();
        mesh_.wan().add_disturbance(
            {fault.a, fault.b, fault.start, d_end, fault.extra_delay});
        mesh_.wan().add_disturbance(
            {fault.b, fault.a, fault.start, d_end, fault.extra_delay});
        break;
      }
      case FaultKind::kReplicaCrash:
      case FaultKind::kScrapeOutage:
      case FaultKind::kControllerPause: {
        const std::size_t idx = faults_.size();
        sim_.schedule_at(fault.start,
                         [this, idx] { begin_fault(faults_[idx]); });
        if (bounded) {
          sim_.schedule_at(end, [this, idx] { end_fault(faults_[idx]); });
        }
        break;
      }
    }
    faults_.push_back(std::move(fault));
  }
  std::stable_sort(markers_.begin(), markers_.end(),
                   [](const trace::FaultMarker& lhs,
                      const trace::FaultMarker& rhs) {
                     return lhs.time < rhs.time;
                   });
}

void FaultInjector::begin_fault(const Fault& fault) {
  ++transitions_;
  L3_OBS_COUNT(kChaosTransitions, 1);
  L3_OBS_EVENT(kChaos, kFaultBegin, sim_.now(),
               static_cast<std::uint32_t>(fault.kind), fault.start);
  switch (fault.kind) {
    case FaultKind::kReplicaCrash:
      set_crashed(fault, true);
      break;
    case FaultKind::kScrapeOutage:
      if (scraper_ == nullptr) break;
      if (fault.scrape_target.empty()) {
        scraper_->set_all_targets_enabled(false);
      } else {
        scraper_->set_target_enabled(fault.scrape_target, false);
      }
      break;
    case FaultKind::kControllerPause:
      for (core::L3Controller* controller : controllers_) {
        controller->set_active(false);
      }
      break;
    case FaultKind::kWanPartition:
    case FaultKind::kWanBrownout:
      L3_ASSERT(false && "WAN faults are modelled inside WanModel");
      break;
  }
}

void FaultInjector::end_fault(const Fault& fault) {
  ++transitions_;
  L3_OBS_COUNT(kChaosTransitions, 1);
  L3_OBS_EVENT(kChaos, kFaultEnd, sim_.now(),
               static_cast<std::uint32_t>(fault.kind),
               fault.start + fault.duration);
  switch (fault.kind) {
    case FaultKind::kReplicaCrash:
      set_crashed(fault, false);
      break;
    case FaultKind::kScrapeOutage:
      if (scraper_ == nullptr) break;
      if (fault.scrape_target.empty()) {
        scraper_->set_all_targets_enabled(true);
      } else {
        scraper_->set_target_enabled(fault.scrape_target, true);
      }
      break;
    case FaultKind::kControllerPause:
      for (core::L3Controller* controller : controllers_) {
        controller->set_active(true);
      }
      break;
    case FaultKind::kWanPartition:
    case FaultKind::kWanBrownout:
      L3_ASSERT(false && "WAN faults are modelled inside WanModel");
      break;
  }
}

void FaultInjector::set_crashed(const Fault& fault, bool crashed) {
  mesh::ServiceDeployment* deployment =
      mesh_.find_deployment(fault.service, fault.cluster);
  // A plan may target a service/cluster the topology doesn't have (shared
  // plans over sweep variants); that's a no-op, not an error.
  if (deployment == nullptr) return;
  const auto apply = [&](std::size_t i) {
    if (crashed) {
      deployment->crash_replica(i);
    } else {
      deployment->restart_replica(i);
    }
  };
  if (fault.replica == kAllReplicas) {
    for (std::size_t i = 0; i < deployment->replica_count(); ++i) apply(i);
  } else if (fault.replica < deployment->replica_count()) {
    apply(fault.replica);
  }
}

std::string FaultInjector::marker_name(const Fault& fault) const {
  std::string name = to_string(fault.kind);
  switch (fault.kind) {
    case FaultKind::kReplicaCrash: {
      name += ':';
      name += fault.service;
      name += '@';
      const auto& names = mesh_.cluster_names();
      name += fault.cluster < names.size()
                  ? names[fault.cluster]
                  : "cluster#" + std::to_string(fault.cluster);
      if (fault.replica != kAllReplicas) {
        name += "/r" + std::to_string(fault.replica);
      }
      break;
    }
    case FaultKind::kWanPartition:
    case FaultKind::kWanBrownout: {
      const auto& names = mesh_.cluster_names();
      const auto cluster = [&](mesh::ClusterId id) {
        return id < names.size() ? names[id]
                                 : "cluster#" + std::to_string(id);
      };
      name += ':';
      name += cluster(fault.a);
      name += "<->";
      name += cluster(fault.b);
      break;
    }
    case FaultKind::kScrapeOutage:
      name += ':';
      name += fault.scrape_target.empty() ? "all" : fault.scrape_target;
      break;
    case FaultKind::kControllerPause:
      break;
  }
  return name;
}

}  // namespace l3::chaos
