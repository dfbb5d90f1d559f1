#pragma once
// FleetFaultPlan: the fleet-level failure/repair timeline for the cluster
// serving tier (DESIGN.md §14).
//
// Raw fault windows (faults::PlatformFault — crash and slow-degrade modes,
// possibly overlapping) are normalized at construction into a single sorted
// stream of per-instance *state changes*: at any instant an instance is up,
// degraded (serving `slowdown` x slower) or down.  The serving event loop
// consumes that stream as a third event source next to completions and
// arrivals; like cluster/arrivals.hpp, a plan is a pure value — equal
// inputs produce byte-identical timelines, so a faulty serving run stays a
// pure function of (arrivals, fleet, matrix, plan).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "faults/faults.hpp"

namespace vfimr::cluster {

enum class InstanceState : std::uint8_t { kUp, kDown, kDegraded };

/// One normalized transition: `instance` enters `state` at `time_s`.
/// `slowdown` is the service-time multiplier from then on (1 unless
/// kDegraded; meaningless while kDown).
struct InstanceStateChange {
  double time_s = 0.0;
  std::uint32_t instance = 0;
  InstanceState state = InstanceState::kUp;
  double slowdown = 1.0;
};

class FleetFaultPlan {
 public:
  /// Empty plan: every instance up forever (the pre-fault serving loop).
  FleetFaultPlan() = default;

  /// Normalize raw windows for a fleet of `instances`.  Overlap semantics:
  /// down wins over degraded; concurrent degrade windows apply the worst
  /// (largest) slowdown.  Throws RequirementError on malformed windows
  /// (instance out of range, until <= at, negative times, slowdown < 1).
  FleetFaultPlan(const std::vector<faults::PlatformFault>& faults,
                 std::size_t instances);

  /// Convenience: expand a rate-based spec (faults::make_fleet_faults) and
  /// normalize it in one step.
  static FleetFaultPlan from_spec(const faults::FleetFaultSpec& spec,
                                  std::size_t instances, double horizon_s);

  bool empty() const { return changes_.empty(); }
  std::size_t instances() const { return instances_; }
  const std::vector<InstanceStateChange>& changes() const { return changes_; }

  /// Instance-seconds spent down within [0, horizon_s] — the numerator of
  /// fleet unavailability.  Monotone in the underlying crash windows.
  double down_seconds(double horizon_s) const;

 private:
  std::size_t instances_ = 0;
  std::vector<InstanceStateChange> changes_;  ///< sorted (time, instance)
  /// Merged down windows per instance, for down_seconds().
  std::vector<std::vector<std::pair<double, double>>> down_windows_;
};

}  // namespace vfimr::cluster
