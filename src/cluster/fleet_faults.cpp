#include "cluster/fleet_faults.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"

namespace vfimr::cluster {

namespace {

using Window = std::pair<double, double>;

/// Union of half-open windows, sorted by start.
std::vector<Window> merge_windows(std::vector<Window> w) {
  std::sort(w.begin(), w.end());
  std::vector<Window> out;
  for (const Window& x : w) {
    if (!out.empty() && x.first <= out.back().second) {
      out.back().second = std::max(out.back().second, x.second);
    } else {
      out.push_back(x);
    }
  }
  return out;
}

}  // namespace

FleetFaultPlan::FleetFaultPlan(
    const std::vector<faults::PlatformFault>& faults, std::size_t instances)
    : instances_{instances} {
  VFIMR_REQUIRE_MSG(instances >= 1,
                    "FleetFaultPlan needs >= 1 instance, got " << instances);
  std::vector<std::vector<Window>> crash(instances);
  // Degrade windows keep their slowdown: (start, end, slowdown).
  struct Degrade {
    double at, until, slowdown;
  };
  std::vector<std::vector<Degrade>> degrade(instances);
  for (const faults::PlatformFault& f : faults) {
    VFIMR_REQUIRE_MSG(f.instance < instances,
                      "fault instance " << f.instance
                                        << " out of range for a fleet of "
                                        << instances);
    VFIMR_REQUIRE_MSG(f.at_s >= 0.0 && f.until_s > f.at_s,
                      "fault window [" << f.at_s << ", " << f.until_s
                                       << ") must satisfy 0 <= at < until");
    if (f.kind == faults::PlatformFaultKind::kCrash) {
      crash[f.instance].push_back({f.at_s, f.until_s});
    } else {
      VFIMR_REQUIRE_MSG(f.slowdown >= 1.0,
                        "degrade slowdown must be >= 1, got " << f.slowdown);
      degrade[f.instance].push_back({f.at_s, f.until_s, f.slowdown});
    }
  }

  down_windows_.resize(instances);
  for (std::size_t i = 0; i < instances; ++i) {
    down_windows_[i] = merge_windows(std::move(crash[i]));

    // Composite state at every boundary: down wins, then the worst active
    // slowdown, else up.  The boundary set is small (a handful of windows
    // per instance), so the quadratic probe is fine.
    std::vector<double> bounds;
    for (const Window& w : down_windows_[i]) {
      bounds.push_back(w.first);
      bounds.push_back(w.second);
    }
    for (const Degrade& d : degrade[i]) {
      bounds.push_back(d.at);
      bounds.push_back(d.until);
    }
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

    InstanceState prev_state = InstanceState::kUp;
    double prev_slowdown = 1.0;
    for (const double t : bounds) {
      bool down = false;
      for (const Window& w : down_windows_[i]) {
        down = down || (t >= w.first && t < w.second);
      }
      double slowdown = 1.0;
      if (!down) {
        for (const Degrade& d : degrade[i]) {
          if (t >= d.at && t < d.until) {
            slowdown = std::max(slowdown, d.slowdown);
          }
        }
      }
      const InstanceState state = down ? InstanceState::kDown
                                  : slowdown > 1.0 ? InstanceState::kDegraded
                                                   : InstanceState::kUp;
      if (state == prev_state && slowdown == prev_slowdown) continue;
      InstanceStateChange c;
      c.time_s = t;
      c.instance = static_cast<std::uint32_t>(i);
      c.state = state;
      c.slowdown = slowdown;
      changes_.push_back(c);
      prev_state = state;
      prev_slowdown = slowdown;
    }
  }

  std::sort(changes_.begin(), changes_.end(),
            [](const InstanceStateChange& a, const InstanceStateChange& b) {
              if (a.time_s != b.time_s) return a.time_s < b.time_s;
              return a.instance < b.instance;
            });
}

FleetFaultPlan FleetFaultPlan::from_spec(const faults::FleetFaultSpec& spec,
                                         std::size_t instances,
                                         double horizon_s) {
  return FleetFaultPlan{faults::make_fleet_faults(spec, instances, horizon_s),
                        instances};
}

double FleetFaultPlan::down_seconds(double horizon_s) const {
  double total = 0.0;
  for (const auto& windows : down_windows_) {
    for (const Window& w : windows) {
      total += std::max(0.0, std::min(w.second, horizon_s) - w.first);
    }
  }
  return total;
}

}  // namespace vfimr::cluster
