#include "faults/faults.hpp"

#include <algorithm>
#include <cmath>

#include "common/require.hpp"
#include "common/rng.hpp"

namespace vfimr::faults {

const char* kind_name(NocFaultKind kind) {
  switch (kind) {
    case NocFaultKind::kLink:
      return "link";
    case NocFaultKind::kRouter:
      return "router";
    case NocFaultKind::kWi:
      return "wi";
  }
  return "?";
}

namespace {

/// Deterministic event count for an expected value: the integer part plus a
/// Bernoulli draw on the fraction (so sweeps scale smoothly with rate).
std::uint64_t draw_count(double expected, Rng& rng) {
  if (expected <= 0.0) return 0;
  const double whole = std::floor(expected);
  std::uint64_t count = static_cast<std::uint64_t>(whole);
  if (rng.bernoulli(expected - whole)) ++count;
  return count;
}

void emit_events(NocFaultKind kind, const std::vector<std::uint32_t>& ids,
                 double rate, const FaultSpec& spec,
                 std::uint64_t horizon_cycles, Rng& rng,
                 FaultSchedule& out) {
  if (ids.empty() || horizon_cycles == 0) return;
  const double expected =
      rate * static_cast<double>(horizon_cycles) / 100'000.0;
  const std::uint64_t count = draw_count(expected, rng);
  for (std::uint64_t k = 0; k < count; ++k) {
    NocFault f;
    f.kind = kind;
    f.id = ids[rng.uniform_u64(ids.size())];
    f.at_cycle = rng.uniform_u64(horizon_cycles);
    if (rng.bernoulli(spec.transient_fraction)) {
      const double mean = static_cast<double>(spec.mean_repair_cycles);
      const auto repair = static_cast<std::uint64_t>(
          std::max(1.0, rng.uniform(0.5 * mean, 1.5 * mean)));
      f.until_cycle = f.at_cycle + repair;
    }
    out.add(f);
  }
}

/// Candidate stream for one (instance, kind): a unit-rate (1/s) Poisson
/// process with a thinning mark and a window length drawn per candidate.
/// Every candidate consumes the same draws whether accepted or not, so the
/// accepted set at rate r is a subset of the accepted set at any r' >= r.
void emit_fleet_events(PlatformFaultKind kind, std::uint32_t instance,
                       double rate_per_ks, double mean_window_s,
                       double slowdown, double horizon_s, std::uint64_t seed,
                       std::vector<PlatformFault>& out) {
  const double accept = rate_per_ks / kMaxFleetFaultRatePerKs;
  SplitMix64 mix{seed ^ (kind == PlatformFaultKind::kCrash ? 0xC4A54ULL
                                                           : 0xDE64ADEULL)};
  mix.next();
  Rng rng{mix.next() + instance};
  double t = 0.0;
  while (true) {
    t += rng.exponential(1.0);  // candidate gap at the ceiling rate, 1/s
    const double mark = rng.uniform();
    const double window = rng.uniform(0.5, 1.5) * mean_window_s;
    if (t >= horizon_s) break;
    if (mark >= accept) continue;
    PlatformFault f;
    f.instance = instance;
    f.kind = kind;
    f.at_s = t;
    f.until_s = t + window;
    f.slowdown = kind == PlatformFaultKind::kDegrade ? slowdown : 1.0;
    out.push_back(f);
  }
}

}  // namespace

std::vector<PlatformFault> make_fleet_faults(const FleetFaultSpec& spec,
                                             std::size_t instances,
                                             double horizon_s) {
  VFIMR_REQUIRE_MSG(spec.crash_rate_per_ks >= 0.0 &&
                        spec.crash_rate_per_ks <= kMaxFleetFaultRatePerKs,
                    "crash_rate_per_ks must be in [0, "
                        << kMaxFleetFaultRatePerKs << "], got "
                        << spec.crash_rate_per_ks);
  VFIMR_REQUIRE_MSG(spec.degrade_rate_per_ks >= 0.0 &&
                        spec.degrade_rate_per_ks <= kMaxFleetFaultRatePerKs,
                    "degrade_rate_per_ks must be in [0, "
                        << kMaxFleetFaultRatePerKs << "], got "
                        << spec.degrade_rate_per_ks);
  VFIMR_REQUIRE_MSG(spec.degrade_slowdown >= 1.0,
                    "degrade_slowdown must be >= 1, got "
                        << spec.degrade_slowdown);
  VFIMR_REQUIRE_MSG(spec.crash_rate_per_ks == 0.0 || spec.mean_repair_s > 0.0,
                    "crash faults need mean_repair_s > 0, got "
                        << spec.mean_repair_s);
  VFIMR_REQUIRE_MSG(
      spec.degrade_rate_per_ks == 0.0 || spec.mean_degrade_s > 0.0,
      "degrade faults need mean_degrade_s > 0, got " << spec.mean_degrade_s);
  VFIMR_REQUIRE_MSG(horizon_s >= 0.0, "horizon_s must be >= 0, got "
                                          << horizon_s);

  std::vector<PlatformFault> out;
  if (!spec.any() || instances == 0 || horizon_s <= 0.0) return out;
  for (std::uint32_t i = 0; i < instances; ++i) {
    emit_fleet_events(PlatformFaultKind::kCrash, i, spec.crash_rate_per_ks,
                      spec.mean_repair_s, 1.0, horizon_s, spec.seed, out);
    emit_fleet_events(PlatformFaultKind::kDegrade, i,
                      spec.degrade_rate_per_ks, spec.mean_degrade_s,
                      spec.degrade_slowdown, horizon_s, spec.seed, out);
  }
  std::sort(out.begin(), out.end(),
            [](const PlatformFault& a, const PlatformFault& b) {
              if (a.at_s != b.at_s) return a.at_s < b.at_s;
              if (a.instance != b.instance) return a.instance < b.instance;
              return static_cast<int>(a.kind) < static_cast<int>(b.kind);
            });
  return out;
}

FaultSchedule make_noc_schedule(const FaultSpec& spec,
                                const std::vector<std::uint32_t>& edge_ids,
                                const std::vector<std::uint32_t>& router_ids,
                                const std::vector<std::uint32_t>& wi_ids,
                                std::uint64_t horizon_cycles,
                                std::uint64_t seed) {
  VFIMR_REQUIRE(spec.transient_fraction >= 0.0 &&
                spec.transient_fraction <= 1.0);
  FaultSchedule sched;
  Rng rng{seed ^ 0xFA417ULL};
  emit_events(NocFaultKind::kLink, edge_ids, spec.link_rate, spec,
              horizon_cycles, rng, sched);
  emit_events(NocFaultKind::kRouter, router_ids, spec.router_rate, spec,
              horizon_cycles, rng, sched);
  emit_events(NocFaultKind::kWi, wi_ids, spec.wi_rate, spec, horizon_cycles,
              rng, sched);
  return sched;
}

std::vector<CoreFault> make_core_faults(std::size_t cores,
                                        double per_core_prob,
                                        std::uint64_t seed) {
  VFIMR_REQUIRE(per_core_prob >= 0.0 && per_core_prob <= 1.0);
  std::vector<CoreFault> faults;
  if (cores == 0 || per_core_prob <= 0.0) return faults;
  Rng rng{seed ^ 0xC04EULL};
  // The guaranteed survivor rotates with the seed so sweeps do not always
  // spare core 0 (the master-side cleanup core).
  const std::size_t survivor = rng.uniform_u64(cores);
  for (std::size_t c = 0; c < cores; ++c) {
    if (c == survivor) continue;
    if (!rng.bernoulli(per_core_prob)) continue;
    faults.push_back(CoreFault{c, rng.uniform(0.05, 0.95)});
  }
  return faults;
}

WorkerFaultPlan make_worker_fault_plan(std::size_t workers, double death_prob,
                                       std::uint64_t max_after_tasks,
                                       std::uint64_t seed) {
  VFIMR_REQUIRE(death_prob >= 0.0 && death_prob <= 1.0);
  WorkerFaultPlan plan;
  if (workers <= 1 || death_prob <= 0.0) return plan;
  Rng rng{seed ^ 0xDEADULL};
  const std::size_t survivor = rng.uniform_u64(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    if (w == survivor) continue;
    if (!rng.bernoulli(death_prob)) continue;
    plan.deaths.push_back(
        WorkerFaultPlan::WorkerDeath{w, rng.uniform_u64(max_after_tasks + 1)});
  }
  return plan;
}

}  // namespace vfimr::faults
