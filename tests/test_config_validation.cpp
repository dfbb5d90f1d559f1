// Input-validation hardening: invalid platform / simulation / power
// configurations must fail fast with a descriptive RequirementError instead
// of corrupting a run (satellite of the fault-injection PR).

#include <gtest/gtest.h>

#include <string>

#include "cluster/fleet_faults.hpp"
#include "cluster/serving.hpp"
#include "common/require.hpp"
#include "noc/topology.hpp"
#include "power/vf_table.hpp"
#include "sysmodel/system_sim.hpp"
#include "workload/profile.hpp"

namespace vfimr {
namespace {

/// EXPECT_THROW plus a check that the message mentions `needle` — the error
/// must tell the user *what* was wrong, not just that something was.
template <typename Fn>
void expect_requirement(const Fn& fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected RequirementError mentioning \"" << needle << "\"";
  } catch (const RequirementError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(ConfigValidation, VfTableRejectsEmptyAndNonPositivePoints) {
  expect_requirement([] { power::VfTable t{{}}; (void)t; },
                     "at least one V/F point");
  expect_requirement(
      [] {
        power::VfTable t{{power::VfPoint{0.0, 2.5e9}}};
        (void)t;
      },
      "positive voltage");
  expect_requirement(
      [] {
        power::VfTable t{{power::VfPoint{1.0, -1.0}}};
        (void)t;
      },
      "positive voltage and frequency");
}

TEST(ConfigValidation, MeshRejectsZeroDimensions) {
  expect_requirement([] { noc::make_mesh(0, 4); }, "must be positive");
  expect_requirement([] { noc::make_mesh(4, 0); }, "must be positive");
}

TEST(ConfigValidation, SystemSimRejectsBadNetworkParams) {
  const auto profile = workload::make_profile(workload::App::kWC);
  const sysmodel::FullSystemSim sim;
  sysmodel::PlatformParams params;
  params.sim_cycles = 0;
  expect_requirement([&] { sim.run(profile, params); }, "sim_cycles");
}

TEST(ConfigValidation, FleetConfigRejectsStructurallyInvalidFleets) {
  auto valid = [] {
    cluster::FleetConfig f;
    cluster::PlatformTypeSpec t;
    t.label = "winoc";
    t.count = 2;
    f.types.push_back(t);
    return f;
  };
  valid().validate();  // the baseline passes

  expect_requirement([] { cluster::FleetConfig{}.validate(); },
                     ">= 1 platform type");

  expect_requirement(
      [&] {
        cluster::FleetConfig f = valid();
        f.types[0].count = 0;
        f.validate();
      },
      "count 0");

  expect_requirement(
      [&] {
        cluster::FleetConfig f = valid();
        f.power_cap = cluster::PowerCapMode::kShed;  // budget left at 0
        f.validate();
      },
      "power_cap_w > 0");
  expect_requirement(
      [&] {
        cluster::FleetConfig f = valid();
        f.power_cap = cluster::PowerCapMode::kDelay;
        f.power_cap_w = -5.0;
        f.validate();
      },
      "power_cap_w > 0");

  expect_requirement(
      [&] {
        cluster::FleetConfig f = valid();
        f.retry.max_attempts = 0;  // a retry limit of zero
        f.validate();
      },
      "max_attempts");
  expect_requirement(
      [&] {
        cluster::FleetConfig f = valid();
        f.retry.backoff_base_s = -0.1;
        f.validate();
      },
      "backoff_base_s");
  expect_requirement(
      [&] {
        cluster::FleetConfig f = valid();
        f.retry.backoff_mult = 0.0;
        f.validate();
      },
      "backoff_mult");
  expect_requirement(
      [&] {
        cluster::FleetConfig f = valid();
        f.hedge.latency_multiplier = -1.0;
        f.validate();
      },
      "latency_multiplier");

  // A fault plan sized for a different fleet cannot be applied.
  expect_requirement(
      [&] {
        cluster::FleetConfig f = valid();  // 2 instances
        std::vector<faults::PlatformFault> w;
        w.push_back({0, faults::PlatformFaultKind::kCrash, 1.0, 2.0, 1.0});
        f.faults = cluster::FleetFaultPlan{w, 3};
        f.validate();
      },
      "fault plan covers 3 instances");
}

TEST(ConfigValidation, PlatformRejectsNonDieSizedProfiles) {
  auto profile = workload::make_profile(workload::App::kWC);
  profile.threads = 16;
  profile.utilization.resize(16);
  const sysmodel::FullSystemSim sim;
  expect_requirement([&] { sim.run(profile, sysmodel::PlatformParams{}); },
                     "8x8 die");
}

}  // namespace
}  // namespace vfimr
