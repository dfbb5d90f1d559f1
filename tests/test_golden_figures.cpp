// Golden-figure regression guard.
//
// Recomputes the Fig. 2 / Fig. 7 / Fig. 8 / Table 2 metrics from scratch and
// compares them against the committed goldens in results/golden/ within
// tolerance; then proves the guard has teeth by applying a deliberate +5%
// map-time perturbation and asserting it is detected.
//
// The expensive step (six apps x three full-system simulations) runs ONCE in
// a shared fixture; every TEST_F reuses the cached FigureData.
//
// To intentionally move the goldens: rebuild, re-run
// `./build/bench/golden_figures results/golden`, and commit the reviewed
// diff.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/json_lite.hpp"
#include "faults/faults.hpp"
#include "sysmodel/figures.hpp"
#include "sysmodel/system_sim.hpp"
#include "workload/profile.hpp"

#ifndef VFIMR_SOURCE_DIR
#error "tests/CMakeLists.txt must define VFIMR_SOURCE_DIR"
#endif

namespace vfimr {
namespace {

// Simulations are deterministic (fixed seeds throughout), so tolerance only
// absorbs floating-point differences across compilers/flags, not model noise.
constexpr double kRelTol = 5e-3;
constexpr double kAbsTol = 1e-9;

bool within_tolerance(double golden, double actual) {
  const double diff = std::abs(golden - actual);
  return diff <= kAbsTol + kRelTol * std::abs(golden);
}

class GoldenFigures : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { data_ = new sysmodel::FigureData(sysmodel::compute_figure_data()); }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }

  static const sysmodel::FigureData& data() { return *data_; }

  static json::MetricMap golden(const std::string& name) {
    return json::load_file(std::string{VFIMR_SOURCE_DIR} +
                           "/results/golden/" + name + ".json");
  }

  /// Asserts `actual` matches the committed golden file key-for-key.
  static void expect_matches(const std::string& name,
                             const json::MetricMap& actual) {
    const json::MetricMap gold = golden(name);
    ASSERT_FALSE(gold.empty()) << name << ".json is empty";
    for (const auto& [key, value] : gold) {
      const auto it = actual.find(key);
      ASSERT_NE(it, actual.end()) << "missing recomputed metric " << key;
      EXPECT_TRUE(within_tolerance(value, it->second))
          << key << ": golden=" << value << " actual=" << it->second
          << " (rel tol " << kRelTol << ")";
    }
    for (const auto& [key, value] : actual) {
      EXPECT_TRUE(gold.count(key))
          << "new metric " << key << "=" << value
          << " absent from " << name
          << ".json — regenerate goldens with bench/golden_figures";
    }
  }

 private:
  static sysmodel::FigureData* data_;
};

sysmodel::FigureData* GoldenFigures::data_ = nullptr;

TEST_F(GoldenFigures, Fig2UtilizationMatchesGolden) {
  expect_matches("fig2", sysmodel::extract_metrics(data()).fig2);
}

TEST_F(GoldenFigures, Fig7PhaseBreakdownMatchesGolden) {
  expect_matches("fig7", sysmodel::extract_metrics(data()).fig7);
}

TEST_F(GoldenFigures, Fig8EdpMatchesGolden) {
  expect_matches("fig8", sysmodel::extract_metrics(data()).fig8);
}

TEST_F(GoldenFigures, Table2VfAssignmentMatchesGolden) {
  expect_matches("table2", sysmodel::extract_metrics(data()).table2);
}

TEST_F(GoldenFigures, HeadlineSavingIsInPaperBallpark) {
  // Loose sanity independent of the goldens: the reproduced average WiNoC
  // EDP saving should sit in the neighbourhood of the paper's 33.7%.
  const auto m = sysmodel::extract_metrics(data()).fig8;
  const double avg = m.at("fig8.summary.avg_saving");
  EXPECT_GT(avg, 0.15);
  EXPECT_LT(avg, 0.60);
}

TEST_F(GoldenFigures, GuardDetectsMapTimePerturbation) {
  // A +5% map-time drift must push at least one fig7 metric out of
  // tolerance — otherwise the guard is too loose to be worth anything.
  sysmodel::FigurePerturbation p;
  p.map_time_scale = 1.05;
  const auto perturbed = sysmodel::extract_metrics(data(), p);

  const json::MetricMap gold = golden("fig7");
  std::size_t violations = 0;
  for (const auto& [key, value] : gold) {
    const auto it = perturbed.fig7.find(key);
    ASSERT_NE(it, perturbed.fig7.end()) << key;
    if (!within_tolerance(value, it->second)) ++violations;
  }
  EXPECT_GT(violations, 0u)
      << "+5% map time stayed within tolerance everywhere — guard is blind";
}

TEST(ZeroFaultIdentity, SeededZeroRateSpecIsBitIdentical) {
  // The goldens are produced with the default (fault-free) PlatformParams.
  // A FaultSpec with every rate at zero — regardless of its seed — must
  // leave every simulated quantity bit-identical: the fault machinery is
  // provably dormant in the runs the goldens guard, so the fault-injection
  // subsystem cannot move a golden without a nonzero rate.
  // Each side on its own sim, so each computes its own platforms too.
  const auto profile = workload::make_profile(workload::App::kWC);
  const auto clean =
      sysmodel::compare_systems(profile, sysmodel::FullSystemSim{});

  sysmodel::PlatformParams params;
  params.faults = faults::FaultSpec{};
  params.faults.seed = 0xBADD1Eull;  // the seed alone must not matter
  const auto seeded =
      sysmodel::compare_systems(profile, sysmodel::FullSystemSim{}, params);

  auto expect_same = [](const sysmodel::SystemReport& a,
                        const sysmodel::SystemReport& b) {
    EXPECT_EQ(a.exec_s, b.exec_s);
    EXPECT_EQ(a.core_energy_j, b.core_energy_j);
    EXPECT_EQ(a.net_dynamic_j, b.net_dynamic_j);
    EXPECT_EQ(a.net_static_j, b.net_static_j);
    EXPECT_EQ(a.net.avg_latency_cycles, b.net.avg_latency_cycles);
    EXPECT_EQ(a.mem_scale, b.mem_scale);
    EXPECT_FALSE(b.resilience.any());
    EXPECT_EQ(b.resilience.net_stall_seconds, 0.0);
  };
  expect_same(clean.nvfi_mesh, seeded.nvfi_mesh);
  expect_same(clean.vfi_mesh, seeded.vfi_mesh);
  expect_same(clean.vfi_winoc, seeded.vfi_winoc);
}

TEST_F(GoldenFigures, GuardDetectsCoreEnergyPerturbation) {
  sysmodel::FigurePerturbation p;
  p.core_energy_scale = 1.05;
  const auto perturbed = sysmodel::extract_metrics(data(), p);

  const json::MetricMap gold = golden("fig8");
  std::size_t violations = 0;
  for (const auto& [key, value] : gold) {
    const auto it = perturbed.fig8.find(key);
    ASSERT_NE(it, perturbed.fig8.end()) << key;
    if (!within_tolerance(value, it->second)) ++violations;
  }
  EXPECT_GT(violations, 0u)
      << "+5% core energy stayed within tolerance everywhere — guard is blind";
}

}  // namespace
}  // namespace vfimr
