// Codec tripwire.  store/codec.hpp requires a store::kCodecVersion bump
// whenever a field description in store/schema.hpp gains, loses or reorders
// a field.  This test hashes the sweep-point key and the three stored
// encodings of hand-built values.  Every field of every input is assigned
// from a literal (positional aggregate initialization, so the
// missing-initializer warning flags a new field left out here), so a
// changed default cannot move a hash and no libm call is involved: only a
// schema edit can.  On a mismatch, bump kCodecVersion (store/eval_store.hpp)
// and re-pin the hashes below.

#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <string>

#include "harness/fnv1a.hpp"
#include "store/codec.hpp"
#include "sysmodel/sweep.hpp"
#include "sysmodel/system_sim.hpp"

namespace vfimr {
namespace {

static_assert(store::kCodecVersion == 5,
              "kCodecVersion changed: re-pin the hashes in this file");
constexpr std::uint64_t kPointKeyHash = 0x30948ca43da1d558ull;
constexpr std::uint64_t kNetworkEvalHash = 0x799ce194365052cbull;
constexpr std::uint64_t kPlatformLayoutHash = 0x314c71ba03ba1bc4ull;
constexpr std::uint64_t kSystemReportHash = 0x7012268f13bc66b6ull;

void expect_pinned(const std::string& bytes, std::uint64_t pinned,
                   const char* what) {
  const std::uint64_t got = test::fnv1a64(bytes);
  EXPECT_EQ(got, pinned)
      << what << " now hashes to 0x" << std::hex << got
      << ": a description in store/schema.hpp changed, so bump "
         "store::kCodecVersion and re-pin the hashes in this file";
}

sysmodel::NetworkEval network_eval(double x) {
  const noc::Metrics m{
      101, 99, 3, 396, 1'000,
      Accumulator::from_raw({99, x + 20.0, 12.5, 1980.0, 4.0, 64.0}),
      {800, 700, 1750.5, 100, 900, 901}, 2, 1, 4, 2, 8};
  return {x + 20.5, 1.5e-12, 0.25, 400, true, m};
}

vfi::VfiDesign vfi_design() {
  return {{1, 0}, {{0.75, 1.5e9}, {1.0, 2.5e9}}, {{1.0, 2.5e9}, {1.0, 2.5e9}},
          {0}, 12.5};
}

sysmodel::PhaseResult phase_result(std::size_t i) {
  const double x = static_cast<double>(i);
  return {static_cast<workload::Phase>(i), i != 3, network_eval(x), 18.0 + x,
          1.0 + 0.125 * x, 0.5 * x, 0.25 * x, 0.0625 * x};
}

TEST(CodecTripwire, PointKeyBytesArePinned) {
  const workload::AppProfile profile{
      workload::App::kKmeans, 2, {0.75, 0.5}, Matrix{2, 2, 0.125}, 5, {1},
      0.375, 2,
      {{1000.0, 0.5}, {3, 2000.0, 0.25, 0.125, 0.0625},
       {2, 500.0, 0.5, 0.25, 0.125}, {750.0, 0.375}},
      {Matrix{2, 2, 1.0}, Matrix{2, 2, 2.0}, Matrix{2, 3, 3.0},
       Matrix{3, 2, 4.0}},
      {0.125, 0.5, 0.25, 0.125}};
  faults::FaultSchedule schedule;
  schedule.add({faults::NocFaultKind::kRouter, 1, 10, 20});
  const sysmodel::PlatformParams params{
      sysmodel::SystemKind::kVfiWinoc, false,
      winoc::PlacementStrategy::kMinHopCount, {2.0, 2.0, 6, 1.5, 2, 2, 5},
      {2, {0.875}, {100, 0.25, 0.001, 6, 2}},
      sysmodel::StealingPolicy::kVfiHardCap,
      {{0, 1}, 2, true, schedule, nullptr, "tripwire"},
      sysmodel::Fidelity::kAuto, 1'000, 2'000, 3,
      {1.5, 2.5, 3.5, 0.125, 0.5, 300, 400, 9}, nullptr, "tripwire", nullptr,
      nullptr};
  const power::VfTable table{{{0.75, 1.5e9}, {1.0, 2.5e9}}};
  const sysmodel::FullSystemSim sim{
      {power::CorePowerModel{{0.25e-9, 0.5, 1.0, 3.0, 0.0625}},
       power::NocPowerModel{{64.0, 0.25, 2.0, 2.5, 0.125, 0.0025, 0.0015}}},
      table};
  expect_pinned(sysmodel::comparison_point_key(profile, sim, params),
                kPointKeyHash, "comparison_point_key");
}

TEST(CodecTripwire, StoredRecordBytesArePinned) {
  expect_pinned(store::encode_network_eval(network_eval(1.0)),
                kNetworkEvalHash, "encode_network_eval");
  const sysmodel::PlatformLayout layout{
      vfi_design(),
      {1, 0},
      {{0, 1, graph::EdgeKind::kWire, 1.25},
       {1, 0, graph::EdgeKind::kWireless, 0.0}},
      {2, {{0, 1}, {1, 1}}}};
  expect_pinned(store::encode_platform_layout(layout), kPlatformLayoutHash,
                "encode_platform_layout");
  const sysmodel::SystemReport report{
      sysmodel::SystemKind::kVfiMesh,
      {0.5, 2.0, 1.0, 0.25},
      3.75, 40.0, 2.5, 0.75, network_eval(0.0),
      {phase_result(0), phase_result(1), phase_result(2), phase_result(3)},
      true,
      {1, 2, 0.125, 3, 4, 5, 6, 24, 0.0625},
      19.5, 1.125, true, vfi_design()};
  expect_pinned(store::encode_system_report(report), kSystemReportHash,
                "encode_system_report");
}

}  // namespace
}  // namespace vfimr
