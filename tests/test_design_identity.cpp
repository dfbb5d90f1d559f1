// Design-flow identity pin.  For each of the six catalog profiles this
// digests every design-flow output that the golden figures and the
// evaluation store's VfiDesign records depend on:
//
//   * design_vfi: the Eq. 1 assignment, the VFI 1 / VFI 2 points, the
//     raised clusters and the clustering cost;
//   * map_threads_min_hop: the mapping over the NVFI quadrant blocks and
//     over the VFI assignment (the two calls build_platform makes);
//   * build_winoc, both placement strategies: thread_to_node and the WI
//     switches.
//
// and compares against recorded FNV-1a digests.  The annealers are free to
// get faster, but not to produce different bits: a mismatch here means every
// committed golden and every stored design is stale.  A deliberate change of
// results must re-record these digests, regenerate results/golden/*.json and
// bump store::kCodecVersion together.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "power/vf_table.hpp"
#include "store/bytes.hpp"
#include "sysmodel/platform.hpp"
#include "vfi/vf_assign.hpp"
#include "winoc/design.hpp"
#include "winoc/thread_mapping.hpp"
#include "workload/profile.hpp"

namespace vfimr {
namespace {

/// Raw-bytes digest builder: exact, so a one-ulp change shows.
class Digest {
 public:
  void add(std::uint64_t v) {
    bytes_.append(reinterpret_cast<const char*>(&v), sizeof v);
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  template <typename T>
  void add_all(const std::vector<T>& values) {
    add(static_cast<std::uint64_t>(values.size()));
    for (const T& v : values) add(static_cast<std::uint64_t>(v));
  }
  std::uint64_t value() const { return store::fnv1a64(bytes_); }

 private:
  std::string bytes_;
};

std::uint64_t design_digest(const vfi::VfiDesign& design) {
  Digest d;
  d.add_all(design.assignment);
  for (const auto* points : {&design.vfi1, &design.vfi2}) {
    d.add(static_cast<std::uint64_t>(points->size()));
    for (const power::VfPoint& p : *points) {
      d.add(p.voltage_v);
      d.add(p.freq_hz);
    }
  }
  d.add_all(design.raised_clusters);
  d.add(design.clustering_cost);
  return d.value();
}

std::uint64_t mapping_digest(const std::vector<graph::NodeId>& mapping) {
  Digest d;
  d.add_all(mapping);
  return d.value();
}

std::uint64_t winoc_digest(const winoc::WinocDesign& design) {
  Digest d;
  d.add_all(design.thread_to_node);
  d.add(static_cast<std::uint64_t>(design.wi_nodes.size()));
  for (const auto& cluster : design.wi_nodes) d.add_all(cluster);
  return d.value();
}

struct Recorded {
  std::uint64_t design;
  std::uint64_t nvfi_mapping;
  std::uint64_t vfi_mapping;
  std::uint64_t winoc_min_hop;
  std::uint64_t winoc_max_wireless;
};

/// Indexed like workload::kAllApps (HIST, KMEANS, LR, MM, PCA, WC).
constexpr Recorded kRecorded[] = {
    {0x7575162a8b204655ULL, 0xccd509fa7c41d105ULL, 0xf7ff940dfb684305ULL,
     0xe8e2cbda7a76f509ULL, 0x6aa8b00c6b8e1081ULL},  // HIST
    {0x1b872a0f33fdff15ULL, 0x35644f3912d95925ULL, 0x17f2c337bb44a345ULL,
     0xa1aaf786a12a2331ULL, 0x2214984bad7e5881ULL},  // KMEANS
    {0x8266fa8ac7ce8aa0ULL, 0x07e693f6d4536ea5ULL, 0x07e693f6d4536ea5ULL,
     0x54303fad7dc2790bULL, 0x5b851d7e23bd0141ULL},  // LR
    {0x81ba9c628443e98fULL, 0x02b07d1b244d34e5ULL, 0xf027a47af649a925ULL,
     0xd0e04fb4e2b9f49bULL, 0x4da8652b0cbdb7a1ULL},  // MM
    {0x482a1515a564cbb8ULL, 0xc0537803384cbb85ULL, 0x1d0ed5210ea322c5ULL,
     0x71b906e89c4724d3ULL, 0x5c6e903ff9813e81ULL},  // PCA
    {0xe4ac3ddb27f8dee0ULL, 0x94fc4d2f55acf045ULL, 0x4b8444967b6465a5ULL,
     0xb7113e929f32e2b3ULL, 0xbe4b04036f703801ULL},  // WC
};
static_assert(std::size(kRecorded) == workload::kAllApps.size());

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64 "ULL", v);
  return buf;
}

class DesignFlowIdentity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DesignFlowIdentity, MatchesRecordedDigests) {
  const workload::App app = workload::kAllApps[GetParam()];
  const workload::AppProfile profile = workload::make_profile(app);
  // The default platform knobs: the ones the goldens and benches build with.
  const sysmodel::PlatformParams params;

  const vfi::VfiDesign design =
      vfi::design_vfi(profile.utilization, profile.traffic,
                      profile.master_threads, power::VfTable::standard(),
                      params.vfi);

  std::vector<std::size_t> blocks(64);
  for (std::size_t t = 0; t < 64; ++t) blocks[t] = t / 16;
  Rng nvfi_rng{params.smallworld.seed};
  const auto nvfi_mapping =
      winoc::map_threads_min_hop(profile.traffic, blocks, nvfi_rng);
  Rng vfi_rng{params.smallworld.seed};
  const auto vfi_mapping =
      winoc::map_threads_min_hop(profile.traffic, design.assignment, vfi_rng);

  const auto min_hop = winoc::build_winoc(
      profile.traffic, design.assignment,
      winoc::PlacementStrategy::kMinHopCount, params.smallworld);
  const auto max_wireless = winoc::build_winoc(
      profile.traffic, design.assignment,
      winoc::PlacementStrategy::kMaxWirelessUtilization, params.smallworld);

  const Recorded got{design_digest(design), mapping_digest(nvfi_mapping),
                     mapping_digest(vfi_mapping), winoc_digest(min_hop),
                     winoc_digest(max_wireless)};
  const Recorded& want = kRecorded[GetParam()];
  SCOPED_TRACE("recorded row for " + workload::app_name(app) + ": {" +
               hex(got.design) + ", " + hex(got.nvfi_mapping) + ", " +
               hex(got.vfi_mapping) + ", " + hex(got.winoc_min_hop) + ", " +
               hex(got.winoc_max_wireless) + "}");
  EXPECT_EQ(hex(got.design), hex(want.design)) << "design_vfi";
  EXPECT_EQ(hex(got.nvfi_mapping), hex(want.nvfi_mapping))
      << "map_threads_min_hop over the NVFI blocks";
  EXPECT_EQ(hex(got.vfi_mapping), hex(want.vfi_mapping))
      << "map_threads_min_hop over the VFI assignment";
  EXPECT_EQ(hex(got.winoc_min_hop), hex(want.winoc_min_hop))
      << "build_winoc, min-hop placement";
  EXPECT_EQ(hex(got.winoc_max_wireless), hex(want.winoc_max_wireless))
      << "build_winoc, max-wireless placement";
}

INSTANTIATE_TEST_SUITE_P(Apps, DesignFlowIdentity,
                         ::testing::Range<std::size_t>(
                             0, workload::kAllApps.size()),
                         [](const auto& info) {
                           return workload::app_name(
                               workload::kAllApps[info.param]);
                         });

}  // namespace
}  // namespace vfimr
