#include "sysmodel/platform.hpp"

#include "common/require.hpp"
#include "store/codec.hpp"
#include "store/eval_store.hpp"
#include "store/schema.hpp"
#include "sysmodel/net_eval.hpp"
#include "winoc/thread_mapping.hpp"

namespace vfimr::sysmodel {

std::string telemetry_label(const workload::AppProfile& profile,
                            const PlatformParams& params) {
  if (!params.telemetry_label.empty()) return params.telemetry_label;
  return profile.name() + " / " + system_name(params.kind);
}

std::string system_name(SystemKind kind) {
  switch (kind) {
    case SystemKind::kNvfiMesh:
      return "NVFI Mesh";
    case SystemKind::kVfiMesh:
      return "VFI Mesh";
    case SystemKind::kVfiWinoc:
      return "VFI WiNoC";
  }
  VFIMR_REQUIRE(false);
  return {};
}

std::string fidelity_name(Fidelity fidelity) {
  switch (fidelity) {
    case Fidelity::kCycleAccurate:
      return "cycle";
    case Fidelity::kAnalytical:
      return "analytical";
    case Fidelity::kAuto:
      return "auto";
  }
  VFIMR_REQUIRE(false);
  return {};
}

bool parse_fidelity(const std::string& name, Fidelity& out) {
  if (name == "cycle") {
    out = Fidelity::kCycleAccurate;
  } else if (name == "analytical") {
    out = Fidelity::kAnalytical;
  } else if (name == "auto") {
    out = Fidelity::kAuto;
  } else {
    return false;
  }
  return true;
}

PlatformLayout search_platform(const workload::AppProfile& profile,
                               const PlatformParams& params,
                               const power::VfTable& table) {
  VFIMR_REQUIRE_MSG(profile.threads == 64,
                    "platform construction targets the 8x8 die");
  PlatformLayout layout;
  // VFI systems share the Fig. 3 design flow.
  if (params.kind != SystemKind::kNvfiMesh) {
    layout.vfi = vfi::design_vfi(profile.utilization, profile.traffic,
                                 profile.master_threads, table, params.vfi);
  }
  if (params.kind == SystemKind::kVfiWinoc) {
    winoc::WinocDesign design =
        winoc::build_winoc(profile.traffic, layout.vfi.assignment,
                           params.placement, params.smallworld);
    layout.thread_to_node = std::move(design.thread_to_node);
    layout.edges = design.topology.graph.edges();
    layout.wireless = std::move(design.wireless);
    return layout;
  }

  // Mesh systems: a locality-optimized thread mapping (SA within the VFI
  // islands).  The NVFI baseline gets the same SA over quadrant blocks, so
  // the NVFI-vs-VFI comparison isolates the VFI/interconnect effects rather
  // than penalizing the baseline with a naive placement.
  std::vector<std::size_t> blocks = layout.vfi.assignment;
  if (params.kind == SystemKind::kNvfiMesh) {
    blocks.resize(64);
    for (std::size_t t = 0; t < 64; ++t) blocks[t] = t / 16;
  }
  Rng rng{params.smallworld.seed};
  layout.thread_to_node =
      winoc::map_threads_min_hop(profile.traffic, blocks, rng);
  layout.edges = noc::make_mesh(8, 8).graph.edges();
  return layout;
}

BuiltPlatform assemble_platform(const workload::AppProfile& profile,
                                const PlatformParams& params,
                                PlatformLayout layout) {
  BuiltPlatform built;
  built.topology = noc::make_placed_grid(8, 8);
  for (const graph::Edge& e : layout.edges) {
    built.topology.graph.add_edge(e.a, e.b, e.kind, e.length_mm);
  }
  if (params.kind == SystemKind::kVfiWinoc) {
    built.routing =
        std::make_unique<noc::UpDownRouting>(built.topology.graph, 2.0);
  } else {
    built.routing =
        std::make_unique<noc::XyRouting>(built.topology.graph, 8, 8);
  }
  built.wireless = std::move(layout.wireless);
  built.wi_count = built.wireless.interfaces.size();
  built.thread_to_node = std::move(layout.thread_to_node);
  built.node_traffic =
      winoc::map_traffic(profile.traffic, built.thread_to_node, 64);
  built.has_vfi = params.kind != SystemKind::kNvfiMesh;
  built.vfi = std::move(layout.vfi);
  return built;
}

BuiltPlatform build_platform(const workload::AppProfile& profile,
                             const PlatformParams& params,
                             const power::VfTable& table) {
  return assemble_platform(profile, params,
                           search_platform(profile, params, table));
}

namespace {

/// The bytes of every input that steers build_platform (store/schema.hpp):
/// exactness over compactness, so no two different platform constructions
/// can ever alias one entry.
std::string platform_key(const workload::AppProfile& profile,
                         const PlatformParams& params,
                         const power::VfTable& table) {
  store::ByteWriter key;
  key.reserve(256 + profile.traffic.data().size() * sizeof(double));

  // Workload content consumed by the design flow: traffic drives thread
  // mapping and WiNoC layout, utilization and masters drive the VFI design.
  // The task model and per-phase traffic only matter once the platform
  // runs, so they stay out.
  key(store::as<std::uint32_t>(profile.app), profile.threads, profile.traffic,
      profile.utilization, profile.master_threads);

  // Design knobs and the V/F ladder (feeds the VFI point selection).
  key(store::as<std::uint32_t>(params.kind),
      store::as<std::uint32_t>(params.placement), params.smallworld,
      params.vfi, table);
  return key.take();
}

}  // namespace

std::shared_ptr<const BuiltPlatform> PlatformCache::get(
    const workload::AppProfile& profile, const PlatformParams& params,
    const power::VfTable& table) {
  const std::string key = platform_key(profile, params, table);
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock{mutex_};
    auto [it, fresh] = cache_.try_emplace(key);
    if (fresh) it->second = std::make_shared<Entry>();
    entry = it->second;
  }

  // Classify under the entry mutex, where the resolving tier is known
  // (memory -> disk -> search); `misses()` keeps meaning "searches actually
  // run".  Both tiers end in the same assembly, so a disk hit builds the
  // platform the search would.
  std::lock_guard<std::mutex> lock{entry->mutex};
  if (entry->value != nullptr) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return entry->value;
  }
  PlatformLayout layout;
  std::string bytes;
  const std::string store_key =
      store_ != nullptr
          ? store::domain_key(store::KeyDomain::kPlatformDesign, key)
          : std::string{};
  if (store_ != nullptr && store_->get(store_key, bytes) &&
      store::decode_platform_layout(bytes, layout)) {
    disk_hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    if (store_ != nullptr) disk_misses_.fetch_add(1, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
    layout = search_platform(profile, params, table);
    if (store_ != nullptr) {
      store_->put(store_key, store::encode_platform_layout(layout));
    }
  }
  entry->value = std::make_shared<const BuiltPlatform>(
      assemble_platform(profile, params, std::move(layout)));
  return entry->value;
}

std::size_t PlatformCache::size() const {
  std::lock_guard<std::mutex> lock{mutex_};
  return cache_.size();
}

NetworkEval evaluate_network(const BuiltPlatform& platform,
                             const workload::AppProfile& profile,
                             const PlatformParams& params,
                             const power::NocPowerModel& noc_power) {
  // The uncached core lives in net_eval.cpp so the memoizing
  // NetworkEvaluator and this whole-run convenience wrapper share one
  // implementation.
  return evaluate_network_banded(platform, platform.node_traffic,
                                 profile.packet_flits, params, noc_power,
                                 telemetry_label(profile, params));
}

}  // namespace vfimr::sysmodel
