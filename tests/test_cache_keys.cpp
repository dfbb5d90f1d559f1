// Key-contract tests for the three content-addressed memo layers
// (DESIGN.md §11 and §16): the incremental sweep's comparison_point_key,
// the PlatformCache and the NetworkEvaluator.  A field missing from a key
// is a silent wrong answer (a stale hit), and a field that should not be
// there is a silent slowdown (a needless miss).  So every input is
// enumerated here by hand, independently of the key code, and each
// perturbation must move its key exactly when the computation depends on
// it.  The caches are observed only through their public counters.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "noc/topology.hpp"
#include "sysmodel/net_eval.hpp"
#include "sysmodel/sweep.hpp"
#include "sysmodel/system_sim.hpp"
#include "telemetry/telemetry.hpp"
#include "winoc/design.hpp"
#include "workload/profile.hpp"

namespace vfimr::sysmodel {
namespace {

// Tripwires (LP64): a new field changes one of these sizes and fails the
// build until this test — and the key schema — learn about it.
static_assert(sizeof(void*) != 8 || sizeof(faults::FaultSpec) == 64);
static_assert(sizeof(void*) != 8 || sizeof(faults::NocFault) == 24);
static_assert(sizeof(void*) != 8 || sizeof(power::CorePowerParams) == 40);
static_assert(sizeof(void*) != 8 || sizeof(power::NocPowerParams) == 56);
static_assert(sizeof(void*) != 8 || sizeof(power::VfPoint) == 16);
static_assert(sizeof(void*) != 8 || sizeof(winoc::SmallWorldParams) == 56);
static_assert(sizeof(void*) != 8 || sizeof(vfi::AnnealParams) == 40);
static_assert(sizeof(void*) != 8 || sizeof(vfi::VfiDesignParams) == 56);
static_assert(sizeof(void*) != 8 || sizeof(workload::TaskSet) == 40);
static_assert(sizeof(void*) != 8 || sizeof(workload::SerialStage) == 16);

/// Everything comparison_point_key reads: the profile, the platform
/// parameters and the simulator's power models and V/F ladder.
struct Inputs {
  workload::AppProfile profile;
  PlatformParams params;
  power::CorePowerParams core;
  power::NocPowerParams noc;
  std::vector<power::VfPoint> ladder;
};

struct Mutation {
  std::string name;
  std::function<void(Inputs&)> apply;
};

std::vector<power::VfPoint> standard_ladder() {
  const power::VfTable& t = power::VfTable::standard();
  std::vector<power::VfPoint> out;
  for (std::size_t i = 0; i < t.size(); ++i) out.push_back(t[i]);
  return out;
}

faults::FaultSchedule one_event(faults::NocFaultKind kind, std::uint32_t id,
                                std::uint64_t at, std::uint64_t until) {
  faults::FaultSchedule s;
  s.add({kind, id, at, until});
  return s;
}

Inputs base_inputs() {
  Inputs in;
  in.profile = workload::make_profile(workload::App::kWC);
  in.params.kind = SystemKind::kVfiWinoc;
  in.params.noc_sim.node_cluster = {0, 1, 2, 3};
  in.params.noc_sim.faults =
      one_event(faults::NocFaultKind::kLink, 3, 100, 200);
  in.ladder = standard_ladder();
  return in;
}

std::string point_key(const Inputs& in) {
  const power::VfTable table{in.ladder};
  const FullSystemSim sim{
      FullSystemSim::Models{power::CorePowerModel{in.core},
                            power::NocPowerModel{in.noc}},
      table};
  return comparison_point_key(in.profile, sim, in.params);
}

/// Perturbs element (1, 2) of a matrix.
void bump(Matrix& m) { m(1, 2) += 1e-3; }

void add_task_set(std::vector<Mutation>& out, const std::string& name,
                  workload::TaskSet workload::PhaseModel::*set) {
  const auto field = [&](const char* f, auto apply) {
    out.push_back({"profile.phases." + name + "." + f,
                   [set, apply](Inputs& in) { apply(in.profile.phases.*set); }});
  };
  field("count", [](workload::TaskSet& t) { t.count += 1; });
  field("cycles_mean", [](workload::TaskSet& t) { t.cycles_mean *= 1.01; });
  field("cycles_cv", [](workload::TaskSet& t) { t.cycles_cv += 0.01; });
  field("mem_seconds_mean",
        [](workload::TaskSet& t) { t.mem_seconds_mean *= 1.01; });
  field("mem_cv", [](workload::TaskSet& t) { t.mem_cv += 0.01; });
}

void add_serial_stage(std::vector<Mutation>& out, const std::string& name,
                      workload::SerialStage workload::PhaseModel::*stage) {
  out.push_back({"profile.phases." + name + ".cycles", [stage](Inputs& in) {
                   (in.profile.phases.*stage).cycles *= 1.01;
                 }});
  out.push_back({"profile.phases." + name + ".mem_seconds",
                 [stage](Inputs& in) {
                   (in.profile.phases.*stage).mem_seconds *= 1.01;
                 }});
}

/// Every value field of every input, one perturbation each.
std::vector<Mutation> value_mutations() {
  using faults::NocFaultKind;
  std::vector<Mutation> m;
  const auto add = [&](std::string name, std::function<void(Inputs&)> f) {
    m.push_back({std::move(name), std::move(f)});
  };

  // AppProfile.
  add("profile.app", [](Inputs& in) { in.profile.app = workload::App::kHist; });
  add("profile.threads", [](Inputs& in) { in.profile.threads = 32; });
  add("profile.utilization",
      [](Inputs& in) { in.profile.utilization[5] += 0.01; });
  add("profile.utilization.size",
      [](Inputs& in) { in.profile.utilization.push_back(0.5); });
  add("profile.traffic", [](Inputs& in) { bump(in.profile.traffic); });
  add("profile.traffic.shape", [](Inputs& in) {
    Matrix reshaped{in.profile.traffic.cols() / 2,
                    in.profile.traffic.rows() * 2};
    reshaped.data() = in.profile.traffic.data();
    in.profile.traffic = reshaped;
  });
  add("profile.packet_flits", [](Inputs& in) { in.profile.packet_flits += 1; });
  add("profile.master_threads",
      [](Inputs& in) { in.profile.master_threads.push_back(9); });
  add("profile.master_threads.value",
      [](Inputs& in) { in.profile.master_threads[0] += 1; });
  add("profile.net_sensitivity",
      [](Inputs& in) { in.profile.net_sensitivity += 0.01; });
  add("profile.iterations", [](Inputs& in) { in.profile.iterations += 1; });
  add_serial_stage(m, "lib_init", &workload::PhaseModel::lib_init);
  add_task_set(m, "map", &workload::PhaseModel::map);
  add_task_set(m, "reduce", &workload::PhaseModel::reduce);
  add_serial_stage(m, "merge", &workload::PhaseModel::merge);
  for (std::size_t p = 0; p < workload::kPhaseCount; ++p) {
    const std::string idx = "[" + std::to_string(p) + "]";
    add("profile.phase_traffic" + idx,
        [p](Inputs& in) { bump(in.profile.phase_traffic[p]); });
    add("profile.phase_weight" + idx,
        [p](Inputs& in) { in.profile.phase_weight[p] += 0.01; });
  }

  // PlatformParams, nested structs included.
  add("params.kind",
      [](Inputs& in) { in.params.kind = SystemKind::kVfiMesh; });
  add("params.use_vfi2", [](Inputs& in) { in.params.use_vfi2 = false; });
  add("params.placement", [](Inputs& in) {
    in.params.placement = winoc::PlacementStrategy::kMinHopCount;
  });
  add("params.smallworld.k_intra",
      [](Inputs& in) { in.params.smallworld.k_intra += 0.5; });
  add("params.smallworld.k_inter",
      [](Inputs& in) { in.params.smallworld.k_inter += 0.5; });
  add("params.smallworld.k_max",
      [](Inputs& in) { in.params.smallworld.k_max += 1; });
  add("params.smallworld.alpha",
      [](Inputs& in) { in.params.smallworld.alpha += 0.1; });
  add("params.smallworld.channels",
      [](Inputs& in) { in.params.smallworld.channels += 1; });
  add("params.smallworld.wis_per_cluster",
      [](Inputs& in) { in.params.smallworld.wis_per_cluster -= 1; });
  add("params.smallworld.seed",
      [](Inputs& in) { in.params.smallworld.seed += 1; });
  add("params.vfi.clusters", [](Inputs& in) { in.params.vfi.clusters = 2; });
  add("params.vfi.select.util_target",
      [](Inputs& in) { in.params.vfi.select.util_target -= 0.05; });
  add("params.vfi.anneal.iterations",
      [](Inputs& in) { in.params.vfi.anneal.iterations += 1; });
  add("params.vfi.anneal.t_initial",
      [](Inputs& in) { in.params.vfi.anneal.t_initial *= 2.0; });
  add("params.vfi.anneal.t_final",
      [](Inputs& in) { in.params.vfi.anneal.t_final *= 2.0; });
  add("params.vfi.anneal.seed",
      [](Inputs& in) { in.params.vfi.anneal.seed += 1; });
  add("params.vfi.anneal.restarts",
      [](Inputs& in) { in.params.vfi.anneal.restarts += 1; });
  add("params.vfi_stealing", [](Inputs& in) {
    in.params.vfi_stealing = StealingPolicy::kVfiHardCap;
  });
  add("params.fidelity=analytical",
      [](Inputs& in) { in.params.fidelity = Fidelity::kAnalytical; });
  add("params.fidelity=auto",
      [](Inputs& in) { in.params.fidelity = Fidelity::kAuto; });
  add("params.sim_cycles", [](Inputs& in) { in.params.sim_cycles += 1; });
  add("params.drain_cycles", [](Inputs& in) { in.params.drain_cycles += 1; });
  add("params.traffic_seed", [](Inputs& in) { in.params.traffic_seed += 1; });

  // SimConfig.
  add("params.noc_sim.node_cluster",
      [](Inputs& in) { in.params.noc_sim.node_cluster[2] = 0; });
  add("params.noc_sim.node_cluster.size",
      [](Inputs& in) { in.params.noc_sim.node_cluster.push_back(0); });
  add("params.noc_sim.sync_penalty_cycles",
      [](Inputs& in) { in.params.noc_sim.sync_penalty_cycles += 1; });
  add("params.noc_sim.reference_stepping",
      [](Inputs& in) { in.params.noc_sim.reference_stepping = true; });
  add("params.noc_sim.faults.size", [](Inputs& in) {
    in.params.noc_sim.faults.add({NocFaultKind::kRouter, 7, 300, 400});
  });
  add("params.noc_sim.faults[0].kind", [](Inputs& in) {
    in.params.noc_sim.faults = one_event(NocFaultKind::kWi, 3, 100, 200);
  });
  add("params.noc_sim.faults[0].id", [](Inputs& in) {
    in.params.noc_sim.faults = one_event(NocFaultKind::kLink, 4, 100, 200);
  });
  add("params.noc_sim.faults[0].at_cycle", [](Inputs& in) {
    in.params.noc_sim.faults = one_event(NocFaultKind::kLink, 3, 101, 200);
  });
  add("params.noc_sim.faults[0].until_cycle", [](Inputs& in) {
    in.params.noc_sim.faults = one_event(NocFaultKind::kLink, 3, 100, 201);
  });

  // FaultSpec.
  add("params.faults.link_rate",
      [](Inputs& in) { in.params.faults.link_rate = 1.0; });
  add("params.faults.router_rate",
      [](Inputs& in) { in.params.faults.router_rate = 1.0; });
  add("params.faults.wi_rate",
      [](Inputs& in) { in.params.faults.wi_rate = 1.0; });
  add("params.faults.core_fail_prob",
      [](Inputs& in) { in.params.faults.core_fail_prob = 0.01; });
  add("params.faults.transient_fraction",
      [](Inputs& in) { in.params.faults.transient_fraction -= 0.1; });
  add("params.faults.mean_repair_cycles",
      [](Inputs& in) { in.params.faults.mean_repair_cycles += 1; });
  add("params.faults.loss_timeout_cycles",
      [](Inputs& in) { in.params.faults.loss_timeout_cycles += 1; });
  add("params.faults.seed", [](Inputs& in) { in.params.faults.seed += 1; });

  // Simulator models.
  add("core.ceff_f", [](Inputs& in) { in.core.ceff_f *= 1.01; });
  add("core.leak_nominal_w",
      [](Inputs& in) { in.core.leak_nominal_w *= 1.01; });
  add("core.v_nominal", [](Inputs& in) { in.core.v_nominal *= 1.01; });
  add("core.leak_exponent", [](Inputs& in) { in.core.leak_exponent += 0.1; });
  add("core.idle_activity", [](Inputs& in) { in.core.idle_activity += 0.01; });
  add("noc.flit_bits", [](Inputs& in) { in.noc.flit_bits = 64.0; });
  add("noc.wire_pj_per_bit_mm",
      [](Inputs& in) { in.noc.wire_pj_per_bit_mm *= 1.01; });
  add("noc.switch_pj_per_bit",
      [](Inputs& in) { in.noc.switch_pj_per_bit *= 1.01; });
  add("noc.wireless_pj_per_bit",
      [](Inputs& in) { in.noc.wireless_pj_per_bit *= 1.01; });
  add("noc.buffer_pj_per_bit",
      [](Inputs& in) { in.noc.buffer_pj_per_bit *= 1.01; });
  add("noc.switch_leakage_w",
      [](Inputs& in) { in.noc.switch_leakage_w *= 1.01; });
  add("noc.wi_leakage_w", [](Inputs& in) { in.noc.wi_leakage_w *= 1.01; });
  add("ladder.voltage", [](Inputs& in) { in.ladder[1].voltage_v += 0.05; });
  add("ladder.freq", [](Inputs& in) { in.ladder[1].freq_hz += 1.0e8; });
  add("ladder.size",
      [](Inputs& in) { in.ladder.erase(in.ladder.begin()); });
  return m;
}

TEST(ComparisonPointKey, EveryValueFieldMovesTheKey) {
  const Inputs base = base_inputs();
  ASSERT_TRUE(base.profile.phase_resolved());
  const std::string base_key = point_key(base);
  EXPECT_TRUE(point_key(base) == base_key);  // deterministic
  for (const Mutation& m : value_mutations()) {
    Inputs in = base;
    m.apply(in);
    // EXPECT_TRUE, not EXPECT_NE: a failure must not print two keys.
    EXPECT_TRUE(point_key(in) != base_key)
        << m.name << " is missing from the key";
  }
}

TEST(ComparisonPointKey, DeclaredExclusionsKeepTheKey) {
  telemetry::TelemetrySink sink;
  NetworkEvaluator evaluator;
  PlatformCache platforms;
  const Inputs base = base_inputs();
  const std::string base_key = point_key(base);
  const std::vector<Mutation> exclusions = {
      {"params.telemetry", [&](Inputs& in) { in.params.telemetry = &sink; }},
      {"params.telemetry_label",
       [](Inputs& in) { in.params.telemetry_label = "traced"; }},
      {"params.net_eval",
       [&](Inputs& in) { in.params.net_eval = &evaluator; }},
      {"params.platform_cache",
       [&](Inputs& in) { in.params.platform_cache = &platforms; }},
      {"params.noc_sim.telemetry",
       [&](Inputs& in) { in.params.noc_sim.telemetry = &sink; }},
      {"params.noc_sim.telemetry_label",
       [](Inputs& in) { in.params.noc_sim.telemetry_label = "traced"; }},
  };
  for (const Mutation& m : exclusions) {
    Inputs in = base;
    m.apply(in);
    EXPECT_TRUE(point_key(in) == base_key)
        << m.name << " must not enter the key";
  }
}

// ---- PlatformCache: the design flow is keyed on design inputs only.

struct PlatformCase {
  workload::AppProfile profile;
  PlatformParams params;
  std::vector<power::VfPoint> ladder;
};

PlatformCase platform_base() {
  PlatformCase c;
  c.profile = workload::make_profile(workload::App::kWC);
  c.params.kind = SystemKind::kVfiWinoc;
  // A short anneal: the test is about keys, not design quality.
  c.params.vfi.anneal.iterations = 2'000;
  c.params.vfi.anneal.restarts = 1;
  c.ladder = standard_ladder();
  return c;
}

TEST(PlatformCacheKey, MissesOnDesignInputsHitsOnEverythingElse) {
  using Edit = std::function<void(PlatformCase&)>;
  const PlatformCase winoc = platform_base();
  // build_winoc requires one WI per channel, so the two wireless
  // knobs are perturbed one at a time on a mesh platform, whose key still
  // carries them.  vfi.clusters is fixed at the die's four quadrants, so
  // only the point-key test above can perturb it.
  PlatformCase mesh = winoc;
  mesh.params.kind = SystemKind::kVfiMesh;
  struct Probe {
    std::string name;
    const PlatformCase* base;
    Edit edit;
  };
  const std::vector<Probe> design_inputs = {
      {"profile.app", &winoc,
       [](PlatformCase& c) { c.profile.app = workload::App::kHist; }},
      {"profile.utilization", &winoc,
       [](PlatformCase& c) { c.profile.utilization[5] += 0.01; }},
      {"profile.traffic", &winoc,
       [](PlatformCase& c) { bump(c.profile.traffic); }},
      {"profile.master_threads", &winoc,
       [](PlatformCase& c) { c.profile.master_threads.push_back(9); }},
      {"params.kind", &winoc,
       [](PlatformCase& c) { c.params.kind = SystemKind::kNvfiMesh; }},
      {"params.placement", &winoc,
       [](PlatformCase& c) {
         c.params.placement = winoc::PlacementStrategy::kMinHopCount;
       }},
      {"params.smallworld.k_intra", &winoc,
       [](PlatformCase& c) { c.params.smallworld.k_intra += 0.5; }},
      {"params.smallworld.k_inter", &winoc,
       [](PlatformCase& c) { c.params.smallworld.k_inter += 0.5; }},
      {"params.smallworld.k_max", &winoc,
       [](PlatformCase& c) { c.params.smallworld.k_max += 1; }},
      {"params.smallworld.alpha", &winoc,
       [](PlatformCase& c) { c.params.smallworld.alpha += 0.1; }},
      {"params.smallworld.channels", &mesh,
       [](PlatformCase& c) { c.params.smallworld.channels += 1; }},
      {"params.smallworld.wis_per_cluster", &mesh,
       [](PlatformCase& c) { c.params.smallworld.wis_per_cluster -= 1; }},
      {"params.smallworld.seed", &winoc,
       [](PlatformCase& c) { c.params.smallworld.seed += 1; }},
      {"params.vfi.select.util_target", &winoc,
       [](PlatformCase& c) { c.params.vfi.select.util_target -= 0.05; }},
      {"params.vfi.anneal.iterations", &winoc,
       [](PlatformCase& c) { c.params.vfi.anneal.iterations += 1; }},
      {"params.vfi.anneal.t_initial", &winoc,
       [](PlatformCase& c) { c.params.vfi.anneal.t_initial *= 2.0; }},
      {"params.vfi.anneal.t_final", &winoc,
       [](PlatformCase& c) { c.params.vfi.anneal.t_final *= 2.0; }},
      {"params.vfi.anneal.seed", &winoc,
       [](PlatformCase& c) { c.params.vfi.anneal.seed += 1; }},
      {"params.vfi.anneal.restarts", &winoc,
       [](PlatformCase& c) { c.params.vfi.anneal.restarts += 1; }},
      {"ladder.voltage", &winoc,
       [](PlatformCase& c) { c.ladder[1].voltage_v += 0.05; }},
  };
  telemetry::TelemetrySink sink;
  const std::vector<std::pair<std::string, Edit>> other_inputs = {
      {"params.fidelity",
       [](PlatformCase& c) { c.params.fidelity = Fidelity::kAnalytical; }},
      {"params.sim_cycles", [](PlatformCase& c) { c.params.sim_cycles += 1; }},
      {"params.drain_cycles",
       [](PlatformCase& c) { c.params.drain_cycles += 1; }},
      {"params.traffic_seed",
       [](PlatformCase& c) { c.params.traffic_seed += 1; }},
      {"params.faults",
       [](PlatformCase& c) {
         c.params.faults.link_rate = 1.0;
         c.params.faults.core_fail_prob = 0.01;
         c.params.faults.seed += 1;
       }},
      {"params.noc_sim",
       [](PlatformCase& c) {
         c.params.noc_sim.sync_penalty_cycles += 1;
         c.params.noc_sim.faults.add({faults::NocFaultKind::kLink, 3, 1, 2});
       }},
      {"params.use_vfi2", [](PlatformCase& c) { c.params.use_vfi2 = false; }},
      {"params.vfi_stealing",
       [](PlatformCase& c) {
         c.params.vfi_stealing = StealingPolicy::kPhoenixDefault;
       }},
      {"params.telemetry",
       [&](PlatformCase& c) {
         c.params.telemetry = &sink;
         c.params.telemetry_label = "traced";
       }},
      {"profile.task_model",
       [](PlatformCase& c) {
         c.profile.packet_flits += 1;
         c.profile.net_sensitivity += 0.01;
         c.profile.iterations += 1;
         c.profile.phases.map.count += 1;
         bump(c.profile.phase_traffic[1]);
         c.profile.phase_weight[1] += 0.01;
       }},
  };

  PlatformCache cache;
  const auto get = [&](const PlatformCase& c) {
    const power::VfTable table{c.ladder};
    (void)cache.get(c.profile, c.params, table);
  };
  get(winoc);
  get(mesh);
  ASSERT_EQ(cache.misses(), 2u);
  for (const Probe& p : design_inputs) {
    PlatformCase c = *p.base;
    p.edit(c);
    const std::uint64_t misses = cache.misses();
    get(c);
    EXPECT_EQ(cache.misses(), misses + 1) << p.name << " must miss";
  }
  for (const auto& [name, edit] : other_inputs) {
    PlatformCase c = winoc;
    edit(c);
    const std::uint64_t hits = cache.hits();
    const std::uint64_t misses = cache.misses();
    get(c);
    EXPECT_EQ(cache.hits(), hits + 1) << name << " must hit";
    EXPECT_EQ(cache.misses(), misses) << name << " must hit";
  }
}

// ---- NetworkEvaluator: keyed on the NoC inputs, blind to the task side.

/// A hand-built 8x8 mesh platform, so the test can perturb the topology
/// and the wireless layout directly.  Its XY tables are built on first use.
BuiltPlatform mesh_platform() {
  BuiltPlatform b;
  b.topology = noc::make_mesh(8, 8);
  b.routing_kind = RoutingKind::kXy;
  return b;
}

Matrix uniform_traffic(double rate) {
  Matrix m{64, 64};
  for (std::size_t s = 0; s < 64; ++s) {
    for (std::size_t d = 0; d < 64; ++d) {
      if (s != d) m(s, d) = rate;
    }
  }
  return m;
}

struct NocCase {
  Matrix traffic = uniform_traffic(2e-4);
  std::uint32_t packet_flits = 4;
  PlatformParams params;
  power::NocPowerParams noc;
};

NocCase noc_base() {
  NocCase c;
  c.params.sim_cycles = 400;
  c.params.drain_cycles = 4'000;
  return c;
}

TEST(NetworkEvaluatorKey, MissesOnNocInputsHitsOnTaskSideKnobs) {
  const BuiltPlatform platform = mesh_platform();
  BuiltPlatform with_vfi = mesh_platform();
  with_vfi.has_vfi = true;
  BuiltPlatform moved = mesh_platform();
  moved.topology.positions[5].x_mm += 0.1;
  // A diagonal wire is no mesh, which XY rejects: route it up*/down*.
  BuiltPlatform extra_edge = mesh_platform();
  extra_edge.topology.add_wire(0, 9);
  extra_edge.routing_kind = RoutingKind::kUpDown;
  BuiltPlatform channels = mesh_platform();
  channels.wireless.channel_count = 2;
  BuiltPlatform with_wi = mesh_platform();
  with_wi.wireless.interfaces.push_back({0, 0});

  using Edit = std::function<void(NocCase&)>;
  struct Probe {
    std::string name;
    const BuiltPlatform* platform;
    Edit edit;
  };
  const Edit none = [](NocCase&) {};
  const std::vector<Probe> noc_inputs = {
      {"params.fidelity", &platform,
       [](NocCase& c) { c.params.fidelity = Fidelity::kAnalytical; }},
      {"params.kind", &platform,
       [](NocCase& c) { c.params.kind = SystemKind::kVfiMesh; }},
      {"platform.has_vfi", &with_vfi, none},
      {"platform.topology.positions", &moved, none},
      {"platform.topology.edges", &extra_edge, none},
      {"platform.wireless.channel_count", &channels, none},
      {"platform.wireless.interfaces", &with_wi, none},
      {"traffic", &platform, [](NocCase& c) { bump(c.traffic); }},
      {"packet_flits", &platform, [](NocCase& c) { c.packet_flits += 1; }},
      {"params.traffic_seed", &platform,
       [](NocCase& c) { c.params.traffic_seed += 1; }},
      {"params.sim_cycles", &platform,
       [](NocCase& c) { c.params.sim_cycles += 1; }},
      {"params.drain_cycles", &platform,
       [](NocCase& c) { c.params.drain_cycles += 1; }},
      {"params.noc_sim.node_cluster", &platform,
       [](NocCase& c) {
         c.params.noc_sim.node_cluster = winoc::quadrant_clusters();
       }},
      {"params.noc_sim.sync_penalty_cycles", &platform,
       [](NocCase& c) { c.params.noc_sim.sync_penalty_cycles += 1; }},
      {"params.noc_sim.reference_stepping", &platform,
       [](NocCase& c) { c.params.noc_sim.reference_stepping = true; }},
      {"params.noc_sim.faults", &platform,
       [](NocCase& c) {
         c.params.noc_sim.faults.add({faults::NocFaultKind::kLink, 3, 100,
                                      200});
       }},
      {"params.faults.link_rate", &platform,
       [](NocCase& c) { c.params.faults.link_rate = 5.0; }},
      {"params.faults.router_rate", &platform,
       [](NocCase& c) { c.params.faults.router_rate = 5.0; }},
      {"params.faults.wi_rate", &platform,
       [](NocCase& c) { c.params.faults.wi_rate = 5.0; }},
      {"params.faults.transient_fraction", &platform,
       [](NocCase& c) { c.params.faults.transient_fraction -= 0.1; }},
      {"params.faults.mean_repair_cycles", &platform,
       [](NocCase& c) { c.params.faults.mean_repair_cycles += 1; }},
      {"params.faults.seed", &platform,
       [](NocCase& c) { c.params.faults.seed += 1; }},
      {"noc.flit_bits", &platform, [](NocCase& c) { c.noc.flit_bits = 64.0; }},
      {"noc.wire_pj_per_bit_mm", &platform,
       [](NocCase& c) { c.noc.wire_pj_per_bit_mm *= 1.01; }},
      {"noc.switch_pj_per_bit", &platform,
       [](NocCase& c) { c.noc.switch_pj_per_bit *= 1.01; }},
      {"noc.wireless_pj_per_bit", &platform,
       [](NocCase& c) { c.noc.wireless_pj_per_bit *= 1.01; }},
      {"noc.buffer_pj_per_bit", &platform,
       [](NocCase& c) { c.noc.buffer_pj_per_bit *= 1.01; }},
      {"noc.switch_leakage_w", &platform,
       [](NocCase& c) { c.noc.switch_leakage_w *= 1.01; }},
      {"noc.wi_leakage_w", &platform,
       [](NocCase& c) { c.noc.wi_leakage_w *= 1.01; }},
  };
  telemetry::TelemetrySink sink;
  PlatformCache platforms;
  const std::vector<Probe> other_inputs = {
      {"params.faults.core_fail_prob", &platform,
       [](NocCase& c) { c.params.faults.core_fail_prob = 0.05; }},
      {"params.faults.loss_timeout_cycles", &platform,
       [](NocCase& c) { c.params.faults.loss_timeout_cycles += 1; }},
      {"params.use_vfi2", &platform,
       [](NocCase& c) { c.params.use_vfi2 = false; }},
      {"params.vfi_stealing", &platform,
       [](NocCase& c) {
         c.params.vfi_stealing = StealingPolicy::kVfiHardCap;
       }},
      {"params.design_knobs", &platform,
       [](NocCase& c) {
         c.params.placement = winoc::PlacementStrategy::kMinHopCount;
         c.params.smallworld.seed += 1;
         c.params.vfi.anneal.seed += 1;
       }},
      {"params.telemetry", &platform,
       [&](NocCase& c) {
         c.params.telemetry = &sink;
         c.params.telemetry_label = "traced";
         c.params.noc_sim.telemetry = &sink;
         c.params.noc_sim.telemetry_label = "traced";
       }},
      {"params.memo_handles", &platform,
       [&](NocCase& c) { c.params.platform_cache = &platforms; }},
  };

  NetworkEvaluator evaluator;
  const NocCase base = noc_base();
  const auto evaluate = [&](const Probe& p) {
    NocCase c = base;
    p.edit(c);
    (void)evaluator.evaluate(*p.platform, c.traffic, c.packet_flits,
                             c.params, power::NocPowerModel{c.noc});
  };
  evaluate({"base", &platform, none});
  ASSERT_EQ(evaluator.stats().misses, 1u);
  for (const Probe& p : noc_inputs) {
    const std::uint64_t misses = evaluator.stats().misses;
    evaluate(p);
    EXPECT_EQ(evaluator.stats().misses, misses + 1) << p.name << " must miss";
  }
  for (const Probe& p : other_inputs) {
    const NetworkEvaluator::Stats before = evaluator.stats();
    evaluate(p);
    EXPECT_EQ(evaluator.stats().hits, before.hits + 1) << p.name
                                                       << " must hit";
    EXPECT_EQ(evaluator.stats().misses, before.misses) << p.name
                                                       << " must hit";
  }

  // kAuto and kAnalytical are one band and share entries; the band byte
  // still separates them from the cycle-accurate entry above.
  NocCase auto_band = base;
  auto_band.params.fidelity = Fidelity::kAuto;
  const std::uint64_t hits = evaluator.stats().hits;
  (void)evaluator.evaluate(platform, auto_band.traffic, auto_band.packet_flits,
                           auto_band.params, power::NocPowerModel{});
  EXPECT_EQ(evaluator.stats().hits, hits + 1);
}

TEST(AnalyticalModelKey, KeyedOnWindowClustersAndFaultsNotTraffic) {
  const BuiltPlatform platform = mesh_platform();
  const power::NocPowerModel noc_power;
  NocCase base = noc_base();
  base.params.fidelity = Fidelity::kAnalytical;
  const auto models_after = [&](const NocCase& c) {
    (void)evaluate_network(platform, c.traffic, c.packet_flits, c.params,
                           noc_power);
    return platform.analytical_models.size();
  };
  ASSERT_EQ(models_after(base), 1u);

  NocCase traffic = base;
  bump(traffic.traffic);
  traffic.packet_flits += 1;
  traffic.params.traffic_seed += 1;
  EXPECT_EQ(models_after(traffic), 1u) << "traffic must reuse the model";

  std::size_t expected = 1;
  const std::vector<std::pair<std::string, std::function<void(NocCase&)>>>
      model_inputs = {
          {"sim_cycles", [](NocCase& c) { c.params.sim_cycles += 1; }},
          {"node_cluster",
           [](NocCase& c) {
             c.params.noc_sim.node_cluster = winoc::quadrant_clusters();
           }},
          {"sync_penalty_cycles",
           [](NocCase& c) {
             c.params.noc_sim.node_cluster = winoc::quadrant_clusters();
             c.params.noc_sim.sync_penalty_cycles += 1;
           }},
          {"faults",
           [](NocCase& c) {
             c.params.noc_sim.faults.add(
                 {faults::NocFaultKind::kLink, 3, 100, 200});
           }},
      };
  for (const auto& [name, edit] : model_inputs) {
    NocCase c = base;
    edit(c);
    EXPECT_EQ(models_after(c), ++expected) << name << " must build a model";
  }
}

}  // namespace
}  // namespace vfimr::sysmodel
