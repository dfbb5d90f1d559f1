#pragma once
// Cycle-level wormhole NoC simulator.
//
// Models, per the paper's experimental setup (§7):
//  * wormhole switching with per-input-port FIFO buffers, depth 2 flits on
//    wire ports and depth 8 on wireless-interface (WI) ports;
//  * one flit per wire link per cycle;
//  * three non-overlapping mm-wave wireless channels arbitrated by a
//    rotating token; the token holder transmits one flit per cycle and keeps
//    the token until its current packet's tail has been sent;
//  * deterministic table routing (XY on the mesh, up*/down* on irregular
//    WiNoC topologies) — both deadlock-free;
//  * event counters for the power models: switch traversals, wire
//    millimeters traversed, wireless flits, buffer accesses.
//
// The simulator is single-threaded and deterministic given the injected
// traffic.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/compute_once.hpp"
#include "common/stats.hpp"
#include "faults/faults.hpp"
#include "noc/flit.hpp"
#include "noc/routing.hpp"
#include "noc/topology.hpp"

namespace vfimr::telemetry {
class Counter;
class HistogramMetric;
class TelemetrySink;
}  // namespace vfimr::telemetry

namespace vfimr::noc {

/// A wireless interface: one per equipped switch, tuned to one channel.
struct WirelessInterface {
  graph::NodeId node = graph::kInvalidId;
  int channel = 0;
};

struct WirelessConfig {
  int channel_count = 3;
  std::vector<WirelessInterface> interfaces;
};

/// Input-buffer depths per the paper's setup (§7): "buffer depth of two
/// flits" on wire ports, eight on wireless-interface ports.
inline constexpr std::uint32_t kWireBufferDepth = 2;
inline constexpr std::uint32_t kWiBufferDepth = 8;
/// Fault retry ladder, shared by the simulator and the analytical model: a
/// head flit whose route is a fault hole waits (base << retries) cycles
/// between attempts; after kFaultMaxRetries backoffs the packet is declared
/// lost and purged from the network.
inline constexpr std::uint32_t kFaultMaxRetries = 8;
inline constexpr std::uint32_t kFaultBackoffBaseCycles = 8;
/// Wireless-hop cost of the degraded up*/down* tables rebuilt under faults.
inline constexpr double kFaultRerouteWirelessCost = 2.5;

struct SimConfig {
  /// VFI domain of each node (empty = single clock domain).  A flit crossing
  /// a domain boundary pays `sync_penalty_cycles` extra (mixed-clock FIFO
  /// synchronizers) — the "unnecessary latency overhead" of inter-VFI
  /// exchanges over conventional meshes that motivates the WiNoC (§1).
  std::vector<std::size_t> node_cluster;
  std::uint32_t sync_penalty_cycles = 1;
  /// Disable the active-router worklist and the bulk idle-cycle skip and
  /// visit every router every cycle (the naive reference loops).  The fast
  /// path is bit-identical to the reference — this flag exists so the A/B
  /// property tests can prove it, and as an escape hatch while debugging.
  bool reference_stepping = false;
  /// Fault injection: link/router/WI failures (and repairs, for transient
  /// faults) that the stepping loop applies at their scheduled cycles.  An
  /// empty schedule bypasses the fault machinery entirely — the simulation
  /// is then bit-identical to one without it.  See DESIGN.md §9.
  faults::FaultSchedule faults;
  /// Telemetry sink (nullable, caller-owned; see src/telemetry/telemetry.hpp).
  /// When null, every instrumentation site is a single pointer test and the
  /// simulation is bit-identical to the pre-telemetry code.
  telemetry::TelemetrySink* telemetry = nullptr;
  /// Prefix for this network's metric names and trace tracks, e.g.
  /// "Kmeans/VFI WiNoC".
  std::string telemetry_label = "noc";
};

/// Raw event counts consumed by the power library.
struct EnergyCounters {
  std::uint64_t switch_traversals = 0;  ///< flit crossing a router crossbar
  std::uint64_t wire_hops = 0;          ///< flit over a wireline link
  double wire_mm_flits = 0.0;           ///< sum of link length per wire hop
  std::uint64_t wireless_flits = 0;     ///< flit over a wireless channel
  std::uint64_t buffer_writes = 0;
  std::uint64_t buffer_reads = 0;
};

struct Metrics {
  std::uint64_t packets_injected = 0;
  std::uint64_t packets_ejected = 0;
  /// Self-traffic (src == dest) offered by a generator.  Local packets never
  /// enter the network, but conservation checks against generator offered
  /// load must include them: offered == packets_injected + packets_local.
  std::uint64_t packets_local = 0;
  std::uint64_t flits_ejected = 0;
  std::uint64_t cycles = 0;
  Accumulator packet_latency;  ///< inject -> tail-eject, in cycles
  EnergyCounters energy;
  /// Fault-injection counters — all zero on fault-free runs (DESIGN.md §9).
  std::uint64_t fault_events = 0;    ///< timeline transitions applied
  std::uint64_t route_rebuilds = 0;  ///< degraded route-table recomputations
  std::uint64_t retry_backoffs = 0;  ///< unroutable-head backoff waits
  std::uint64_t packets_lost = 0;    ///< packets declared lost and purged
  std::uint64_t flits_lost = 0;      ///< flits removed by purges

  double avg_latency() const { return packet_latency.mean(); }
  /// Fraction of hop traversals carried by wireless links.
  double wireless_utilization() const {
    const double total = static_cast<double>(energy.wire_hops) +
                         static_cast<double>(energy.wireless_flits);
    return total > 0.0 ? static_cast<double>(energy.wireless_flits) / total
                       : 0.0;
  }
  /// Ejected flits per node per cycle.
  double throughput(std::size_t nodes) const {
    if (cycles == 0 || nodes == 0) return 0.0;
    return static_cast<double>(flits_ejected) /
           (static_cast<double>(cycles) * static_cast<double>(nodes));
  }
};

struct Injection {
  graph::NodeId src = graph::kInvalidId;
  graph::NodeId dest = graph::kInvalidId;
  std::uint32_t flits = 1;
};

/// Memo of the degraded up*/down* tables of one topology, keyed by the
/// edge-liveness mask they route around (one byte per edge).  The tables
/// are a pure function of (topology, mask), so networks over the same
/// topology share one build per mask (DESIGN.md §9).  A memo must only ever
/// serve networks over one topology.
using DegradedRoutes = ComputeOnce<std::shared_ptr<const UpDownRouting>>;

/// Produces injections cycle by cycle; implementations in noc/traffic.hpp.
class TrafficGenerator {
 public:
  virtual ~TrafficGenerator() = default;
  virtual void tick(Cycle now, std::vector<Injection>& out) = 0;
};

class Network {
 public:
  /// `topology` and `routing` must outlive the Network.  Wireless edges in
  /// the topology require a matching WirelessConfig entry at both endpoints
  /// sharing one channel.  `degraded_routes` (nullable, caller-owned)
  /// memoizes the tables a faulty run rebuilds; it must serve `topology`
  /// only and outlive the Network.
  Network(const Topology& topology, const RoutingAlgorithm& routing,
          SimConfig config = {}, WirelessConfig wireless = {},
          DegradedRoutes* degraded_routes = nullptr);

  /// Queue a packet of `flits` flits at `src`'s source queue.
  void inject(graph::NodeId src, graph::NodeId dest, std::uint32_t flits);

  /// Advance one cycle.
  void step();

  /// Run `cycles` cycles, pulling traffic from `gen` each cycle (nullable).
  void run(TrafficGenerator* gen, Cycle cycles);

  /// Step until all in-flight flits eject, at most `max_cycles` more cycles.
  /// Returns true if the network fully drained.
  bool drain(Cycle max_cycles);

  const Metrics& metrics() const { return metrics_; }
  Cycle now() const { return metrics_.cycles; }
  std::uint64_t in_flight_flits() const { return in_flight_flits_; }
  std::size_t node_count() const { return topo_->node_count(); }

  /// Flits carried per topology edge (wire and wireless), for hotspot
  /// analysis.  Indexed by graph::EdgeId.
  const std::vector<std::uint64_t>& edge_flits() const { return edge_flits_; }

  /// Peak per-link utilization: max over edges of flits / elapsed cycles.
  double max_link_utilization() const;

 private:
  /// Virtual networks on wired ports: VN0 carries packets before their
  /// wireless hop, VN1 after (layered routing; see Flit::vn).
  static constexpr std::size_t kVns = 2;

  struct InPort {
    FlitQueue buf[kVns];
    std::uint32_t capacity = 2;  ///< per virtual network
    graph::EdgeId via_edge = graph::kInvalidId;  ///< feeding wire edge
    bool is_wireless_rx = false;
  };

  enum class OutKind : std::uint8_t { kWire, kWirelessTx };

  /// Wormhole ownership of one output for one virtual network.
  struct OwnerState {
    std::int32_t owner_input = -1;  ///< -1 = free; source queue = kSourceInput
    PacketId owner_packet = 0;
    std::uint32_t remaining = 0;
    graph::NodeId wi_dest = graph::kInvalidId;  ///< wireless hop target
    bool owner_down_phase = false;              ///< phase after taking edge
    std::uint32_t rr_next = 0;                  ///< round-robin pointer
  };

  struct OutPort {
    OutKind kind = OutKind::kWire;
    graph::EdgeId edge = graph::kInvalidId;  ///< wire edge (kWire only)
    graph::NodeId neighbor = graph::kInvalidId;
    std::uint32_t downstream_in = 0;  ///< input-port index at neighbor (wire)
    double length_mm = 0.0;
    OwnerState vn[kVns];
    std::size_t vn_rr = 0;  ///< flit-level link arbitration between VNs
    /// Fast-path candidate mask, kept up to date when a queue's front
    /// changes: bit `slot` is set iff that input slot's front flit is a
    /// head for another router whose memoized route leaves through this
    /// output on this VN.  Slot r.in.size() is the source queue.
    /// arbitrate_fast() checks readiness and wireless admission while it
    /// scans the set bits — decisions identical to the naive all-queue
    /// probe of arbitrate().
    std::uint16_t cand[kVns] = {0, 0};
  };

  /// Largest input-slot count (input ports + the source queue) the 16-bit
  /// candidate masks can hold.
  static constexpr std::size_t kMaxSlots = 16;

  struct RouterState {
    std::vector<InPort> in;
    std::vector<OutPort> out;
    FlitQueue source_queue{16};         ///< unbounded injection queue (VN0)
    FlitQueue tx_queue{kWiBufferDepth};  ///< wireless TX buffer
    std::int32_t wireless_tx = -1;  ///< index into `out`, -1 if no WI
    std::int32_t wireless_rx = -1;  ///< index into `in`, -1 if no WI
    std::int32_t wi_channel = -1;
    /// Fast path: the output whose `cand` holds each slot's bit (-1: none).
    std::int8_t cand_out[kVns][kMaxSlots];
    /// Fast path: slots whose front head is routed into a fault hole.
    std::uint16_t hole_slots[kVns] = {0, 0};
    /// Fast path: input queues (bit 2 * input + vn) whose front flit is
    /// addressed to this router, i.e. what the eject stage could take.
    std::uint32_t eject_fronts = 0;
    /// Fast path: outputs that may have work (an owner or candidates).  A
    /// bit is set whenever a candidate bit is and cleared lazily when the
    /// output turns out idle; outputs outside it are not visited.
    std::uint32_t live_outs = 0;
    /// Same-channel WI peers and the edge find_edge() credits for a
    /// wireless flit to each (parallel edges resolve as find_edge does).
    std::vector<std::pair<graph::NodeId, graph::EdgeId>> wireless_peers;
  };

  struct Channel {
    std::vector<graph::NodeId> members;  ///< WI nodes, in id order
    std::size_t token = 0;
    bool mid_packet = false;
    PacketId mid_packet_id = 0;  ///< packet holding the reservation
  };

  static constexpr std::int32_t kSourceInput = -2;

  /// Constructor helper (network_wireless.cpp): registers the wireless
  /// interfaces, builds the token channels and validates wireless edges.
  void setup_wireless(const WirelessConfig& wireless);

  void eject_ready_flits();
  void service_wireless_channels();
  void service_router_outputs();
  /// Eject the ready front flits addressed to `n` from the input queues
  /// in `queues` (bit 2 * input + vn).
  void eject_router(graph::NodeId n, Cycle now, std::uint32_t queues);
  void service_router(graph::NodeId n);
  // --- Active-router worklist (see DESIGN.md, "NoC fast path") ---------
  // Invariant: after refresh_active_list(), active_list_ holds exactly the
  // routers with resident_flits_ > 0, sorted ascending — the same visit
  // order as the naive all-router loops, so float accumulation order (and
  // therefore every metric) is preserved bit-for-bit.  Routers whose count
  // is zero perform no state or metric changes when visited, which is why
  // skipping them is exact.
  void note_arrival(graph::NodeId n, std::uint64_t flits);
  void note_departure(graph::NodeId n);
  void refresh_active_list();
  /// Earliest ready_cycle over the front flits of every occupied queue
  /// (in-port buffers, source queues, wireless TX queues) of every active
  /// router.  All simulator actions operate on front flits, so no state
  /// other than idle token rotation can change before this cycle.
  Cycle next_front_ready_cycle() const;
  /// Advance `delta` cycles during which every front flit waits: only the
  /// cycle counter and the idle token rotation of non-mid-packet wireless
  /// channels advance — exactly what `delta` naive steps would do.
  void advance_idle_cycles(Cycle delta);
  std::int32_t arbitrate(graph::NodeId node, std::uint32_t out_idx,
                         std::size_t vn);
  std::int32_t arbitrate_fast(graph::NodeId node, std::uint32_t out_idx,
                              std::size_t vn);
  /// Resolve (and memoize on the flit) the route of the front head of input
  /// slot `idx` on `vn`.  Returns the target output index, -1 if the front
  /// is absent or not a head bound elsewhere, or kHoleTarget if its route
  /// is a fault hole.  Readiness and wireless admission are not checked:
  /// they change without the front changing.
  std::int32_t candidate_target(graph::NodeId node, std::int32_t idx,
                                std::size_t vn);
  static constexpr std::int32_t kHoleTarget = -3;
  /// Fast path: re-derive input slot `idx`'s candidate bit on `vn` after
  /// that queue's front changed (pop, eject, push into an empty queue,
  /// purge); a no-op under reference stepping.
  void refresh_candidate(graph::NodeId node, std::int32_t idx,
                         std::size_t vn);
  /// refresh_candidate for every slot of router `node` (purge, table swap).
  void refresh_all_candidates(graph::NodeId node);
  FlitQueue* input_queue(RouterState& r, std::int32_t idx, std::size_t vn);
  std::uint32_t output_for_edge(const RouterState& r, graph::EdgeId e) const;
  bool downstream_has_space(const OutPort& out, std::size_t vn) const;
  bool try_move_vn(graph::NodeId node, OutPort& out, std::size_t vn);
  void move_through_output(graph::NodeId node, OutPort& out);

  // --- Fault injection & graceful degradation (DESIGN.md §9) ------------
  /// One timeline transition: an element goes down (fault strikes) or comes
  /// back up (a transient fault repairs).
  struct FaultEvent {
    Cycle cycle = 0;
    faults::NocFaultKind kind = faults::NocFaultKind::kLink;
    std::uint32_t id = 0;
    bool down = true;
  };
  void build_fault_timeline();
  /// Apply every timeline transition with cycle <= now (called at the top of
  /// step() when a schedule is present).
  void apply_fault_events();
  /// Recompute the per-edge usability mask from the down counters, purge
  /// packets caught on newly dead elements and rebuild the routing tables.
  void recompute_fault_state();
  void collect_edge_casualties(graph::EdgeId e, std::vector<PacketId>& out);
  void collect_router_casualties(graph::NodeId n, std::vector<PacketId>& out);
  void collect_wi_casualties(graph::NodeId n, std::vector<PacketId>& out);
  /// True when the grant has already streamed at least one flit (a wormhole
  /// cannot re-route a partially forwarded packet).
  bool owner_streamed(RouterState& r, const OwnerState& owner, std::size_t vn);
  /// Remove every flit of `ids` from the network, reset their wormhole
  /// grants and wireless reservations, and account them as lost.
  void purge_packets(std::vector<PacketId>& ids);
  /// After a route change: invalidate every route memo, restart the
  /// up*/down* phase of queued heads and release grants that have not
  /// streamed yet so they re-arbitrate under the new tables.
  void reset_route_state();
  /// Pre-pass over every router: ready front heads whose route is a hole
  /// take an exponential-backoff wait, and after kFaultMaxRetries waits the
  /// packet is declared lost.  Reference stepping probes every front; the
  /// fast path visits only the slots in `hole_slots` and skips the pass
  /// while the tables have no hole.  Each probe touches only its own
  /// front flit, so the visit order does not matter.
  void backoff_unroutable_heads();
  void handle_unreachable(Flit& f);

  const Topology* topo_;
  const RoutingAlgorithm* routing_;
  SimConfig cfg_;
  std::vector<RouterState> routers_;
  std::vector<Channel> channels_;
  std::vector<std::uint64_t> edge_flits_;
  std::vector<std::uint64_t> resident_flits_;  ///< flits queued at router n
  std::vector<graph::NodeId> active_list_;     ///< sorted, resident > 0
  std::vector<graph::NodeId> newly_active_;    ///< staged for next refresh
  std::vector<bool> active_flags_;  ///< n in active_list_ or newly_active_
  bool router_emptied_ = false;  ///< a resident count hit 0 since refresh
  Metrics metrics_;
  std::uint64_t in_flight_flits_ = 0;
  PacketId next_packet_ = 0;

  // Fault state.  `active_routing_` points at `routing_` until the first
  // fault fires, then at `degraded_routing_` (hole-tolerant tables over the
  // surviving edges) for the rest of the run — in-flight heads may carry
  // stale down-phase bits that the original tables would refuse to route.
  bool faults_enabled_ = false;
  bool degraded_routing_active_ = false;
  std::vector<FaultEvent> fault_timeline_;  ///< sorted by cycle
  std::size_t next_fault_event_ = 0;
  std::vector<std::uint32_t> edge_down_;    ///< overlapping-fault counts
  std::vector<std::uint32_t> router_down_;
  std::vector<std::uint32_t> wi_down_;
  std::vector<bool> edge_usable_;           ///< effective liveness mask
  DegradedRoutes* degraded_routes_ = nullptr;  ///< caller's memo, nullable
  std::shared_ptr<const UpDownRouting> degraded_routing_;
  const RoutingAlgorithm* active_routing_ = nullptr;
  std::uint32_t route_epoch_ = 0;           ///< bumped per table rebuild
  std::vector<PacketId> pending_lost_;      ///< purged at the next step()

  // Telemetry (all null when cfg_.telemetry is null).  Instruments are
  // resolved once in the constructor so hot-path sites never take the
  // registry mutex; trace timestamps use 1 NoC cycle == 1 µs.
  void setup_telemetry();
  telemetry::TelemetrySink* tele_ = nullptr;
  telemetry::HistogramMetric* tele_latency_ = nullptr;     ///< tail-eject cycles
  telemetry::HistogramMetric* tele_hops_ = nullptr;        ///< per-packet hops
  telemetry::HistogramMetric* tele_queue_depth_ = nullptr; ///< source q at inject
  telemetry::Counter* tele_backoffs_ = nullptr;
  telemetry::Counter* tele_lost_ = nullptr;
  telemetry::Counter* tele_fault_events_ = nullptr;
  std::uint32_t tele_packets_track_ = 0;  ///< sampled packet journeys
  std::uint32_t tele_faults_track_ = 0;   ///< fault/purge instants
};

}  // namespace vfimr::noc
