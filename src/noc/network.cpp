#include "noc/network.hpp"

#include <algorithm>

#include "common/require.hpp"
#include "telemetry/telemetry.hpp"

namespace vfimr::noc {

namespace {

/// Trace one NoC packet journey per this many packet ids.  Sampling bounds
/// trace volume: a 60k-cycle full-system run injects hundreds of thousands
/// of packets per network.
constexpr std::uint64_t kNocPacketSampleEvery = 64;

}  // namespace

Network::Network(const Topology& topology, const RoutingAlgorithm& routing,
                 SimConfig config, WirelessConfig wireless)
    : topo_{&topology}, routing_{&routing}, cfg_{config} {
  const auto& g = topo_->graph;
  routers_.resize(g.node_count());
  edge_flits_.assign(g.edge_count(), 0);
  resident_flits_.assign(g.node_count(), 0);
  ejectable_flits_.assign(g.node_count(), 0);
  active_flags_.assign(g.node_count(), false);
  channels_.resize(static_cast<std::size_t>(
      std::max(wireless.channel_count, 0)));
  if (!cfg_.node_cluster.empty()) {
    VFIMR_REQUIRE(cfg_.node_cluster.size() == g.node_count());
  }

  // Wire ports, one input + one output per incident wire edge.
  for (graph::NodeId n = 0; n < g.node_count(); ++n) {
    auto& r = routers_[n];
    for (graph::EdgeId e : g.incident(n)) {
      const auto& ed = g.edge(e);
      if (ed.kind != graph::EdgeKind::kWire) continue;
      InPort in;
      in.capacity = kWireBufferDepth;
      in.via_edge = e;
      r.in.push_back(std::move(in));
      OutPort out;
      out.kind = OutKind::kWire;
      out.edge = e;
      out.neighbor = g.other_end(e, n);
      out.length_mm = ed.length_mm;
      r.out.push_back(out);
    }
  }

  setup_wireless(wireless);

  // The fast-path candidate masks hold one bit per input slot + source.
  for (const auto& r : routers_) {
    VFIMR_REQUIRE_MSG(r.in.size() + 1 <= 16,
                      "router has too many input ports for the candidate "
                      "bitmask fast path");
  }

  // Resolve downstream input-port indices for wire outputs.
  for (graph::NodeId n = 0; n < g.node_count(); ++n) {
    for (auto& out : routers_[n].out) {
      if (out.kind != OutKind::kWire) continue;
      const auto& nb = routers_[out.neighbor];
      bool found = false;
      for (std::size_t i = 0; i < nb.in.size(); ++i) {
        if (nb.in[i].via_edge == out.edge) {
          out.downstream_in = static_cast<std::uint32_t>(i);
          found = true;
          break;
        }
      }
      VFIMR_REQUIRE(found);
    }
  }

  setup_telemetry();

  active_routing_ = routing_;
  if (!cfg_.faults.empty()) {
    faults_enabled_ = true;
    edge_down_.assign(g.edge_count(), 0);
    router_down_.assign(g.node_count(), 0);
    wi_down_.assign(g.node_count(), 0);
    edge_usable_.assign(g.edge_count(), true);
    build_fault_timeline();
  }
}

void Network::setup_telemetry() {
  tele_ = cfg_.telemetry;
  if (tele_ == nullptr) return;
  const std::string& label = cfg_.telemetry_label;
  auto& m = tele_->metrics();
  tele_latency_ = &m.histogram(label + ".noc.latency_cycles", 0.0, 512.0, 64);
  tele_hops_ = &m.histogram(label + ".noc.hops", 0.0, 32.0, 32);
  tele_queue_depth_ =
      &m.histogram(label + ".noc.source_queue_depth", 0.0, 64.0, 32);
  tele_backoffs_ = &m.counter(label + ".noc.retry_backoffs");
  tele_lost_ = &m.counter(label + ".noc.packets_lost");
  tele_fault_events_ = &m.counter(label + ".noc.fault_events");
  tele_packets_track_ = tele_->tracer().track(label, "NoC packets (sampled)");
  tele_faults_track_ = tele_->tracer().track(label, "NoC faults");
}

void Network::inject(graph::NodeId src, graph::NodeId dest,
                     std::uint32_t flits) {
  VFIMR_REQUIRE(src < routers_.size() && dest < routers_.size());
  VFIMR_REQUIRE_MSG(src != dest, "self-traffic never enters the network");
  VFIMR_REQUIRE(flits >= 1);
  if (faults_enabled_ && router_down_[src] > 0) {
    // The source's router is down: the packet is offered and immediately
    // lost.  Conservation: injected flits == ejected + lost + in flight.
    ++metrics_.packets_injected;
    ++metrics_.packets_lost;
    metrics_.flits_lost += flits;
    return;
  }
  const PacketId id = next_packet_++;
  auto& q = routers_[src].source_queue;
  for (std::uint32_t s = 0; s < flits; ++s) {
    Flit f;
    f.packet = id;
    f.src = src;
    f.dest = dest;
    f.seq = s;
    f.size = flits;
    f.inject_cycle = metrics_.cycles;
    f.ready_cycle = metrics_.cycles;
    q.push_back(f);
  }
  ++metrics_.packets_injected;
  in_flight_flits_ += flits;
  note_arrival(src, flits);
  if (tele_ != nullptr) {
    tele_queue_depth_->add(static_cast<double>(q.size()));
  }
}

void Network::note_arrival(graph::NodeId n, std::uint64_t flits) {
  resident_flits_[n] += flits;
  if (!active_flags_[n]) {
    active_flags_[n] = true;
    newly_active_.push_back(n);
  }
}

void Network::note_departure(graph::NodeId n) {
  VFIMR_REQUIRE(resident_flits_[n] > 0);
  --resident_flits_[n];
}

void Network::refresh_active_list() {
  // Merge the staged activations (sorted) into the sorted list, then drop
  // routers that emptied out.  Both lists are duplicate-free thanks to
  // active_flags_.
  if (!newly_active_.empty()) {
    std::sort(newly_active_.begin(), newly_active_.end());
    const auto mid = active_list_.insert(
        active_list_.end(), newly_active_.begin(), newly_active_.end());
    std::inplace_merge(active_list_.begin(), mid, active_list_.end());
    newly_active_.clear();
  }
  std::erase_if(active_list_, [&](graph::NodeId n) {
    if (resident_flits_[n] > 0) return false;
    active_flags_[n] = false;
    return true;
  });
}

std::deque<Flit>* Network::input_queue(RouterState& r, std::int32_t idx,
                                       std::size_t vn) {
  if (idx == kSourceInput) {
    // Injection queue carries only VN0 packets.
    return vn == 0 ? &r.source_queue : nullptr;
  }
  VFIMR_REQUIRE(idx >= 0 && static_cast<std::size_t>(idx) < r.in.size());
  return &r.in[static_cast<std::size_t>(idx)].buf[vn];
}

std::uint32_t Network::output_for_edge(const RouterState& r,
                                       graph::EdgeId e) const {
  for (std::size_t i = 0; i < r.out.size(); ++i) {
    if (r.out[i].kind == OutKind::kWire && r.out[i].edge == e) {
      return static_cast<std::uint32_t>(i);
    }
  }
  VFIMR_REQUIRE_MSG(false, "no output port for edge");
  return 0;
}

bool Network::downstream_has_space(const OutPort& out, std::size_t vn) const {
  VFIMR_REQUIRE(out.kind == OutKind::kWire);
  const auto& nb = routers_[out.neighbor];
  const auto& in = nb.in[out.downstream_in];
  return in.buf[vn].size() < in.capacity;
}

void Network::eject_router(graph::NodeId n, Cycle now) {
  auto& r = routers_[n];
  auto try_eject = [&](std::deque<Flit>& q) {
    if (q.empty()) return;
    Flit& f = q.front();
    if (f.dest != n || f.ready_cycle > now) return;
    ++metrics_.energy.buffer_reads;
    ++metrics_.flits_ejected;
    --in_flight_flits_;
    if (f.is_tail()) {
      ++metrics_.packets_ejected;
      metrics_.packet_latency.add(static_cast<double>(now - f.inject_cycle));
      if (tele_ != nullptr) {
        const double latency = static_cast<double>(now - f.inject_cycle);
        tele_latency_->add(latency);
        tele_hops_->add(static_cast<double>(f.hops));
        if (f.packet % kNocPacketSampleEvery == 0) {
          tele_->tracer().complete(
              tele_packets_track_,
              "pkt " + std::to_string(f.src) + "->" + std::to_string(f.dest),
              static_cast<double>(f.inject_cycle), latency,
              {{"hops", static_cast<double>(f.hops)},
               {"flits", static_cast<double>(f.size)}});
        }
      }
    }
    q.pop_front();
    VFIMR_REQUIRE(ejectable_flits_[n] > 0);
    --ejectable_flits_[n];
    note_departure(n);
  };
  for (auto& in : r.in) {
    for (std::size_t vn = 0; vn < kVns; ++vn) try_eject(in.buf[vn]);
  }
}

void Network::eject_ready_flits() {
  const Cycle now = metrics_.cycles;
  if (cfg_.reference_stepping) {
    for (graph::NodeId n = 0; n < routers_.size(); ++n) eject_router(n, now);
    return;
  }
  for (graph::NodeId n : active_list_) {
    // Through-traffic-only routers have nothing the eject stage could take;
    // the naive probe of every input buffer would find no dest == n front.
    if (ejectable_flits_[n] == 0) continue;
    eject_router(n, now);
  }
}

std::int32_t Network::arbitrate(graph::NodeId node, std::uint32_t out_idx,
                                std::size_t vn) {
  auto& r = routers_[node];
  auto& out = r.out[out_idx];
  auto& owner = out.vn[vn];
  const Cycle now = metrics_.cycles;
  const auto candidates = static_cast<std::uint32_t>(r.in.size()) + 1;
  for (std::uint32_t k = 0; k < candidates; ++k) {
    const std::uint32_t slot = (owner.rr_next + k) % candidates;
    const std::int32_t idx = slot == static_cast<std::uint32_t>(r.in.size())
                                 ? kSourceInput
                                 : static_cast<std::int32_t>(slot);
    auto* q = input_queue(r, idx, vn);
    if (q == nullptr || q->empty()) continue;
    const Flit& f = q->front();
    if (!f.is_head() || f.ready_cycle > now || f.dest == node) continue;
    VFIMR_REQUIRE(f.vn == vn);
    const RouteDecision dec =
        active_routing_->next_hop(node, f.dest, f.down_phase, f.vn == 1);
    // Fault hole: the destination is unreachable right now.  Not a
    // candidate; the backoff pre-pass owns the retry/loss bookkeeping.
    if (dec.edge == graph::kInvalidId) continue;
    const auto& ed = topo_->graph.edge(dec.edge);
    std::uint32_t target = 0;
    graph::NodeId wi_dest = graph::kInvalidId;
    if (ed.kind == graph::EdgeKind::kWireless) {
      VFIMR_REQUIRE_MSG(r.wireless_tx >= 0,
                        "route uses wireless at a non-WI node");
      VFIMR_REQUIRE_MSG(f.size <= kWiBufferDepth,
                        "packet larger than the WI buffer cannot cross a "
                        "wireless link");
      VFIMR_REQUIRE_MSG(f.vn == 0,
                        "route takes a second wireless hop (layered routing "
                        "supports one wireless segment per packet)");
      // Virtual cut-through at the wireless boundary: admit a packet into
      // the TX queue only when the whole packet fits.  Together with
      // whole-packet channel reservation (service_wireless_channels) this
      // decouples the wireless layer and keeps the token MAC deadlock-free.
      if (r.tx_queue.size() + f.size > kWiBufferDepth) continue;
      target = static_cast<std::uint32_t>(r.wireless_tx);
      wi_dest = topo_->graph.other_end(dec.edge, node);
    } else {
      target = output_for_edge(r, dec.edge);
    }
    if (target != out_idx) continue;
    // Grant: this input streams the whole packet through `out` on `vn`.
    owner.owner_input = idx;
    owner.owner_packet = f.packet;
    owner.remaining = f.size;
    owner.wi_dest = wi_dest;
    owner.owner_down_phase = dec.down_phase;
    owner.rr_next = (slot + 1) % candidates;
    return idx;
  }
  return -1;
}

std::int32_t Network::candidate_target(graph::NodeId node, std::int32_t idx,
                                       std::size_t vn) {
  auto& r = routers_[node];
  auto* q = input_queue(r, idx, vn);
  if (q == nullptr || q->empty()) return -1;
  Flit& f = q->front();
  if (!f.is_head() || f.ready_cycle > metrics_.cycles || f.dest == node) {
    return -1;
  }
  VFIMR_REQUIRE(f.vn == vn);
  if (f.route_node != node || f.route_epoch != route_epoch_) {
    // First probe of this head at this router (or the tables were rebuilt
    // after a fault): resolve the route once and memoize it on the flit
    // (next_hop is pure in (node, dest, phase, vn) within a route epoch).
    const RouteDecision dec =
        active_routing_->next_hop(node, f.dest, f.down_phase, f.vn == 1);
    // Fault hole — same non-candidate treatment as the reference
    // arbitrate(); nothing is memoized so the next probe re-resolves.
    if (dec.edge == graph::kInvalidId) return -1;
    const auto& ed = topo_->graph.edge(dec.edge);
    if (ed.kind == graph::EdgeKind::kWireless) {
      VFIMR_REQUIRE_MSG(r.wireless_tx >= 0,
                        "route uses wireless at a non-WI node");
      VFIMR_REQUIRE_MSG(f.size <= kWiBufferDepth,
                        "packet larger than the WI buffer cannot cross a "
                        "wireless link");
      VFIMR_REQUIRE_MSG(f.vn == 0,
                        "route takes a second wireless hop (layered routing "
                        "supports one wireless segment per packet)");
      f.route_out = r.wireless_tx;
      f.route_wi_dest = topo_->graph.other_end(dec.edge, node);
    } else {
      f.route_out = static_cast<std::int32_t>(output_for_edge(r, dec.edge));
      f.route_wi_dest = graph::kInvalidId;
    }
    f.route_down_phase = dec.down_phase;
    f.route_node = node;
    f.route_epoch = route_epoch_;
  }
  // Same wireless admission rule as the reference arbitrate(): a candidate
  // whose packet does not fit the TX queue right now is no candidate.
  if (f.route_wi_dest != graph::kInvalidId &&
      r.tx_queue.size() + f.size > kWiBufferDepth) {
    return -1;
  }
  return f.route_out;
}

void Network::refresh_candidate(graph::NodeId node, std::int32_t idx,
                                std::size_t vn) {
  auto& r = routers_[node];
  const std::uint32_t slot = idx == kSourceInput
                                 ? static_cast<std::uint32_t>(r.in.size())
                                 : static_cast<std::uint32_t>(idx);
  const std::uint16_t bit = static_cast<std::uint16_t>(1u << slot);
  const std::int32_t target = candidate_target(node, idx, vn);
  for (std::size_t o = 0; o < r.out.size(); ++o) {
    if (static_cast<std::int32_t>(o) == target) {
      r.out[o].cand[vn] |= bit;
    } else {
      r.out[o].cand[vn] &= static_cast<std::uint16_t>(~bit);
    }
  }
}

void Network::build_candidate_masks(graph::NodeId node) {
  auto& r = routers_[node];
  for (auto& out : r.out) {
    out.cand[0] = 0;
    out.cand[1] = 0;
  }
  const std::uint32_t inputs = static_cast<std::uint32_t>(r.in.size());
  for (std::size_t vn = 0; vn < kVns; ++vn) {
    for (std::uint32_t i = 0; i < inputs; ++i) {
      if (r.in[i].buf[vn].empty()) continue;  // cheap guard, no call
      const std::int32_t target =
          candidate_target(node, static_cast<std::int32_t>(i), vn);
      if (target >= 0) {
        r.out[static_cast<std::size_t>(target)].cand[vn] |=
            static_cast<std::uint16_t>(1u << i);
      }
    }
    if (vn == 0 && !r.source_queue.empty()) {
      const std::int32_t target = candidate_target(node, kSourceInput, vn);
      if (target >= 0) {
        r.out[static_cast<std::size_t>(target)].cand[vn] |=
            static_cast<std::uint16_t>(1u << inputs);
      }
    }
  }
}

std::int32_t Network::arbitrate_fast(graph::NodeId node, std::uint32_t out_idx,
                                     std::size_t vn) {
  auto& r = routers_[node];
  auto& out = r.out[out_idx];
  auto& owner = out.vn[vn];
  const std::uint16_t mask = out.cand[vn];
  if (mask == 0) return -1;
  const auto candidates = static_cast<std::uint32_t>(r.in.size()) + 1;
  for (std::uint32_t k = 0; k < candidates; ++k) {
    const std::uint32_t slot = (owner.rr_next + k) % candidates;
    if ((mask & (1u << slot)) == 0) continue;
    const std::int32_t idx = slot == static_cast<std::uint32_t>(r.in.size())
                                 ? kSourceInput
                                 : static_cast<std::int32_t>(slot);
    // The mask bit guarantees a grantable, route-memoized front head.
    const Flit& f = input_queue(r, idx, vn)->front();
    owner.owner_input = idx;
    owner.owner_packet = f.packet;
    owner.remaining = f.size;
    owner.wi_dest = f.route_wi_dest;
    owner.owner_down_phase = f.route_down_phase;
    owner.rr_next = (slot + 1) % candidates;
    return idx;
  }
  return -1;
}

bool Network::try_move_vn(graph::NodeId node, OutPort& out, std::size_t vn) {
  auto& r = routers_[node];
  auto& owner = out.vn[vn];
  const Cycle now = metrics_.cycles;
  if (owner.owner_input == -1) {
    const auto out_idx = static_cast<std::uint32_t>(&out - r.out.data());
    const std::int32_t granted = cfg_.reference_stepping
                                     ? arbitrate(node, out_idx, vn)
                                     : arbitrate_fast(node, out_idx, vn);
    if (granted < 0) return false;
  }
  auto* q = input_queue(r, owner.owner_input, vn);
  if (q == nullptr || q->empty()) return false;
  Flit& f = q->front();
  if (f.packet != owner.owner_packet || f.ready_cycle > now) return false;

  // Flow control: check downstream capacity.
  if (out.kind == OutKind::kWire) {
    if (!downstream_has_space(out, vn)) return false;
  } else {
    if (r.tx_queue.size() >= kWiBufferDepth) return false;
  }

  Flit moved = f;
  q->pop_front();
  ++metrics_.energy.buffer_reads;
  if (tele_ != nullptr && out.kind == OutKind::kWire) ++moved.hops;
  moved.ready_cycle = now + 1;
  if (out.kind == OutKind::kWire && !cfg_.node_cluster.empty() &&
      cfg_.node_cluster[node] != cfg_.node_cluster[out.neighbor]) {
    moved.ready_cycle += cfg_.sync_penalty_cycles;  // VFI boundary crossing
  }
  if (moved.is_head()) moved.down_phase = owner.owner_down_phase;
  ++metrics_.energy.switch_traversals;
  if (out.kind == OutKind::kWire) {
    ++metrics_.energy.wire_hops;
    metrics_.energy.wire_mm_flits += out.length_mm;
    ++edge_flits_[out.edge];
    auto& nb = routers_[out.neighbor];
    nb.in[out.downstream_in].buf[vn].push_back(moved);
    if (moved.dest == out.neighbor) ++ejectable_flits_[out.neighbor];
    ++metrics_.energy.buffer_writes;
    note_departure(node);
    note_arrival(out.neighbor, 1);
  } else {
    // Input queue -> same router's TX queue: resident count is unchanged.
    moved.wi_dest = owner.wi_dest;
    r.tx_queue.push_back(moved);
    ++metrics_.energy.buffer_writes;
  }
  VFIMR_REQUIRE(owner.remaining > 0);
  const std::int32_t moved_input = owner.owner_input;
  if (--owner.remaining == 0) {
    owner.owner_input = -1;
    owner.wi_dest = graph::kInvalidId;
  }
  if (!cfg_.reference_stepping) {
    // The popped queue has a new front (possibly the next packet's head,
    // grantable by another output later this same cycle): update its
    // candidate bit exactly as the naive re-scan would observe it.
    refresh_candidate(node, moved_input, vn);
  }
  return true;
}

void Network::move_through_output(graph::NodeId node, OutPort& out) {
  // One flit per output per cycle; round-robin the virtual networks so
  // neither can starve the other on the shared physical link.
  for (std::size_t k = 0; k < kVns; ++k) {
    const std::size_t vn = (out.vn_rr + k) % kVns;
    if (!cfg_.reference_stepping && out.vn[vn].owner_input == -1 &&
        out.cand[vn] == 0) {
      // Free output with no candidate head: arbitration cannot grant and
      // there is no in-flight packet to continue — the naive probe returns
      // false without touching any state.
      continue;
    }
    if (try_move_vn(node, out, vn)) {
      out.vn_rr = (vn + 1) % kVns;
      return;
    }
  }
}

void Network::service_router(graph::NodeId n) {
  if (!cfg_.reference_stepping) build_candidate_masks(n);
  for (auto& out : routers_[n].out) {
    move_through_output(n, out);
  }
}

void Network::service_router_outputs() {
  if (cfg_.reference_stepping) {
    for (graph::NodeId n = 0; n < routers_.size(); ++n) service_router(n);
    return;
  }
  // A router with no resident flits cannot grant or move anything (every
  // action needs a front flit at this router), and mid-step arrivals carry
  // ready_cycle == now + 1, so skipping routers activated after the refresh
  // matches the naive visit outcome exactly.
  for (graph::NodeId n : active_list_) service_router(n);
}

void Network::step() {
  if (faults_enabled_) {
    // Flush last cycle's lost packets before applying new fault events so a
    // packet can never be counted lost twice (once by the retry-exhaustion
    // purge, once as a casualty of a newly dead element).
    if (!pending_lost_.empty()) {
      purge_packets(pending_lost_);
      pending_lost_.clear();
    }
    apply_fault_events();
    if (degraded_routing_active_) backoff_unroutable_heads();
  }
  if (!cfg_.reference_stepping) refresh_active_list();
  eject_ready_flits();
  service_wireless_channels();
  service_router_outputs();
  ++metrics_.cycles;
}

void Network::run(TrafficGenerator* gen, Cycle cycles) {
  std::vector<Injection> staged;
  for (Cycle c = 0; c < cycles; ++c) {
    if (gen != nullptr) {
      staged.clear();
      gen->tick(metrics_.cycles, staged);
      for (const auto& inj : staged) {
        if (inj.src != inj.dest) {
          inject(inj.src, inj.dest, inj.flits);
        } else {
          // Self-traffic is serviced locally (never enters the network) but
          // still counts toward the generator's offered load.
          ++metrics_.packets_local;
        }
      }
    }
    step();
  }
}

Cycle Network::next_front_ready_cycle() const {
  Cycle earliest = ~Cycle{0};
  auto consider = [&](const std::deque<Flit>& q) {
    if (!q.empty()) earliest = std::min(earliest, q.front().ready_cycle);
  };
  for (graph::NodeId n : active_list_) {
    const auto& r = routers_[n];
    consider(r.source_queue);
    consider(r.tx_queue);
    for (const auto& in : r.in) {
      for (std::size_t vn = 0; vn < kVns; ++vn) consider(in.buf[vn]);
    }
  }
  return earliest;
}

bool Network::drain(Cycle max_cycles) {
  if (cfg_.reference_stepping) {
    for (Cycle c = 0; c < max_cycles && in_flight_flits_ > 0; ++c) step();
    return in_flight_flits_ == 0;
  }
  Cycle budget = max_cycles;
  while (budget > 0 && in_flight_flits_ > 0) {
    refresh_active_list();
    Cycle ready = next_front_ready_cycle();
    if (faults_enabled_ && next_fault_event_ < fault_timeline_.size()) {
      // Never skip past a scheduled fault transition: the idle-skip model
      // (only token rotation advances) stops holding once topology changes.
      ready = std::min(ready, fault_timeline_[next_fault_event_].cycle);
    }
    if (ready > metrics_.cycles) {
      // Every queued flit is waiting on a synchronizer/propagation delay:
      // skip straight to the cycle where the earliest one becomes ready.
      const Cycle delta = std::min<Cycle>(ready - metrics_.cycles, budget);
      advance_idle_cycles(delta);
      budget -= delta;
      continue;
    }
    step();
    --budget;
  }
  return in_flight_flits_ == 0;
}

double Network::max_link_utilization() const {
  if (metrics_.cycles == 0) return 0.0;
  std::uint64_t peak = 0;
  for (std::uint64_t f : edge_flits_) peak = std::max(peak, f);
  return static_cast<double>(peak) / static_cast<double>(metrics_.cycles);
}

}  // namespace vfimr::noc
