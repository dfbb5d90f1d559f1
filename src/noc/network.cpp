#include "noc/network.hpp"

#include <algorithm>
#include <bit>

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
                 SimConfig config, WirelessConfig wireless,
                 DegradedRoutes* degraded_routes)
    : topo_{&topology},
      routing_{&routing},
      cfg_{config},
      degraded_routes_{degraded_routes} {
  const auto& g = topo_->graph;
  routers_.resize(g.node_count());
  edge_flits_.assign(g.edge_count(), 0);
  resident_flits_.assign(g.node_count(), 0);
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
      for (auto& q : in.buf) q = FlitQueue{kWireBufferDepth};
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

  // The fast-path candidate masks hold one bit per input slot + source
  // (and there is one output per input, so `live_outs` has room too).
  for (auto& r : routers_) {
    VFIMR_REQUIRE_MSG(r.in.size() + 1 <= kMaxSlots,
                      "router has too many input ports for the candidate "
                      "bitmask fast path");
    for (auto& per_vn : r.cand_out) {
      std::fill(std::begin(per_vn), std::end(per_vn), std::int8_t{-1});
    }
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
  const bool was_empty = q.empty();
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
  if (was_empty) refresh_candidate(src, kSourceInput, 0);
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
  if (--resident_flits_[n] == 0) router_emptied_ = true;
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
  if (!router_emptied_) return;
  router_emptied_ = false;
  std::erase_if(active_list_, [&](graph::NodeId n) {
    if (resident_flits_[n] > 0) return false;
    active_flags_[n] = false;
    return true;
  });
}

FlitQueue* Network::input_queue(RouterState& r, std::int32_t idx,
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

void Network::eject_router(graph::NodeId n, Cycle now, std::uint32_t queues) {
  auto& r = routers_[n];
  // Bit 2 * input + vn, so ascending bits visit the queues in port order.
  for (; queues != 0; queues &= queues - 1) {
    const auto bit = static_cast<std::uint32_t>(std::countr_zero(queues));
    const std::uint32_t i = bit / kVns;
    const std::size_t vn = bit % kVns;
    FlitQueue& q = r.in[i].buf[vn];
    if (q.empty()) continue;
    const Flit& f = q.front();
    if (f.dest != n || f.ready_cycle > now) continue;
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
    note_departure(n);
    refresh_candidate(n, static_cast<std::int32_t>(i), vn);
  }
}

void Network::eject_ready_flits() {
  const Cycle now = metrics_.cycles;
  if (cfg_.reference_stepping) {
    for (graph::NodeId n = 0; n < routers_.size(); ++n) {
      const std::size_t queues = routers_[n].in.size() * kVns;
      eject_router(n, now, static_cast<std::uint32_t>((1ull << queues) - 1));
    }
    return;
  }
  for (graph::NodeId n : active_list_) {
    // Only the queues whose front is addressed here can eject; most active
    // routers hold through-traffic only.  The queues an eject exposes are
    // not revisited this cycle, as in the naive probe of every queue.
    const std::uint32_t queues = routers_[n].eject_fronts;
    if (queues != 0) eject_router(n, now, queues);
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
  if (!f.is_head() || f.dest == node) return -1;
  VFIMR_REQUIRE(f.vn == vn);
  if (f.route_node != node || f.route_epoch != route_epoch_) {
    // First probe of this head at this router (or the tables were rebuilt
    // after a fault): resolve the route once and memoize it on the flit
    // (next_hop is pure in (node, dest, phase, vn) within a route epoch).
    const RouteDecision dec =
        active_routing_->next_hop(node, f.dest, f.down_phase, f.vn == 1);
    // Fault hole — never a candidate, as in the reference arbitrate();
    // nothing is memoized, and the hole lasts until the next table swap.
    if (dec.edge == graph::kInvalidId) return kHoleTarget;
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
      f.route_out = static_cast<std::int16_t>(r.wireless_tx);
      f.route_wi_dest = topo_->graph.other_end(dec.edge, node);
    } else {
      f.route_out = static_cast<std::int16_t>(output_for_edge(r, dec.edge));
      f.route_wi_dest = graph::kInvalidId;
    }
    f.route_down_phase = dec.down_phase;
    f.route_node = node;
    f.route_epoch = route_epoch_;
  }
  return f.route_out;
}

void Network::refresh_candidate(graph::NodeId node, std::int32_t idx,
                                std::size_t vn) {
  if (cfg_.reference_stepping) return;
  auto& r = routers_[node];
  if (idx != kSourceInput) {
    const FlitQueue& q = r.in[static_cast<std::size_t>(idx)].buf[vn];
    const std::uint32_t queue_bit =
        1u << (static_cast<std::uint32_t>(idx) * kVns + vn);
    if (!q.empty() && q.front().dest == node) {
      r.eject_fronts |= queue_bit;
    } else {
      r.eject_fronts &= ~queue_bit;
    }
  }
  const std::uint32_t slot = idx == kSourceInput
                                 ? static_cast<std::uint32_t>(r.in.size())
                                 : static_cast<std::uint32_t>(idx);
  const auto bit = static_cast<std::uint16_t>(1u << slot);
  const std::int32_t target = candidate_target(node, idx, vn);
  std::int8_t& held = r.cand_out[vn][slot];
  if (held >= 0) {
    r.out[static_cast<std::size_t>(held)].cand[vn] &=
        static_cast<std::uint16_t>(~bit);
  }
  held = -1;
  if (target >= 0) {
    r.out[static_cast<std::size_t>(target)].cand[vn] |= bit;
    r.live_outs |= 1u << target;
    held = static_cast<std::int8_t>(target);
  }
  if (target == kHoleTarget) {
    r.hole_slots[vn] |= bit;
  } else {
    r.hole_slots[vn] &= static_cast<std::uint16_t>(~bit);
  }
}

void Network::refresh_all_candidates(graph::NodeId node) {
  const auto inputs = static_cast<std::int32_t>(routers_[node].in.size());
  for (std::size_t vn = 0; vn < kVns; ++vn) {
    for (std::int32_t i = 0; i < inputs; ++i) refresh_candidate(node, i, vn);
  }
  refresh_candidate(node, kSourceInput, 0);
}

std::int32_t Network::arbitrate_fast(graph::NodeId node, std::uint32_t out_idx,
                                     std::size_t vn) {
  auto& r = routers_[node];
  auto& out = r.out[out_idx];
  auto& owner = out.vn[vn];
  const Cycle now = metrics_.cycles;
  const auto inputs = static_cast<std::uint32_t>(r.in.size());
  const std::uint32_t mask = out.cand[vn];
  // Round-robin from rr_next: the set bits at or above it, then the rest —
  // the slot order of the reference scan, which skips every slot without
  // a bit.  A bit vouches for a routed head; readiness and wireless
  // admission change without the front changing, so they are checked here.
  const std::uint32_t from_rr = mask & ~((1u << owner.rr_next) - 1u);
  for (std::uint32_t pending : {from_rr, mask & ~from_rr}) {
    for (; pending != 0; pending &= pending - 1) {
      const auto slot = static_cast<std::uint32_t>(std::countr_zero(pending));
      const std::int32_t idx =
          slot == inputs ? kSourceInput : static_cast<std::int32_t>(slot);
      const Flit& f = input_queue(r, idx, vn)->front();
      if (f.ready_cycle > now) continue;
      if (f.route_wi_dest != graph::kInvalidId &&
          r.tx_queue.size() + f.size > kWiBufferDepth) {
        continue;
      }
      owner.owner_input = idx;
      owner.owner_packet = f.packet;
      owner.remaining = f.size;
      owner.wi_dest = f.route_wi_dest;
      owner.owner_down_phase = f.route_down_phase;
      owner.rr_next = (slot + 1) % (inputs + 1);
      return idx;
    }
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

  // Copy the flit straight into its next queue (the neighbor's input
  // buffer or this router's TX queue, never `q`) and update it there.
  const bool wire = out.kind == OutKind::kWire;
  FlitQueue& next =
      wire ? routers_[out.neighbor].in[out.downstream_in].buf[vn]
           : r.tx_queue;
  next.push_back(f);
  q->pop_front();
  Flit& moved = next.back();
  ++metrics_.energy.buffer_reads;
  if (tele_ != nullptr && wire) ++moved.hops;
  moved.ready_cycle = now + 1;
  if (wire && !cfg_.node_cluster.empty() &&
      cfg_.node_cluster[node] != cfg_.node_cluster[out.neighbor]) {
    moved.ready_cycle += cfg_.sync_penalty_cycles;  // VFI boundary crossing
  }
  if (moved.is_head()) moved.down_phase = owner.owner_down_phase;
  ++metrics_.energy.switch_traversals;
  ++metrics_.energy.buffer_writes;
  if (wire) {
    ++metrics_.energy.wire_hops;
    metrics_.energy.wire_mm_flits += out.length_mm;
    ++edge_flits_[out.edge];
    note_departure(node);
    note_arrival(out.neighbor, 1);
    if (next.size() == 1) {
      refresh_candidate(out.neighbor,
                        static_cast<std::int32_t>(out.downstream_in), vn);
    }
  } else {
    // Input queue -> same router's TX queue: resident count is unchanged.
    moved.wi_dest = owner.wi_dest;
  }
  VFIMR_REQUIRE(owner.remaining > 0);
  const std::int32_t moved_input = owner.owner_input;
  if (--owner.remaining == 0) {
    owner.owner_input = -1;
    owner.wi_dest = graph::kInvalidId;
  }
  // The popped queue has a new front (possibly the next packet's head,
  // grantable by another output later this same cycle): update its
  // candidate bit exactly as the naive re-scan would observe it.
  refresh_candidate(node, moved_input, vn);
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
  auto& r = routers_[n];
  if (cfg_.reference_stepping) {
    for (auto& out : r.out) move_through_output(n, out);
    return;
  }
  // The live outputs in index order.  The set is re-read after each visit:
  // a pop can expose a head for a later output in this same cycle, as the
  // naive visit of every output would observe.
  for (std::uint32_t o = 0; o < 32; ++o) {
    const std::uint32_t rest = r.live_outs >> o;
    if (rest == 0) break;
    o += static_cast<std::uint32_t>(std::countr_zero(rest));
    OutPort& out = r.out[o];
    move_through_output(n, out);
    if (out.cand[0] == 0 && out.cand[1] == 0 &&
        out.vn[0].owner_input == -1 && out.vn[1].owner_input == -1) {
      r.live_outs &= ~(1u << o);
    }
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
  }
  if (!cfg_.reference_stepping) refresh_active_list();
  if (degraded_routing_active_ &&
      (cfg_.reference_stepping || degraded_routing_->has_holes())) {
    backoff_unroutable_heads();
  }
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
  auto consider = [&](const FlitQueue& q) {
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
