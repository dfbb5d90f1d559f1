#include "noc/network.hpp"

#include <algorithm>
#include <bit>

#include "common/require.hpp"
#include "telemetry/telemetry.hpp"

// Fault injection & graceful degradation (DESIGN.md §9): timeline expansion,
// down/up transition application, casualty collection and packet purge,
// degraded-route rebuilds and the unroutable-head backoff pre-pass.  Split
// out of network.cpp so the wormhole core stays navigable; behavior is
// bit-identical to the pre-split monolith.

namespace vfimr::noc {

void Network::build_fault_timeline() {
  const auto& g = topo_->graph;
  for (const auto& ev : cfg_.faults.events()) {
    switch (ev.kind) {
      case faults::NocFaultKind::kLink:
        VFIMR_REQUIRE_MSG(ev.id < g.edge_count(),
                          "link fault id out of range");
        break;
      case faults::NocFaultKind::kRouter:
        VFIMR_REQUIRE_MSG(ev.id < g.node_count(),
                          "router fault id out of range");
        break;
      case faults::NocFaultKind::kWi:
        VFIMR_REQUIRE_MSG(
            ev.id < g.node_count() && routers_[ev.id].wireless_tx >= 0,
            "WI fault on a node without a wireless interface");
        break;
    }
    fault_timeline_.push_back(FaultEvent{ev.at_cycle, ev.kind, ev.id, true});
    if (ev.transient()) {
      VFIMR_REQUIRE_MSG(ev.until_cycle > ev.at_cycle,
                        "transient fault repairs before it strikes");
      fault_timeline_.push_back(
          FaultEvent{ev.until_cycle, ev.kind, ev.id, false});
    }
  }
  // Stable sort: same-cycle transitions apply in schedule order.
  std::stable_sort(
      fault_timeline_.begin(), fault_timeline_.end(),
      [](const FaultEvent& a, const FaultEvent& b) { return a.cycle < b.cycle; });
}

void Network::apply_fault_events() {
  bool changed = false;
  while (next_fault_event_ < fault_timeline_.size() &&
         fault_timeline_[next_fault_event_].cycle <= metrics_.cycles) {
    const FaultEvent& ev = fault_timeline_[next_fault_event_++];
    std::uint32_t& down =
        ev.kind == faults::NocFaultKind::kLink     ? edge_down_[ev.id]
        : ev.kind == faults::NocFaultKind::kRouter ? router_down_[ev.id]
                                                   : wi_down_[ev.id];
    if (ev.down) {
      ++down;
    } else {
      VFIMR_REQUIRE(down > 0);
      --down;
    }
    ++metrics_.fault_events;
    changed = true;
    if (tele_ != nullptr) {
      tele_fault_events_->add();
      tele_->tracer().instant(
          tele_faults_track_,
          std::string{faults::kind_name(ev.kind)} + (ev.down ? " down" : " up"),
          static_cast<double>(metrics_.cycles),
          {{"id", static_cast<double>(ev.id)}});
    }
  }
  if (changed) recompute_fault_state();
}

void Network::recompute_fault_state() {
  const auto& g = topo_->graph;
  std::vector<PacketId> poisoned;
  bool any_down = false;
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
    const auto& ed = g.edge(e);
    bool usable = edge_down_[e] == 0 && router_down_[ed.a] == 0 &&
                  router_down_[ed.b] == 0;
    if (usable && ed.kind == graph::EdgeKind::kWireless) {
      usable = wi_down_[ed.a] == 0 && wi_down_[ed.b] == 0;
    }
    if (!usable) {
      any_down = true;
      if (edge_usable_[e]) collect_edge_casualties(e, poisoned);
    }
    edge_usable_[e] = usable;
  }
  for (graph::NodeId n = 0; n < g.node_count(); ++n) {
    if (router_down_[n] > 0) {
      any_down = true;
      collect_router_casualties(n, poisoned);
    } else if (wi_down_[n] > 0) {
      any_down = true;
      collect_wi_casualties(n, poisoned);
    }
  }
  purge_packets(poisoned);
  reset_route_state();
  if (any_down || degraded_routing_active_) {
    // Rebuild hole-tolerant tables over the surviving edges.  Once any
    // fault has fired these stay active even after every element repairs:
    // in-flight heads may carry down-phase bits from an older tree that the
    // original (hole-intolerant) tables would refuse to route.
    // The tables are a pure function of the mask, so a memo shared by
    // the networks over this topology builds each mask's tables once; a
    // memo hit still counts as a rebuild (a table swap).
    const auto build = [&] {
      UpDownOptions opts;
      opts.wireless_cost = kFaultRerouteWirelessCost;
      opts.edge_alive = &edge_usable_;
      opts.allow_unreachable = true;
      return std::make_shared<const UpDownRouting>(g, opts);
    };
    if (degraded_routes_ != nullptr) {
      std::string mask(edge_usable_.size(), '\0');
      for (std::size_t e = 0; e < mask.size(); ++e) {
        mask[e] = static_cast<char>(edge_usable_[e]);
      }
      degraded_routing_ = degraded_routes_->get(mask, build);
    } else {
      degraded_routing_ = build();
    }
    active_routing_ = degraded_routing_.get();
    degraded_routing_active_ = true;
    ++metrics_.route_rebuilds;
  }
  if (!cfg_.reference_stepping) {
    // New tables, restarted phases: every front's candidate bit is stale.
    for (graph::NodeId n = 0; n < routers_.size(); ++n) {
      if (resident_flits_[n] > 0) refresh_all_candidates(n);
    }
  }
}

bool Network::owner_streamed(RouterState& r, const OwnerState& owner,
                             std::size_t vn) {
  if (owner.owner_input == -1) return false;
  auto* q = input_queue(r, owner.owner_input, vn);
  // If the granted packet's head is still at the front, nothing moved yet.
  return q == nullptr || q->empty() ||
         q->front().packet != owner.owner_packet || !q->front().is_head();
}

void Network::collect_edge_casualties(graph::EdgeId e,
                                      std::vector<PacketId>& out) {
  const auto& ed = topo_->graph.edge(e);
  if (ed.kind == graph::EdgeKind::kWire) {
    // A packet mid-stream over a dead wire link is cut in two and lost.
    // Grants that have not streamed a flit yet are spared: reset_route_state
    // releases them and the packet re-arbitrates around the dead link.
    for (const graph::NodeId n : {ed.a, ed.b}) {
      auto& r = routers_[n];
      for (auto& op : r.out) {
        if (op.kind != OutKind::kWire || op.edge != e) continue;
        for (std::size_t vn = 0; vn < kVns; ++vn) {
          if (owner_streamed(r, op.vn[vn], vn)) {
            out.push_back(op.vn[vn].owner_packet);
          }
        }
      }
    }
    return;
  }
  // Wireless edge: flits committed to the dead hop (queued at either TX with
  // the far end as wi_dest) and packets mid-transmission are lost.
  const graph::NodeId ends[2] = {ed.a, ed.b};
  for (int i = 0; i < 2; ++i) {
    auto& r = routers_[ends[i]];
    const graph::NodeId far = ends[1 - i];
    r.tx_queue.for_each([&](const Flit& f) {
      if (f.wi_dest == far) out.push_back(f.packet);
    });
    if (r.wireless_tx >= 0) {
      auto& op = r.out[static_cast<std::size_t>(r.wireless_tx)];
      for (std::size_t vn = 0; vn < kVns; ++vn) {
        if (op.vn[vn].wi_dest == far && owner_streamed(r, op.vn[vn], vn)) {
          out.push_back(op.vn[vn].owner_packet);
        }
      }
    }
  }
}

void Network::collect_router_casualties(graph::NodeId n,
                                        std::vector<PacketId>& out) {
  // A dead router loses everything it holds.  Re-collection while it stays
  // down is a no-op: routes avoid it, injection at it is refused, and its
  // queues were emptied when it first went down.
  auto& r = routers_[n];
  const auto collect = [&](const Flit& f) { out.push_back(f.packet); };
  r.source_queue.for_each(collect);
  r.tx_queue.for_each(collect);
  for (auto& in : r.in) {
    for (std::size_t vn = 0; vn < kVns; ++vn) in.buf[vn].for_each(collect);
  }
  for (auto& op : r.out) {
    for (std::size_t vn = 0; vn < kVns; ++vn) {
      if (op.vn[vn].owner_input != -1) out.push_back(op.vn[vn].owner_packet);
    }
  }
}

void Network::collect_wi_casualties(graph::NodeId n,
                                    std::vector<PacketId>& out) {
  // Only the wireless interface died; the router keeps switching wire
  // traffic.  Flits already queued for (or mid-way through) a wireless
  // transmission are lost; everything else reroutes over the wire mesh.
  auto& r = routers_[n];
  r.tx_queue.for_each([&](const Flit& f) { out.push_back(f.packet); });
  if (r.wireless_tx >= 0) {
    auto& op = r.out[static_cast<std::size_t>(r.wireless_tx)];
    for (std::size_t vn = 0; vn < kVns; ++vn) {
      if (owner_streamed(r, op.vn[vn], vn)) {
        out.push_back(op.vn[vn].owner_packet);
      }
    }
  }
}

void Network::purge_packets(std::vector<PacketId>& ids) {
  if (ids.empty()) return;
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  const auto hit = [&](PacketId p) {
    return std::binary_search(ids.begin(), ids.end(), p);
  };
  std::uint64_t removed_total = 0;
  for (graph::NodeId n = 0; n < routers_.size(); ++n) {
    auto& r = routers_[n];
    std::uint64_t removed = 0;
    const auto sweep = [&](FlitQueue& q) {
      q.erase_if([&](const Flit& f) {
        if (!hit(f.packet)) return false;
        ++removed;
        return true;
      });
    };
    sweep(r.source_queue);
    sweep(r.tx_queue);
    for (auto& in : r.in) {
      for (std::size_t vn = 0; vn < kVns; ++vn) sweep(in.buf[vn]);
    }
    for (auto& op : r.out) {
      for (std::size_t vn = 0; vn < kVns; ++vn) {
        auto& owner = op.vn[vn];
        if (owner.owner_input != -1 && hit(owner.owner_packet)) {
          owner.owner_input = -1;
          owner.remaining = 0;
          owner.wi_dest = graph::kInvalidId;
        }
      }
    }
    if (removed > 0) {
      VFIMR_REQUIRE(resident_flits_[n] >= removed);
      resident_flits_[n] -= removed;
      if (resident_flits_[n] == 0) router_emptied_ = true;
      removed_total += removed;
      refresh_all_candidates(n);
    }
  }
  for (auto& ch : channels_) {
    if (ch.mid_packet && hit(ch.mid_packet_id)) ch.mid_packet = false;
  }
  VFIMR_REQUIRE(in_flight_flits_ >= removed_total);
  in_flight_flits_ -= removed_total;
  metrics_.flits_lost += removed_total;
  metrics_.packets_lost += ids.size();
  if (tele_ != nullptr) {
    tele_lost_->add(ids.size());
    tele_->tracer().instant(tele_faults_track_, "purge",
                            static_cast<double>(metrics_.cycles),
                            {{"packets", static_cast<double>(ids.size())},
                             {"flits", static_cast<double>(removed_total)}});
  }
}

void Network::reset_route_state() {
  ++route_epoch_;  // invalidates every fast-path route memo at once
  for (auto& r : routers_) {
    // Queued heads restart their up*/down* phase: under the new tree the
    // old phase bit is meaningless, and a fresh up-phase route always
    // exists when the destination is reachable at all.
    const auto restart = [](FlitQueue& q) {
      q.for_each([](Flit& f) {
        if (f.is_head()) f.down_phase = false;
      });
    };
    restart(r.source_queue);
    restart(r.tx_queue);
    for (auto& in : r.in) {
      for (std::size_t vn = 0; vn < kVns; ++vn) restart(in.buf[vn]);
    }
    for (auto& op : r.out) {
      for (std::size_t vn = 0; vn < kVns; ++vn) {
        auto& owner = op.vn[vn];
        if (owner.owner_input != -1 && !owner_streamed(r, owner, vn)) {
          // Granted but nothing moved: release so the head re-arbitrates
          // under the new tables instead of following a stale decision.
          owner.owner_input = -1;
          owner.remaining = 0;
          owner.wi_dest = graph::kInvalidId;
        }
      }
    }
  }
}

void Network::handle_unreachable(Flit& f) {
  const Cycle now = metrics_.cycles;
  ++metrics_.retry_backoffs;
  if (tele_ != nullptr) tele_backoffs_->add();
  if (f.retries >= kFaultMaxRetries) {
    // Retry budget exhausted: declare the packet lost.  ready_cycle = now+1
    // keeps the drain loop stepping so next step()'s purge collects it.
    pending_lost_.push_back(f.packet);
    f.ready_cycle = now + 1;
    return;
  }
  const std::uint32_t shift = std::min<std::uint32_t>(f.retries, 10);
  f.ready_cycle =
      now + (static_cast<Cycle>(kFaultBackoffBaseCycles) << shift);
  ++f.retries;
}

void Network::backoff_unroutable_heads() {
  const Cycle now = metrics_.cycles;
  if (!cfg_.reference_stepping) {
    // hole_slots marks exactly the fronts the probe below would find
    // routed into a hole; the refresh_active_list() before this pass made
    // active_list_ every router with resident flits.
    for (graph::NodeId n : active_list_) {
      auto& r = routers_[n];
      const auto inputs = static_cast<std::uint32_t>(r.in.size());
      for (std::size_t vn = 0; vn < kVns; ++vn) {
        for (std::uint32_t m = r.hole_slots[vn]; m != 0; m &= m - 1) {
          const auto slot = static_cast<std::uint32_t>(std::countr_zero(m));
          const std::int32_t idx =
              slot == inputs ? kSourceInput : static_cast<std::int32_t>(slot);
          Flit& f = input_queue(r, idx, vn)->front();
          if (f.ready_cycle <= now) handle_unreachable(f);
        }
      }
    }
    return;
  }
  for (graph::NodeId n = 0; n < routers_.size(); ++n) {
    if (resident_flits_[n] == 0) continue;
    auto& r = routers_[n];
    const auto probe = [&](FlitQueue& q) {
      if (q.empty()) return;
      Flit& f = q.front();
      if (!f.is_head() || f.ready_cycle > now || f.dest == n) return;
      const RouteDecision dec =
          active_routing_->next_hop(n, f.dest, f.down_phase, f.vn == 1);
      if (dec.edge == graph::kInvalidId) handle_unreachable(f);
    };
    // Wireless TX queues are excluded: their hop is already reserved and a
    // dead channel purges them outright.
    probe(r.source_queue);
    for (auto& in : r.in) {
      for (std::size_t vn = 0; vn < kVns; ++vn) probe(in.buf[vn]);
    }
  }
}

}  // namespace vfimr::noc
