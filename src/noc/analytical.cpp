#include "noc/analytical.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/require.hpp"

namespace vfimr::noc {

namespace {

// Calibrated against the cycle-accurate simulator.

/// Fixed per-packet pipeline entry/exit cost (injection alignment plus the
/// ejection pass).
constexpr double kBaseOverheadCycles = 1.0;
/// Per-packet disruption cost charged once per fault transition a delivered
/// packet statistically overlaps: the simulator purges in-flight packets,
/// restarts routing phases and backs off unroutable heads around every
/// transition.  The expected count of overlapped transitions is
/// (transitions / window) x path delay.
constexpr double kTransitionDisruptionCycles = 16.0;
/// Unroutable heads follow the simulator's retry ladder: a stranded head
/// waits (base << retries) cycles between attempts and is lost after
/// kFaultMaxRetries backoffs.  Packets injected during an outage whose
/// destination repairs within the cumulative budget are *delivered late*,
/// not lost — the model charges them the expected repair wait.  Exponential
/// backoff re-probes at cumulative base*(2^k - 1) instants, so the realized
/// wait overshoots the repair time; this is the mean multiplier on the
/// expected wait.
constexpr double kBackoffOvershoot = 1.4;
/// Head-of-line blocking weight.  A stranded head backs off at the FRONT of
/// the source's FIFO injection queue, stalling every later injection from
/// that source for up to the retry budget.  The induced latency mass of the
/// model's estimate is scaled by this factor.
constexpr double kHolBlockingFactor = 1.0;
/// Transition-freeze weight.  A packet in flight toward a dying router parks
/// its head in a transit input buffer for the whole retry ladder; wormhole
/// backpressure freezes that port's upstream cone and traps unrelated
/// traffic until the purge.  This factor is the fraction of the network's
/// offered load a single frozen port's cone catches; the charge itself is an
/// expected value over the (usually rare) event that a head is in flight at
/// the death instant.
constexpr double kTransitionFreezeFactor = 0.3;

/// M/D/1 mean waiting time for a queue with arrival rate `lambda` packets
/// per cycle and deterministic service time `service` cycles per packet
/// (the packet's F flits at one flit per cycle).  rho is clamped at
/// kMaxUtilization so saturated links report a large-but-finite wait.
double md1_wait(double lambda, double service) {
  const double rho = std::min(lambda * service, kMaxUtilization);
  if (rho <= 0.0) return 0.0;
  return rho * service / (2.0 * (1.0 - rho));
}

/// One fault timeline transition, expanded from the schedule.
struct Transition {
  std::uint64_t cycle = 0;
  std::uint64_t until = 0;  ///< down transitions: when the outage ends
  faults::NocFaultKind kind = faults::NocFaultKind::kLink;
  std::uint32_t id = 0;
  bool down = true;
};

}  // namespace

AnalyticalNocModel::AnalyticalNocModel(const Topology& topology,
                                       const RoutingAlgorithm& routing,
                                       const WirelessConfig& wireless,
                                       AnalyticalConfig config)
    : topo_{&topology},
      routing_{&routing},
      wireless_{wireless},
      cfg_{std::move(config)},
      n_{topology.node_count()} {
  VFIMR_REQUIRE_MSG(cfg_.sim_cycles > 0, "analytical window must be positive");
  node_channel_.assign(n_, -1);
  for (const auto& wi : wireless_.interfaces) {
    VFIMR_REQUIRE(wi.node < n_);
    node_channel_[wi.node] = wi.channel;
  }
  build_slices();
}

AnalyticalNocModel::~AnalyticalNocModel() = default;

void AnalyticalNocModel::build_slices() {
  const auto& g = topo_->graph;
  const std::uint64_t window = cfg_.sim_cycles;

  // Expand the schedule into down/up transitions clipped to the window.
  std::vector<Transition> transitions;
  for (const auto& f : cfg_.faults.events()) {
    if (f.at_cycle >= window) continue;
    transitions.push_back(
        {f.at_cycle, f.until_cycle, f.kind, f.id, /*down=*/true});
    if (f.until_cycle < window) {
      transitions.push_back(
          {f.until_cycle, f.until_cycle, f.kind, f.id, /*down=*/false});
    }
  }
  std::stable_sort(transitions.begin(), transitions.end(),
                   [](const Transition& a, const Transition& b) {
                     return a.cycle < b.cycle;
                   });
  transitions_ = static_cast<double>(transitions.size());

  // Slice boundaries: 0, every transition instant, window end.
  std::vector<std::uint64_t> cuts;
  cuts.push_back(0);
  for (const auto& t : transitions) cuts.push_back(t.cycle);
  cuts.push_back(window);
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  // Memo for the expensive per-state artifacts, keyed on the liveness
  // masks (plus the post-fault routing regime).
  struct SharedState {
    std::shared_ptr<const UpDownRouting> degraded;
    std::shared_ptr<const std::vector<Route>> routes;
  };
  std::unordered_map<std::string, SharedState> state_cache;

  // Overlapping faults on one element stack, exactly like the simulator's
  // down counters.
  std::vector<std::uint32_t> edge_down(g.edge_count(), 0);
  std::vector<std::uint32_t> router_down(n_, 0);
  std::vector<std::uint32_t> wi_down(n_, 0);
  std::size_t next_transition = 0;
  bool post_fault = false;

  edge_usable_all_.assign(g.edge_count(), true);
  const std::size_t channels =
      static_cast<std::size_t>(std::max(wireless_.channel_count, 0));

  for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
    const std::uint64_t begin = cuts[c];
    const std::uint64_t end = cuts[c + 1];
    // Apply every transition scheduled at this boundary.
    double router_outage = 0.0;
    std::vector<graph::NodeId> routers_died;
    while (next_transition < transitions.size() &&
           transitions[next_transition].cycle <= begin) {
      const Transition& t = transitions[next_transition++];
      auto& counter = t.kind == faults::NocFaultKind::kLink
                          ? edge_down[t.id]
                          : t.kind == faults::NocFaultKind::kRouter
                                ? router_down[t.id]
                                : wi_down[t.id];
      if (t.down) {
        ++counter;
        if (t.kind == faults::NocFaultKind::kRouter && t.id < n_) {
          routers_died.push_back(t.id);
          router_outage = std::max(
              router_outage, static_cast<double>(t.until - t.cycle));
        }
      } else if (counter > 0) {
        --counter;
      }
      post_fault = true;
    }
    if (end <= begin) continue;

    Slice slice;
    slice.cycles = static_cast<double>(end - begin);
    slice.start = static_cast<double>(begin);
    slice.routers_died = std::move(routers_died);
    slice.router_outage = router_outage;
    slice.router_usable.assign(n_, true);
    for (graph::NodeId r = 0; r < n_; ++r) {
      slice.router_usable[r] = router_down[r] == 0;
    }
    slice.edge_usable.assign(g.edge_count(), true);
    for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
      const auto& edge = g.edge(e);
      bool usable = edge_down[e] == 0 && slice.router_usable[edge.a] &&
                    slice.router_usable[edge.b];
      if (usable && edge.kind == graph::EdgeKind::kWireless) {
        usable = wi_down[edge.a] == 0 && wi_down[edge.b] == 0;
      }
      slice.edge_usable[e] = usable;
      if (!usable) edge_usable_all_[e] = false;
    }
    slice.channel_members.assign(channels, 0);
    for (const auto& wi : wireless_.interfaces) {
      if (wi_down[wi.node] == 0 && slice.router_usable[wi.node] &&
          wi.channel >= 0 &&
          static_cast<std::size_t>(wi.channel) < channels) {
        ++slice.channel_members[static_cast<std::size_t>(wi.channel)];
      }
    }
    // Mirror the simulator: once any fault has fired, routing runs on
    // hole-tolerant up*/down* tables over the surviving edges for the rest
    // of the run — even after every element repairs.  Both the table build
    // and the 4096 route walks are memoized on the liveness masks:
    // repairs step the timeline back into already-visited states, so the
    // shared_ptr cache turns O(transitions) table builds into
    // O(distinct states).
    std::string state_key;
    state_key.reserve(1 + slice.edge_usable.size() + n_);
    state_key.push_back(post_fault ? '1' : '0');
    for (const bool b : slice.edge_usable) state_key.push_back(b ? '1' : '0');
    for (const bool b : slice.router_usable) {
      state_key.push_back(b ? '1' : '0');
    }
    const auto cached = state_cache.find(state_key);
    if (cached != state_cache.end()) {
      slice.degraded = cached->second.degraded;
      slice.routes = cached->second.routes;
      degraded_ = degraded_ || slice.degraded != nullptr;
    } else {
      if (post_fault) {
        UpDownOptions opts;
        opts.wireless_cost = kFaultRerouteWirelessCost;
        opts.edge_alive = &slice.edge_usable;
        opts.allow_unreachable = true;
        slice.degraded = std::make_shared<const UpDownRouting>(g, opts);
        degraded_ = true;
      }
      auto routes = std::make_shared<std::vector<Route>>();
      routes->assign(n_ * n_, Route{});
      slice.routes = routes;
      for (graph::NodeId s = 0; s < n_; ++s) {
        for (graph::NodeId d = 0; d < n_; ++d) {
          if (s == d) continue;
          (*routes)[static_cast<std::size_t>(s) * n_ + d] =
              walk_route(slice, s, d);
        }
      }
      state_cache.emplace(std::move(state_key),
                          SharedState{slice.degraded, slice.routes});
    }
    slices_.push_back(std::move(slice));
  }
  VFIMR_REQUIRE(!slices_.empty());
}

AnalyticalNocModel::Route AnalyticalNocModel::walk_route(
    const Slice& slice, graph::NodeId s, graph::NodeId d) const {
  Route route;
  if (!slice.router_usable[s] || !slice.router_usable[d]) return route;
  const RoutingAlgorithm& algo =
      slice.degraded
          ? static_cast<const RoutingAlgorithm&>(*slice.degraded)
          : *routing_;
  const auto& g = topo_->graph;
  const bool clustered = cfg_.node_cluster.size() == n_;
  graph::NodeId at = s;
  bool down_phase = false;
  bool wireless_used = false;
  // Deterministic tables cannot loop, but a defensive guard keeps a buggy
  // routing implementation from hanging the model.
  std::size_t guard = 4 * n_ + 16;
  while (at != d) {
    if (guard-- == 0) return Route{};
    const RouteDecision dec = algo.next_hop(at, d, down_phase, wireless_used);
    if (dec.edge == graph::kInvalidId) return Route{};  // fault hole
    if (!slice.edge_usable[dec.edge]) return Route{};
    const auto& edge = g.edge(dec.edge);
    Hop hop;
    hop.edge = dec.edge;
    hop.from = at;
    hop.to = g.other_end(dec.edge, at);
    hop.wireless = edge.kind == graph::EdgeKind::kWireless;
    hop.sync_crossing =
        !hop.wireless && clustered &&
        cfg_.node_cluster[hop.from] != cfg_.node_cluster[hop.to];
    if (hop.wireless) {
      ++route.wireless_hops;
      wireless_used = true;
    } else {
      ++route.wire_hops;
      route.wire_mm += edge.length_mm;
    }
    if (hop.sync_crossing) ++route.sync_crossings;
    route.hops.push_back(hop);
    down_phase = dec.down_phase;
    at = hop.to;
  }
  route.reachable = true;
  return route;
}

bool AnalyticalNocModel::reachable(graph::NodeId s, graph::NodeId d) const {
  if (s == d) return true;
  return slices_.front().route(s, d, n_).reachable;
}

std::uint32_t AnalyticalNocModel::route_hops(graph::NodeId s,
                                             graph::NodeId d) const {
  if (s == d) return 0;
  const Route& r = slices_.front().route(s, d, n_);
  return r.reachable ? r.wire_hops + r.wireless_hops : 0;
}

Metrics AnalyticalNocModel::evaluate(const Matrix& rates,
                                     std::uint32_t packet_flits,
                                     AnalyticalDetail* detail) const {
  VFIMR_REQUIRE_MSG(rates.rows() == n_ && rates.cols() == n_,
                    "traffic matrix must be node_count x node_count");
  VFIMR_REQUIRE_MSG(packet_flits >= 1, "packets need at least one flit");
  const double flits = static_cast<double>(packet_flits);
  const double window = static_cast<double>(cfg_.sim_cycles);
  const std::size_t dir_links = topo_->graph.edge_count() * 2;

  Metrics m;
  m.cycles = cfg_.sim_cycles;

  double local_rate = 0.0;
  for (graph::NodeId v = 0; v < n_; ++v) {
    const double r = rates(v, v);
    if (r > 0.0) local_rate += r;
  }

  // Cross-slice accumulation (counters in expected-events space, rounded
  // once at the end).
  double lost_expected = 0.0;
  double switch_events = 0.0;
  double wire_hop_events = 0.0;
  double wire_mm_events = 0.0;
  double wireless_events = 0.0;
  double buffer_read_events = 0.0;
  double buffer_write_events = 0.0;
  double max_link_rho = 0.0;
  double max_channel_rho = 0.0;
  // Per-pair aggregation for the detail view.
  Matrix pair_latency_sum;
  Matrix pair_queueing_sum;
  Matrix pair_weight;
  if (detail != nullptr) {
    pair_latency_sum = Matrix{n_, n_};
    pair_queueing_sum = Matrix{n_, n_};
    pair_weight = Matrix{n_, n_};
    detail->dir_link_packets_per_cycle.assign(dir_links, 0.0);
    detail->dir_link_utilization.assign(dir_links, 0.0);
    detail->channel_utilization.assign(
        static_cast<std::size_t>(std::max(wireless_.channel_count, 0)), 0.0);
  }

  // Cumulative unroutable-head retry budget: base * (2^retries - 1) cycles
  // of backoff before the simulator declares a stranded packet lost.
  const double backoff_budget =
      static_cast<double>(kFaultBackoffBaseCycles) *
      (static_cast<double>(1ull << kFaultMaxRetries) - 1.0);

  std::vector<double> dir_load(dir_links);
  std::vector<double> channel_load;
  for (std::size_t si = 0; si < slices_.size(); ++si) {
    const Slice& slice = slices_[si];
    const double cycles = slice.cycles;
    // Pass 1: offered load per directional link and wireless channel under
    // this slice's routes.
    std::fill(dir_load.begin(), dir_load.end(), 0.0);
    channel_load.assign(slice.channel_members.size(), 0.0);
    double ejected_rate = 0.0;
    double lost_rate = 0.0;
    double reach_rate = 0.0;  ///< total reachable packets/cycle
    double hop_rate = 0.0;    ///< total (packets/cycle) x hops
    for (graph::NodeId s = 0; s < n_; ++s) {
      for (graph::NodeId d = 0; d < n_; ++d) {
        const double rate = rates(s, d);
        if (rate <= 0.0 || s == d) continue;
        const Route& rt =
            slice.route(s, d, n_);
        if (!rt.reachable) continue;
        reach_rate += rate;
        hop_rate +=
            rate * static_cast<double>(rt.wire_hops + rt.wireless_hops);
        for (const Hop& hop : rt.hops) {
          if (hop.wireless) {
            const int ch = node_channel_[hop.from];
            if (ch >= 0 &&
                static_cast<std::size_t>(ch) < channel_load.size()) {
              channel_load[static_cast<std::size_t>(ch)] += rate;
            }
          } else {
            const auto& edge = topo_->graph.edge(hop.edge);
            const std::size_t dir = hop.from == edge.a ? 0 : 1;
            dir_load[static_cast<std::size_t>(hop.edge) * 2 + dir] += rate;
          }
        }
      }
    }
    for (std::size_t l = 0; l < dir_links; ++l) {
      max_link_rho = std::max(max_link_rho, dir_load[l] * flits);
      if (detail != nullptr) {
        detail->dir_link_packets_per_cycle[l] +=
            dir_load[l] * cycles / window;
        detail->dir_link_utilization[l] =
            std::max(detail->dir_link_utilization[l], dir_load[l] * flits);
      }
    }
    for (std::size_t ch = 0; ch < channel_load.size(); ++ch) {
      max_channel_rho = std::max(max_channel_rho, channel_load[ch] * flits);
      if (detail != nullptr && ch < detail->channel_utilization.size()) {
        detail->channel_utilization[ch] = std::max(
            detail->channel_utilization[ch], channel_load[ch] * flits);
      }
    }

    // Pass 2: per-pair latency under this slice's loads.
    double latency_weighted = 0.0;

    // Transition-freeze charge.  A packet in flight TOWARD a router at the
    // instant that router dies is phase-stranded: its head parks in a
    // transit input buffer burning the retry ladder, and wormhole
    // backpressure freezes that port's whole upstream cone, trapping
    // unrelated traffic until repair or ladder purge (a single frozen port
    // can snare a sizable fraction of the network's offered load).  The
    // expected number of such heads is the dest-rate times the journey
    // time — usually well below one, so this is the *expected* jam mass of
    // a rare event; single realizations scatter around it (the xval suite
    // averages the cycle-accurate reference over traffic seeds for
    // exactly this reason).  Later dest-dead injections strand at their
    // source queues instead (charged below).  A death at cycle 0 strands
    // nothing (empty network).
    if (si > 0 && !slice.routers_died.empty()) {
      const Slice& prev = slices_[si - 1];
      double heads_in_flight = 0.0;
      for (const graph::NodeId r : slice.routers_died) {
        for (graph::NodeId s = 0; s < n_; ++s) {
          if (s == r) continue;
          const double rate = rates(s, r);
          if (rate <= 0.0) continue;
          const Route& rp = prev.route(s, r, n_);
          if (!rp.reachable) continue;
          heads_in_flight +=
              rate * (static_cast<double>(rp.wire_hops +
                                          2 * rp.wireless_hops) +
                      flits);
        }
      }
      const double hold = std::min(backoff_budget, slice.router_outage);
      const double span = std::min(window - slice.start, hold);
      // Each frozen head's cone catches a calibrated fraction of the whole
      // offered load over the arrival span; trapped packets release at the
      // purge, so their mean wait is the residual hold.
      const double freeze_mass = kTransitionFreezeFactor *
                                 heads_in_flight * reach_rate * span *
                                 (hold - span / 2.0);
      latency_weighted += freeze_mass / cycles;
    }
    // Stranded flow per source, for the source-queue head-of-line charge
    // (aggregated so a dead router stranding several destinations of one
    // source blocks that source's queue once, not once per destination).
    std::vector<double> stranded_rate(n_, 0.0);
    std::vector<double> stranded_h(n_, 0.0);  ///< rate-weighted head wait
    // Expected transitions a packet in flight overlaps: journeys are short
    // relative to the window, so the per-packet disruption is the timeline
    // density times the journey length.
    const double disruption_per_cycle =
        transitions_ > 0.0
            ? (transitions_ / window) * kTransitionDisruptionCycles
            : 0.0;
    for (graph::NodeId s = 0; s < n_; ++s) {
      for (graph::NodeId d = 0; d < n_; ++d) {
        const double rate = rates(s, d);
        if (rate <= 0.0 || s == d) continue;
        const std::size_t idx = static_cast<std::size_t>(s) * n_ + d;
        const Route& rt = (*slice.routes)[idx];
        if (!rt.reachable) {
          // Stranded: the destination is unreachable in this slice.  The
          // simulator parks the head in exponential backoff; if a route
          // re-forms within the retry budget the packet is delivered
          // *late*, otherwise it is purged as lost.  Packets inject
          // uniformly over the slice, so the repair wait is the residual
          // slice time plus every fully-unreachable slice in between.
          double mid = 0.0;
          std::size_t j = si + 1;
          while (j < slices_.size() &&
                 !(*slices_[j].routes)[idx].reachable) {
            mid += slices_[j].cycles;
            ++j;
          }
          const bool recovers =
              j < slices_.size() && backoff_budget > mid;

          // Head-of-line blocking: heads injected during the outage park
          // at the front of the source queue, stalling the source's other
          // traffic until repair or purge (charged per source after the
          // pair loop).  Heads caught mid-flight by the transition are the
          // transition-freeze charge above.
          const double hol_h =
              recovers ? std::min(backoff_budget, mid + cycles / 2.0)
                       : backoff_budget;
          stranded_rate[s] += rate;
          stranded_h[s] += rate * hol_h;

          if (!recovers) {
            lost_rate += rate;
            continue;
          }
          double delivered_frac = 1.0;
          double expected_wait = mid + cycles / 2.0;
          if (backoff_budget < mid + cycles) {
            delivered_frac = (backoff_budget - mid) / cycles;
            expected_wait = (mid + backoff_budget) / 2.0;
          }
          lost_rate += rate * (1.0 - delivered_frac);
          const double drate = rate * delivered_frac;
          const Route& rj = (*slices_[j].routes)[idx];
          const double base_j =
              static_cast<double>(rj.wire_hops) +
              2.0 * static_cast<double>(rj.wireless_hops) +
              static_cast<double>(rj.sync_crossings) *
                  static_cast<double>(cfg_.sync_penalty_cycles) +
              (flits - 1.0) + kBaseOverheadCycles;
          const double wait = std::min(
              kBackoffOvershoot * expected_wait, backoff_budget);
          const double latency = base_j + wait;
          ejected_rate += drate;
          latency_weighted += drate * latency;
          if (detail != nullptr) {
            pair_latency_sum(s, d) += latency * cycles;
            pair_queueing_sum(s, d) += wait * cycles;
            pair_weight(s, d) += cycles;
          }
          const double w = static_cast<double>(rj.wire_hops);
          const double wl = static_cast<double>(rj.wireless_hops);
          const double packet_events = drate * flits * cycles;
          switch_events += packet_events * (w + wl);
          wire_hop_events += packet_events * w;
          wire_mm_events += packet_events * rj.wire_mm;
          wireless_events += packet_events * wl;
          buffer_read_events += packet_events * (w + 2.0 * wl + 1.0);
          buffer_write_events += packet_events * (w + 2.0 * wl);
          continue;
        }
        ejected_rate += rate;

        double queueing = 0.0;
        for (const Hop& hop : rt.hops) {
          if (hop.wireless) {
            const int ch = node_channel_[hop.from];
            if (ch >= 0 &&
                static_cast<std::size_t>(ch) < channel_load.size()) {
              const std::size_t c = static_cast<std::size_t>(ch);
              // Token rotation passes one member per idle cycle, so a
              // packet arriving at a random rotation phase waits
              // (members - 1) / 2 on average before channel contention
              // even starts.
              const double members =
                  static_cast<double>(slice.channel_members[c]);
              queueing += members > 1.0 ? (members - 1.0) / 2.0 : 0.0;
              queueing += md1_wait(channel_load[c], flits);
            }
          } else {
            const auto& edge = topo_->graph.edge(hop.edge);
            const std::size_t dir = hop.from == edge.a ? 0 : 1;
            queueing += md1_wait(
                dir_load[static_cast<std::size_t>(hop.edge) * 2 + dir], flits);
          }
        }
        // Deterministic path delay: one cycle per wire hop, two per
        // wireless hop (input -> TX queue, then the token-granted channel
        // transfer), synchronizer penalties at VFI borders, tail trailing
        // the head by F - 1 cycles, plus the calibrated entry/exit
        // overhead.
        const double base =
            static_cast<double>(rt.wire_hops) +
            2.0 * static_cast<double>(rt.wireless_hops) +
            static_cast<double>(rt.sync_crossings) *
                static_cast<double>(cfg_.sync_penalty_cycles) +
            (flits - 1.0) + kBaseOverheadCycles;
        const double latency =
            (base + queueing) * (1.0 + disruption_per_cycle);
        latency_weighted += rate * latency;
        if (detail != nullptr) {
          pair_latency_sum(s, d) += latency * cycles;
          pair_queueing_sum(s, d) += queueing * cycles;
          pair_weight(s, d) += cycles;
        }

        // Expected event counts, mirroring the simulator's accounting:
        // every hop is a switch traversal; a wireless hop is two buffer
        // stages (input -> TX, TX -> RX); ejection reads the final buffer.
        const double w = static_cast<double>(rt.wire_hops);
        const double wl = static_cast<double>(rt.wireless_hops);
        const double packet_events = rate * flits * cycles;
        switch_events += packet_events * (w + wl);
        wire_hop_events += packet_events * w;
        wire_mm_events += packet_events * rt.wire_mm;
        wireless_events += packet_events * wl;
        buffer_read_events += packet_events * (w + 2.0 * wl + 1.0);
        buffer_write_events += packet_events * (w + 2.0 * wl);
      }
    }

    // Source-queue head-of-line charge: once a stranded head reaches the
    // front of source s's FIFO injection queue, every later injection from
    // s (to any destination) stalls behind it until repair or purge.  The
    // first stranded arrival is Poisson, so the expected blocked span of a
    // slice of length L is L - (1 - e^(-rL)) / r.
    for (graph::NodeId s = 0; s < n_; ++s) {
      const double r = stranded_rate[s];
      if (r <= 0.0) continue;
      const double h = stranded_h[s] / r;
      const double blocked =
          cycles - (1.0 - std::exp(-r * cycles)) / r;
      double other_rate = 0.0;
      for (graph::NodeId o = 0; o < n_; ++o) {
        if (o != s) other_rate += rates(s, o);
      }
      other_rate -= r;
      if (other_rate <= 0.0 || blocked <= 0.0) continue;
      // Strands are SERIAL: each stranded arrival runs its own full retry
      // ladder at the queue front (later dest-dead packets queue behind it
      // and strand in turn when they reach the head), so the expected
      // total block is h times the expected ladder count conditional on at
      // least one strand.  The block runs to completion even past the
      // injection window — the simulator keeps backing heads off during
      // the drain phase, and packets released then still count their full
      // queueing latency.
      const double arrivals = r * cycles;
      const double ladders = arrivals / (1.0 - std::exp(-arrivals));
      const double block = h * ladders;
      // Packets can only be *caught* while injection still runs; `blocked`
      // is the expected injection overlap (first strand to slice end).
      // When the block outlives the overlap, every caught packet waits
      // close to the full block; when arrivals cover it, the mean is half.
      const double wait = block - std::min(block, blocked) / 2.0;
      latency_weighted +=
          kHolBlockingFactor * other_rate * blocked * wait / cycles;
    }

    const auto slice_packets = static_cast<std::uint64_t>(
        std::llround(ejected_rate * cycles));
    if (slice_packets > 0 && ejected_rate > 0.0) {
      m.packet_latency.add_n(latency_weighted / ejected_rate, slice_packets);
    }
    m.packets_ejected += slice_packets;
    lost_expected += lost_rate * cycles;
  }

  m.flits_ejected = m.packets_ejected * packet_flits;
  m.packets_lost =
      static_cast<std::uint64_t>(std::llround(lost_expected));
  m.flits_lost = m.packets_lost * packet_flits;
  m.packets_injected = m.packets_ejected + m.packets_lost;
  m.packets_local = static_cast<std::uint64_t>(
      std::llround(local_rate * window));
  m.energy.switch_traversals =
      static_cast<std::uint64_t>(std::llround(switch_events));
  m.energy.wire_hops =
      static_cast<std::uint64_t>(std::llround(wire_hop_events));
  m.energy.wire_mm_flits = wire_mm_events;
  m.energy.wireless_flits =
      static_cast<std::uint64_t>(std::llround(wireless_events));
  m.energy.buffer_reads =
      static_cast<std::uint64_t>(std::llround(buffer_read_events));
  m.energy.buffer_writes =
      static_cast<std::uint64_t>(std::llround(buffer_write_events));

  if (detail != nullptr) {
    detail->pair_latency_cycles = Matrix{n_, n_};
    detail->pair_queueing_cycles = Matrix{n_, n_};
    for (graph::NodeId s = 0; s < n_; ++s) {
      for (graph::NodeId d = 0; d < n_; ++d) {
        const double weight = pair_weight(s, d);
        if (weight <= 0.0) continue;
        detail->pair_latency_cycles(s, d) = pair_latency_sum(s, d) / weight;
        detail->pair_queueing_cycles(s, d) =
            pair_queueing_sum(s, d) / weight;
      }
    }
    detail->max_link_utilization = max_link_rho;
    detail->max_channel_utilization = max_channel_rho;
    detail->offered_packets_per_cycle = rates.sum();
    detail->lost_packets_per_cycle = lost_expected / window;
  }
  return m;
}

}  // namespace vfimr::noc
