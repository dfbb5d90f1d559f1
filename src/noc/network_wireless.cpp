#include "noc/network.hpp"

#include <algorithm>

#include "common/require.hpp"
#include "telemetry/telemetry.hpp"

// Wireless layer of the NoC: per-node wireless interfaces (WIs), the
// rotating-token MAC over the three mm-wave channels, and the idle-cycle
// token rotation used by the drain fast path.  Split out of network.cpp;
// behavior is bit-identical to the pre-split monolith.

namespace vfimr::noc {

void Network::setup_wireless(const WirelessConfig& wireless) {
  const auto& g = topo_->graph;
  // Wireless interfaces.
  std::vector<std::int32_t> wi_channel(g.node_count(), -1);
  for (const auto& wi : wireless.interfaces) {
    VFIMR_REQUIRE(wi.node < g.node_count());
    VFIMR_REQUIRE_MSG(wi.channel >= 0 && wi.channel < wireless.channel_count,
                      "WI channel out of range");
    VFIMR_REQUIRE_MSG(wi_channel[wi.node] < 0, "duplicate WI on node");
    wi_channel[wi.node] = wi.channel;
    auto& r = routers_[wi.node];
    InPort rx;
    rx.capacity = kWiBufferDepth;
    for (auto& q : rx.buf) q = FlitQueue{kWiBufferDepth};
    rx.is_wireless_rx = true;
    r.wireless_rx = static_cast<std::int32_t>(r.in.size());
    r.in.push_back(std::move(rx));
    OutPort tx;
    tx.kind = OutKind::kWirelessTx;
    r.wireless_tx = static_cast<std::int32_t>(r.out.size());
    r.out.push_back(tx);
    r.wi_channel = wi.channel;
    channels_[static_cast<std::size_t>(wi.channel)].members.push_back(wi.node);
  }
  for (auto& ch : channels_) {
    std::sort(ch.members.begin(), ch.members.end());
    for (const graph::NodeId n : ch.members) {
      for (const graph::NodeId peer : ch.members) {
        if (peer == n) continue;
        const auto e = g.find_edge(n, peer);
        routers_[n].wireless_peers.emplace_back(
            peer, e ? *e : graph::kInvalidId);
      }
    }
  }

  // Validate wireless edges connect same-channel WIs.
  for (const auto& ed : g.edges()) {
    if (ed.kind != graph::EdgeKind::kWireless) continue;
    VFIMR_REQUIRE_MSG(wi_channel[ed.a] >= 0 && wi_channel[ed.b] >= 0,
                      "wireless edge endpoint lacks a WI");
    VFIMR_REQUIRE_MSG(wi_channel[ed.a] == wi_channel[ed.b],
                      "wireless edge endpoints on different channels");
  }
}

void Network::service_wireless_channels() {
  const Cycle now = metrics_.cycles;
  for (auto& ch : channels_) {
    if (ch.members.empty()) continue;
    auto& holder = routers_[ch.members[ch.token]];
    bool sent = false;
    if (!holder.tx_queue.empty()) {
      Flit& f = holder.tx_queue.front();
      if (f.ready_cycle <= now) {
        VFIMR_REQUIRE(f.wi_dest != graph::kInvalidId);
        auto& dest_router = routers_[f.wi_dest];
        VFIMR_REQUIRE(dest_router.wireless_rx >= 0);
        // Post-wireless flits live on VN1.
        auto& rx =
            dest_router.in[static_cast<std::size_t>(dest_router.wireless_rx)]
                .buf[1];
        const std::uint32_t rx_cap = kWiBufferDepth;
        // Whole-packet reservation: a head flit starts transmitting only if
        // the destination RX can absorb the entire packet.  The RX has a
        // single writer (this channel), so the reservation cannot be stolen
        // and a started packet always completes — the token is never held
        // behind a blocked receiver.
        const bool can_go = f.is_head() ? rx.size() + f.size <= rx_cap
                                        : rx.size() < rx_cap;
        if (can_go) {
          // No synchronizer penalty on the wireless path: the deep (8-flit)
          // WI buffers exist precisely to absorb resynchronization at the
          // island boundary (§7, [8]) — one of the WiNoC's advantages for
          // inter-VFI exchanges.
          Flit moved = f;
          if (tele_ != nullptr) ++moved.hops;
          const graph::NodeId hop_dest = f.wi_dest;
          holder.tx_queue.pop_front();
          note_departure(ch.members[ch.token]);
          note_arrival(hop_dest, 1);
          moved.ready_cycle = now + 1;
          moved.wi_dest = graph::kInvalidId;
          moved.vn = 1;
          rx.push_back(moved);
          if (rx.size() == 1) {
            refresh_candidate(hop_dest, dest_router.wireless_rx, 1);
          }
          for (const auto& [peer, e] : holder.wireless_peers) {
            if (peer != hop_dest) continue;
            if (e != graph::kInvalidId) ++edge_flits_[e];
            break;
          }
          ++metrics_.energy.wireless_flits;
          ++metrics_.energy.buffer_reads;
          ++metrics_.energy.buffer_writes;
          sent = true;
          if (moved.is_tail()) {
            ch.mid_packet = false;
            ch.token = (ch.token + 1) % ch.members.size();
          } else {
            ch.mid_packet = true;
            ch.mid_packet_id = moved.packet;
          }
        }
      }
    }
    if (!sent && !ch.mid_packet) {
      // Idle or head-blocked holder without a packet in flight: pass token.
      ch.token = (ch.token + 1) % ch.members.size();
    }
  }
}

void Network::advance_idle_cycles(Cycle delta) {
  // A naive idle step only rotates the token of every channel that is not
  // mid-packet (service_wireless_channels with nothing ready) and bumps the
  // cycle counter; replay `delta` of them in O(channels).
  metrics_.cycles += delta;
  for (auto& ch : channels_) {
    if (ch.members.empty() || ch.mid_packet) continue;
    ch.token = (ch.token + delta) % ch.members.size();
  }
}

}  // namespace vfimr::noc
