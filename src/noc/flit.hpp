#pragma once
// Flit-level datatypes for the wormhole NoC simulator.  The paper uses
// 32-bit flits; a packet is a head flit, zero or more body flits and a tail
// flit (single-flit packets are both head and tail).

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace vfimr::noc {

using Cycle = std::uint64_t;
using PacketId = std::uint64_t;

/// Fields are ordered so a flit packs into one 64-byte cache line: every
/// hop copies one.
struct Flit {
  PacketId packet = 0;
  Cycle inject_cycle = 0;      ///< cycle the packet entered the source queue
  Cycle ready_cycle = 0;       ///< earliest cycle this flit may move again
  graph::NodeId src = graph::kInvalidId;
  graph::NodeId dest = graph::kInvalidId;
  std::uint32_t seq = 0;       ///< position within the packet (0 == head)
  std::uint32_t size = 1;      ///< total flits in the packet
  /// While queued at a wireless TX port: the WI node this flit is sent to.
  graph::NodeId wi_dest = graph::kInvalidId;

  /// Route memo (head flits only).  next_hop is a pure function of
  /// (router, dest, down_phase, vn), so its result for this flit at router
  /// `route_node` never changes — the fast path resolves it here once, when
  /// the head reaches the front of a queue at that router, and every later
  /// use is an integer compare.  Moving to another router invalidates the
  /// memo by construction (route_node mismatch); a fault-driven route-table
  /// swap invalidates every memo at once by bumping the network's route
  /// epoch (route_epoch mismatch).  Purely an optimization: decisions are
  /// bit-identical with or without the memo.
  graph::NodeId route_node = graph::kInvalidId;
  graph::NodeId route_wi_dest = graph::kInvalidId;
  std::uint32_t route_epoch = 0;   ///< network route epoch of the memo
  /// Links traversed so far (wire + wireless).  Maintained only when the
  /// network has a telemetry sink — purely observational, never read by the
  /// simulator itself.
  std::uint16_t hops = 0;
  std::int16_t route_out = -1;     ///< output index at route_node
  bool down_phase = false;     ///< up*/down* routing phase (head flit only)
  /// Virtual network: 0 before the packet's wireless hop, 1 after.  The two
  /// VNs have separate buffers and wormhole states on every wired port, so
  /// post-wireless traffic can never block behind pre-wireless traffic —
  /// this breaks the TX -> RX -> wire -> TX dependency cycle of the
  /// token-arbitrated wireless layer (layered routing).
  std::uint8_t vn = 0;
  /// Per-packet fault-retry budget: number of exponential-backoff waits this
  /// head has taken on unroutable (fault-degraded) routes.  Always 0 on
  /// fault-free runs.
  std::uint8_t retries = 0;
  bool route_down_phase = false;

  bool is_head() const { return seq == 0; }
  bool is_tail() const { return seq + 1 == size; }
};
static_assert(sizeof(Flit) == 64, "a flit should fill one cache line");

/// FIFO of flits on a power-of-two ring.  A bounded queue (input buffer,
/// wireless TX buffer) is sized to its depth once and never reallocates;
/// push_back doubles the ring only when it is full, which only the
/// unbounded source queue ever needs.
class FlitQueue {
 public:
  explicit FlitQueue(std::uint32_t depth = 1) {
    std::uint32_t capacity = 1;
    while (capacity < depth) capacity <<= 1;
    ring_.resize(capacity);
  }

  bool empty() const { return size_ == 0; }
  std::uint32_t size() const { return size_; }
  Flit& front() { return ring_[head_]; }
  const Flit& front() const { return ring_[head_]; }
  Flit& back() { return ring_[wrap(head_ + size_ - 1)]; }
  /// The i-th flit from the front.
  Flit& operator[](std::uint32_t i) { return ring_[wrap(head_ + i)]; }

  void push_back(const Flit& f) {
    if (size_ == ring_.size()) grow();
    ring_[wrap(head_ + size_)] = f;
    ++size_;
  }
  void pop_front() {
    head_ = wrap(head_ + 1);
    --size_;
  }

  /// Calls `fn` on every flit, front to back.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (std::uint32_t i = 0; i < size_; ++i) fn((*this)[i]);
  }

  /// Removes every flit for which `pred` holds, keeping the others in
  /// order.  `pred` sees each flit once, front to back.
  template <typename Pred>
  void erase_if(Pred&& pred) {
    std::uint32_t kept = 0;
    for (std::uint32_t i = 0; i < size_; ++i) {
      const Flit& f = (*this)[i];
      if (pred(f)) continue;
      if (kept != i) (*this)[kept] = f;
      ++kept;
    }
    size_ = kept;
  }

 private:
  std::uint32_t wrap(std::uint32_t i) const {
    return i & static_cast<std::uint32_t>(ring_.size() - 1);
  }
  void grow() {
    std::vector<Flit> bigger(2 * ring_.size());
    for (std::uint32_t i = 0; i < size_; ++i) bigger[i] = (*this)[i];
    ring_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<Flit> ring_;
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
};

}  // namespace vfimr::noc
