// Per-VL packet FIFOs with byte-capacity accounting.
//
// Input buffers are finite (their space is what link-level credits
// advertise); host source queues use kUnbounded. PortBuffers keeps a 16-bit
// occupancy mask so the crossbar and arbiter hot paths skip empty VLs.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "iba/packet.hpp"
#include "iba/types.hpp"

namespace ibarb::sim {

inline constexpr std::uint32_t kUnbounded =
    std::numeric_limits<std::uint32_t>::max();

/// FIFO of whole packets sharing one VL's buffer space: a power-of-two ring
/// allocated by the first push (most (port, VL) FIFOs of a fabric never
/// hold a packet) and doubled when full. It never shrinks, so a FIFO keeps
/// its high-water capacity and the steady state allocates nothing.
class VlFifo {
 public:
  VlFifo() = default;

  void set_capacity(std::uint32_t capacity_bytes) noexcept {
    capacity_bytes_ = capacity_bytes;
  }

  bool empty() const noexcept { return count_ == 0; }
  std::size_t size() const noexcept { return count_; }
  std::uint32_t used_bytes() const noexcept { return used_bytes_; }
  std::uint32_t capacity_bytes() const noexcept { return capacity_bytes_; }

  bool can_accept(std::uint32_t wire_bytes) const noexcept {
    return capacity_bytes_ == kUnbounded ||
           used_bytes_ + wire_bytes <= capacity_bytes_;
  }

  std::uint32_t peak_bytes() const noexcept { return peak_bytes_; }
  std::size_t peak_packets() const noexcept { return peak_packets_; }

  void push(iba::Packet p) {
    if (count_ == slots_) grow();
    used_bytes_ += p.wire_bytes();
    ring_[(head_ + count_) & (slots_ - 1)] = std::move(p);
    ++count_;
    if (used_bytes_ > peak_bytes_) peak_bytes_ = used_bytes_;
    if (count_ > peak_packets_) peak_packets_ = count_;
  }

  const iba::Packet& front() const { return ring_[head_]; }

  iba::Packet pop() {
    iba::Packet p = std::move(ring_[head_]);
    head_ = (head_ + 1) & (slots_ - 1);
    --count_;
    used_bytes_ -= p.wire_bytes();
    return p;
  }

  /// Removes and returns every queued packet of `conn`, preserving the
  /// relative order of the rest. Fault recovery uses this to abandon
  /// in-flight packets of a rerouted connection: left behind, they would
  /// starve on a VL whose arbitration weight moved away with the route.
  std::vector<iba::Packet> extract_connection(std::uint32_t conn) {
    std::vector<iba::Packet> out;
    const std::uint32_t mask = slots_ - 1;
    std::uint32_t kept = 0;
    for (std::uint32_t i = 0; i < count_; ++i) {
      iba::Packet& p = ring_[(head_ + i) & mask];
      if (p.connection == conn) {
        used_bytes_ -= p.wire_bytes();
        out.push_back(std::move(p));
      } else {
        // kept <= i: the survivor slides towards the head, never past an
        // unread slot.
        ring_[(head_ + kept) & mask] = std::move(p);
        ++kept;
      }
    }
    count_ = kept;
    return out;
  }

 private:
  /// Doubles the ring, or allocates a first one of a single slot, and
  /// unwraps the queued packets to the front of the new storage. One slot
  /// first because most FIFOs stay tiny: on fattree:k=16,n=3 the ~194 k
  /// FIFOs that ever hold a packet peak at 1.5 packets on average.
  void grow() {
    const std::uint32_t slots = slots_ == 0 ? 1 : 2 * slots_;
    auto ring = std::make_unique<iba::Packet[]>(slots);
    for (std::uint32_t i = 0; i < count_; ++i)
      ring[i] = std::move(ring_[(head_ + i) & (slots_ - 1)]);
    ring_ = std::move(ring);
    slots_ = slots;
    head_ = 0;
  }

  std::unique_ptr<iba::Packet[]> ring_;
  std::uint32_t slots_ = 0;  ///< Ring size: 0 or a power of two.
  std::uint32_t head_ = 0;   ///< Slot of the front packet.
  std::uint32_t count_ = 0;  ///< Queued packets.
  std::uint32_t used_bytes_ = 0;
  std::uint32_t capacity_bytes_ = kUnbounded;
  std::uint32_t peak_bytes_ = 0;    ///< High-water marks (telemetry).
  std::uint32_t peak_packets_ = 0;
};

/// The 16 per-VL FIFOs of one port side (input or output).
class PortBuffers {
 public:
  void set_capacity_all(std::uint32_t capacity_bytes) {
    for (auto& f : fifos_) f.set_capacity(capacity_bytes);
  }

  bool empty(iba::VirtualLane v) const noexcept { return fifos_[v].empty(); }
  bool all_empty() const noexcept { return occupancy_ == 0; }

  /// Bit v set when VL v holds at least one packet.
  std::uint16_t occupancy() const noexcept { return occupancy_; }

  bool can_accept(iba::VirtualLane v, std::uint32_t wire_bytes) const {
    return fifos_[v].can_accept(wire_bytes);
  }

  void push(iba::VirtualLane v, iba::Packet p) {
    fifos_[v].push(std::move(p));
    occupancy_ |= static_cast<std::uint16_t>(1u << v);
  }

  const iba::Packet& front(iba::VirtualLane v) const {
    return fifos_[v].front();
  }

  iba::Packet pop(iba::VirtualLane v) {
    iba::Packet p = fifos_[v].pop();
    if (fifos_[v].empty())
      occupancy_ &= static_cast<std::uint16_t>(~(1u << v));
    return p;
  }

  /// Removes every queued packet of `conn` on VL `v` (see VlFifo).
  std::vector<iba::Packet> extract_connection(iba::VirtualLane v,
                                              std::uint32_t conn) {
    auto out = fifos_[v].extract_connection(conn);
    if (fifos_[v].empty())
      occupancy_ &= static_cast<std::uint16_t>(~(1u << v));
    return out;
  }

  const VlFifo& vl(iba::VirtualLane v) const { return fifos_[v]; }

  std::size_t total_packets() const noexcept {
    std::size_t n = 0;
    for (const auto& f : fifos_) n += f.size();
    return n;
  }

 private:
  std::array<VlFifo, iba::kMaxVirtualLanes> fifos_;
  std::uint16_t occupancy_ = 0;
};

}  // namespace ibarb::sim
