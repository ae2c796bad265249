// Per-VL packet FIFOs with byte-capacity accounting.
//
// Input buffers are finite (their space is what link-level credits
// advertise); host source queues use kUnbounded. PortBuffers keeps a 16-bit
// occupancy mask so the crossbar and arbiter hot paths skip empty VLs.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <vector>

#include "iba/packet.hpp"
#include "iba/types.hpp"

namespace ibarb::sim {

inline constexpr std::uint32_t kUnbounded =
    std::numeric_limits<std::uint32_t>::max();

/// FIFO of whole packets sharing one VL's buffer space.
class VlFifo {
 public:
  VlFifo() = default;

  void set_capacity(std::uint32_t capacity_bytes) noexcept {
    capacity_bytes_ = capacity_bytes;
  }

  bool empty() const noexcept { return !packets_ || packets_->empty(); }
  std::size_t size() const noexcept { return packets_ ? packets_->size() : 0; }
  std::uint32_t used_bytes() const noexcept { return used_bytes_; }
  std::uint32_t capacity_bytes() const noexcept { return capacity_bytes_; }

  bool can_accept(std::uint32_t wire_bytes) const noexcept {
    return capacity_bytes_ == kUnbounded ||
           used_bytes_ + wire_bytes <= capacity_bytes_;
  }

  std::uint32_t peak_bytes() const noexcept { return peak_bytes_; }
  std::size_t peak_packets() const noexcept { return peak_packets_; }

  void push(iba::Packet p) {
    used_bytes_ += p.wire_bytes();
    if (!packets_) packets_.emplace();
    packets_->push_back(std::move(p));
    if (used_bytes_ > peak_bytes_) peak_bytes_ = used_bytes_;
    if (packets_->size() > peak_packets_) peak_packets_ = packets_->size();
  }

  const iba::Packet& front() const { return packets_->front(); }

  iba::Packet pop() {
    iba::Packet p = std::move(packets_->front());
    packets_->pop_front();
    used_bytes_ -= p.wire_bytes();
    return p;
  }

  /// Removes and returns every queued packet of `conn`, preserving the
  /// relative order of the rest. Fault recovery uses this to abandon
  /// in-flight packets of a rerouted connection: left behind, they would
  /// starve on a VL whose arbitration weight moved away with the route.
  std::vector<iba::Packet> extract_connection(std::uint32_t conn) {
    std::vector<iba::Packet> out;
    if (!packets_) return out;
    std::deque<iba::Packet> keep;
    for (auto& p : *packets_) {
      if (p.connection == conn) {
        used_bytes_ -= p.wire_bytes();
        out.push_back(std::move(p));
      } else {
        keep.push_back(std::move(p));
      }
    }
    packets_->swap(keep);
    return out;
  }

 private:
  /// Created by the first push: an empty std::deque still allocates, and
  /// most (port, VL) FIFOs of a fabric never hold a packet.
  std::optional<std::deque<iba::Packet>> packets_;
  std::uint32_t used_bytes_ = 0;
  std::uint32_t capacity_bytes_ = kUnbounded;
  std::uint32_t peak_bytes_ = 0;    ///< High-water mark (telemetry).
  std::size_t peak_packets_ = 0;
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
