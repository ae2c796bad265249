#include "sim/metrics.hpp"

#include <cassert>

#include "obs/series.hpp"

namespace ibarb::sim {

void Metrics::record_injection(std::uint32_t conn, const iba::Packet& p) {
  if (!enabled_) return;
  auto& c = connections[conn];
  ++c.tx_packets;
  c.tx_wire_bytes += p.wire_bytes();
}

void Metrics::record_delivery(std::uint32_t conn, const iba::Packet& p,
                              iba::Cycle now) {
  if (series_ && conn < connections.size()) {
    assert(now >= p.injected_at);
    const auto& c = connections[conn];
    series_->record_delivery(conn, c.sl, now - p.injected_at,
                             p.deadline > 0 ? p.deadline : c.deadline);
  }
  if (!enabled_) return;
  auto& c = connections[conn];
  ++c.rx_packets;
  c.rx_wire_bytes += p.wire_bytes();
  c.rx_payload_bytes += p.payload_bytes;

  assert(now >= p.injected_at);
  const auto delay = static_cast<double>(now - p.injected_at);
  c.delay.add(delay);
  // Judge against the guarantee contracted at injection time when the
  // packet carries one; reroutes may have changed the connection's deadline
  // while this packet was in flight.
  const iba::Cycle contracted = p.deadline > 0 ? p.deadline : c.deadline;
  if (contracted > 0) {
    const auto d = static_cast<double>(contracted);
    for (std::size_t i = 0; i < kDelayThresholds; ++i)
      if (delay <= d / kDelayThresholdDivisors[i]) ++c.within_threshold[i];
    if (delay > d) ++c.deadline_misses;
  }

  if (c.nominal_iat > 0) {
    if (c.last_arrival != iba::kNeverCycle && now >= c.last_arrival) {
      const double gap = static_cast<double>(now - c.last_arrival);
      const double deviation =
          (gap - static_cast<double>(c.nominal_iat)) /
          static_cast<double>(c.nominal_iat);
      // Bin 0: below -IAT. Bins 1..9 between consecutive edges. Last bin:
      // above +IAT.
      std::size_t bin = 0;
      if (deviation < kJitterEdges[0]) {
        bin = 0;
      } else if (deviation >= kJitterEdges[std::size(kJitterEdges) - 1]) {
        bin = kJitterBins - 1;
      } else {
        bin = 1;
        for (std::size_t e = 1; e < std::size(kJitterEdges); ++e) {
          if (deviation < kJitterEdges[e]) break;
          ++bin;
        }
      }
      ++c.jitter_bins[bin];
    }
    c.last_arrival = now;
  }
}

void Metrics::record_tx(std::uint32_t flat_port, std::uint32_t wire_bytes,
                        iba::Cycle serialization) {
  if (!enabled_) return;
  auto& p = ports[flat_port];
  p.busy_cycles += serialization;
  p.wire_bytes += wire_bytes;
  ++p.packets;
}

void Metrics::record_drop(std::uint32_t conn) {
  if (conn >= connections.size()) return;  // management MADs carry no conn
  if (series_) series_->record_drop(conn);
  if (!enabled_) return;
  ++connections[conn].dropped_packets;
}

std::uint64_t Metrics::min_qos_rx() const {
  if (connections.size() == scanned_connections_) {
    std::erase_if(at_min_, [this](std::uint32_t c) {
      return connections[c].rx_packets != min_rx_;
    });
    if (!at_min_.empty()) return min_rx_;
  }
  scanned_connections_ = connections.size();
  min_rx_ = std::numeric_limits<std::uint64_t>::max();
  at_min_.clear();
  for (std::uint32_t i = 0; i < connections.size(); ++i) {
    const ConnectionMetrics& c = connections[i];
    if (!c.qos || c.rx_packets > min_rx_) continue;
    if (c.rx_packets < min_rx_) {
      min_rx_ = c.rx_packets;
      at_min_.clear();
    }
    at_min_.push_back(i);
  }
  if (at_min_.empty()) min_rx_ = 0;
  return min_rx_;
}

}  // namespace ibarb::sim
