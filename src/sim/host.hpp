// Traffic-flow descriptors and generator state.
//
// A host (channel adapter) has a single port: the injection side is an
// OutputPort like a switch's (per-VL source queues, its own
// VLArbitrationTable arbiter, credits toward the switch input buffer) and
// lives in the simulator's flat port table; the receive side is an
// instantaneous sink that returns credits as soon as a packet lands.
#pragma once

#include <cstdint>

#include "iba/types.hpp"
#include "util/rng.hpp"

namespace ibarb::sim {

enum class GeneratorKind : std::uint8_t {
  kCbr,      ///< Fixed inter-packet interval (drift-free nominal clock).
  kPoisson,  ///< Exponential intervals with the given mean.
  kOnOffVbr, ///< Bursts at peak rate separated by silences (same mean rate).
};

struct FlowSpec {
  iba::NodeId src_host = iba::kInvalidNode;
  iba::NodeId dst_host = iba::kInvalidNode;
  iba::ServiceLevel sl = 0;
  std::uint32_t payload_bytes = 256;
  iba::Cycle interval = 1000;       ///< Nominal mean inter-packet time.
  GeneratorKind kind = GeneratorKind::kCbr;
  iba::Cycle start_offset = 0;
  iba::Cycle deadline = 0;          ///< End-to-end guarantee (metrics).
  bool qos = true;                  ///< False for best-effort background.
  bool management = false;          ///< VL15 traffic.
  /// Externally driven flow: the simulator registers the connection (so
  /// metrics and routing apply) but never self-generates packets — a
  /// transport layer injects them via Simulator::inject_external. The
  /// `interval` still serves as the nominal inter-arrival time for metrics.
  bool external = false;
  std::uint64_t seed = 0;

  // kOnOffVbr shape: packets per burst (geometric mean) and the fraction of
  // time spent bursting; peak interval = interval * on_fraction.
  double burst_mean_packets = 16.0;
  double on_fraction = 0.25;
};

struct FlowState {
  FlowSpec spec;
  util::Xoshiro256 rng{0};
  iba::Cycle next_nominal = 0;   ///< CBR drift-free clock.
  std::uint32_t next_sequence = 0;
  std::uint32_t burst_left = 0;  ///< kOnOffVbr packets left in this burst.
  bool stopped = false;          ///< Set by Simulator::stop_flow.
  /// True while a kGenerate event for this flow sits in the queue. Lets
  /// resume_flow avoid double-scheduling the generator chain.
  bool generator_scheduled = false;
  /// Misbehaving-source multiplier on the generation rate (1.0 = nominal).
  /// Set by Simulator::set_flow_overdrive during fault overload bursts.
  double overdrive = 1.0;
};

}  // namespace ibarb::sim
