// What the crossbar scheduler is written against: the CrossbarView concept
// (one switch's port state during a matching round) and the decision
// counters the scheduler keeps.
//
// The scheduler is a member template over the view, so a query such as
// input_ready() inlines into the concrete view — the simulator's final
// XbarView, or the mock fabric in tests/test_crossbar.cpp — instead of
// costing an indirect call per query.
#pragma once

#include <concepts>
#include <cstdint>

#include "iba/types.hpp"

namespace ibarb::sched {

/// One switch's port state as the scheduler sees it during a matching
/// round. All queries are against current state; grant() commits a
/// transfer, which immediately makes its input and output busy.
///
///   port_count()              crossbar ports of the switch
///   input_ready(in)           wired, not transferring, holds a packet
///   input_occupancy(in)       bit v set when `in` holds a packet on VL v;
///                             meaningful only while input_ready(in)
///   head_output(in, vl)       output port the head of (in, vl) routes to
///   output_free(out)          output is not receiving a transfer
///   output_accepts(in,vl,out) the output's queue, on the VL its SLtoVL
///                             table assigns the head, has room for it
///   grant(in, vl, out)        starts the transfer: marks both ports busy
///                             and schedules its completion. The caller
///                             must have established eligibility
///                             (input_ready, output_free, output_accepts)
///                             in this round.
template <class V>
concept CrossbarView = requires(V& v, const V& cv, iba::PortIndex port,
                                iba::VirtualLane vl) {
  { cv.port_count() } -> std::convertible_to<unsigned>;
  { cv.input_ready(port) } -> std::convertible_to<bool>;
  { cv.input_occupancy(port) } -> std::convertible_to<std::uint16_t>;
  { cv.head_output(port, vl) } -> std::convertible_to<iba::PortIndex>;
  { cv.output_free(port) } -> std::convertible_to<bool>;
  { cv.output_accepts(port, vl, port) } -> std::convertible_to<bool>;
  v.grant(port, vl, port);
};

/// Always-on decision accounting, folded across switches into xbar.*
/// telemetry by the simulator's snapshot probe (plain increments — the
/// matching loop is a hot path).
struct CrossbarStats {
  std::uint64_t rounds = 0;          ///< schedule() calls.
  std::uint64_t grants = 0;          ///< Transfers started.
  std::uint64_t iterations = 0;      ///< Scan passes over the inputs.
  std::uint64_t blocked_output = 0;  ///< Head deferred: output busy.
  std::uint64_t blocked_space = 0;   ///< Head deferred: output VL full.
};

}  // namespace ibarb::sched
