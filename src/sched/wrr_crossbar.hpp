// The pre-refactor crossbar policy, verbatim: rotating-priority round-robin
// across input ports, round-robin across occupied VLs within an input, first
// eligible (free output with queue space) head wins. Extracted from
// sim::Simulator::schedule_crossbar / try_start_transfer; the grant sequence
// — and therefore the event order of every simulation — is bit-identical to
// the pre-refactor code (tests/golden/ + test_crossbar differential).
//
// It is the only crossbar scheduler. With the paper's 2x internal speedup the
// output-port VL arbitration tables, not the crossbar, decide every
// guarantee; iSLIP, matrix and ABR schedulers gave the same answer more
// slowly and were removed (EXPERIMENTS.md, E13; docs/SCHEDULERS.md).
#pragma once

#include <vector>

#include "sched/crossbar_view.hpp"

namespace ibarb::sched {

class WrrCrossbar final {
 public:
  explicit WrrCrossbar(unsigned ports) : rr_vl_(ports, 0) {}

  /// Runs matching rounds over `v` until no further transfer can start.
  /// `only_input` >= 0 restricts the round to that input — the cheap
  /// trigger after a single arrival (one input feeds at most one transfer).
  template <CrossbarView V>
  void schedule(V& v, int only_input) {
    ++stats_.rounds;
    if (only_input >= 0) {
      // Single-arrival trigger: one input, at most one new transfer, and —
      // exactly like the pre-refactor path — no rotation of the input
      // priority pointer.
      try_input(v, static_cast<iba::PortIndex>(only_input));
      return;
    }
    const unsigned ports = v.port_count();
    bool progress = true;
    while (progress) {
      progress = false;
      ++stats_.iterations;
      for (unsigned k = 0; k < ports; ++k) {
        const auto p = static_cast<iba::PortIndex>((rr_input_ + k) % ports);
        if (try_input(v, p)) {
          // Rotating priority: the granted input drops to lowest priority.
          // Updated mid-scan, so later k values shift with it — the
          // pre-refactor behaviour, kept bit-for-bit.
          rr_input_ = (p + 1) % ports;
          progress = true;
        }
      }
    }
  }

  const CrossbarStats& stats() const noexcept { return stats_; }

 private:
  /// Tries to start one transfer from `in`; true when a grant was made.
  template <CrossbarView V>
  bool try_input(V& v, iba::PortIndex in) {
    if (!v.input_ready(in)) return false;

    // Round-robin across occupied VLs of this input port.
    const std::uint16_t occ = v.input_occupancy(in);
    for (unsigned k = 0; k < iba::kMaxVirtualLanes; ++k) {
      const auto vl = static_cast<iba::VirtualLane>(
          (rr_vl_[in] + k) % iba::kMaxVirtualLanes);
      if (!(occ & (1u << vl))) continue;

      const auto out = v.head_output(in, vl);
      if (!v.output_free(out)) {
        ++stats_.blocked_output;
        continue;
      }
      if (!v.output_accepts(in, vl, out)) {
        ++stats_.blocked_space;
        continue;
      }

      rr_vl_[in] =
          static_cast<iba::VirtualLane>((vl + 1) % iba::kMaxVirtualLanes);
      v.grant(in, vl, out);
      ++stats_.grants;
      return true;
    }
    return false;
  }

  CrossbarStats stats_;

  unsigned rr_input_ = 0;  ///< Rotating priority across input ports.
  std::vector<iba::VirtualLane> rr_vl_;  ///< Per-input VL round-robin.
};

}  // namespace ibarb::sched
