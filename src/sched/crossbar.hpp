// Pluggable crossbar schedulers.
//
// The simulator's switch model is a multiplexed crossbar: at most one VL of
// each input port may be feeding the fabric, and at most one output port may
// be receiving from it, at any time (sim/switch.hpp). WHICH (input, VL,
// output) transfers start — the matching policy — is selected per run
// (SimConfig::crossbar_impl, env IBARB_CROSSBAR, flag --crossbar):
//
//   * WrrCrossbar   — the exact pre-refactor algorithm, bit-identical event
//                     order (differential goldens in tests/golden/).
//   * IslipCrossbar — iSLIP(k): iterative request/grant/accept matching with
//                     per-port pointers that desynchronize under load
//                     (McKeown, "From MWM to iSLIP").
//   * MatrixCrossbar— per-output triangular priority-matrix arbiter
//                     (Orion's RR/MATRIX Arbiter family): least-recently-
//                     served wins, so no requesting input starves.
//   * AbrCrossbar   — guaranteed VLs (those in the output's high-priority
//                     arbitration table) ride the WRR core untouched; best-
//                     effort heads go through an ATM-ABR-style explicit-rate
//                     fair-share lane (max-min over served bytes).
//
// Each scheduler sees one switch through a CrossbarView
// (sched/crossbar_view.hpp) and owns all of its own pointer/matrix/rate
// state, so schedulers are per-switch values and every decision is a pure
// function of simulation state — deterministic and byte-identical across
// --jobs like everything else. A switch holds one AnyCrossbar; schedule()
// dispatches it with one std::visit per matching round, and every view
// query inside the round inlines into the concrete view.
//
// The per-implementation invariants (maximal matching in <= N iterations,
// no starvation, Theorem-1 preservation) are executable checks in
// tests/test_crossbar.cpp; docs/SCHEDULERS.md states the full contract.
#pragma once

#include <variant>

#include "sched/abr_crossbar.hpp"
#include "sched/crossbar_impl.hpp"
#include "sched/crossbar_view.hpp"
#include "sched/islip_crossbar.hpp"
#include "sched/matrix_crossbar.hpp"
#include "sched/wrr_crossbar.hpp"

namespace ibarb::sched {

/// One switch's scheduler.
using AnyCrossbar =
    std::variant<WrrCrossbar, IslipCrossbar, MatrixCrossbar, AbrCrossbar>;

/// One scheduler sized for `ports` crossbar ports.
AnyCrossbar make_crossbar(CrossbarImpl impl, unsigned ports);

/// Runs `x`'s matching rounds over `view` (see CrossbarBase).
template <CrossbarView V>
void schedule(AnyCrossbar& x, V& view, int only_input) {
  std::visit([&](auto& s) { s.schedule(view, only_input); }, x);
}

inline const CrossbarStats& stats(const AnyCrossbar& x) noexcept {
  return std::visit(
      [](const auto& s) -> const CrossbarStats& { return s.stats(); }, x);
}

}  // namespace ibarb::sched
