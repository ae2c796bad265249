// Crossbar-scheduler selection: the enum, its names, and the two user-facing
// parsers (--crossbar flag, IBARB_CROSSBAR env). Kept in its own dependency-
// free header so util::Cli can validate the flag at parse time without
// pulling in the scheduler implementations.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace ibarb::sched {

/// Which crossbar-scheduler implementation a switch instantiates
/// (see docs/SCHEDULERS.md).
enum class CrossbarImpl : std::uint8_t {
  kWrr,     ///< Rotating-priority input/VL round-robin (pre-refactor path).
  kIslip,   ///< iSLIP(k): iterative grant/accept with pointer desync.
  kMatrix,  ///< Per-output Orion-style triangular priority-matrix arbiter.
  kAbr,     ///< WRR for guaranteed VLs + ABR explicit-rate best-effort lane.
};

inline constexpr std::string_view kCrossbarImplNames = "wrr|islip|matrix|abr";

constexpr const char* crossbar_impl_name(CrossbarImpl impl) noexcept {
  switch (impl) {
    case CrossbarImpl::kWrr: return "wrr";
    case CrossbarImpl::kIslip: return "islip";
    case CrossbarImpl::kMatrix: return "matrix";
    case CrossbarImpl::kAbr: return "abr";
  }
  return "?";
}

constexpr std::optional<CrossbarImpl> parse_crossbar_impl(
    std::string_view name) noexcept {
  if (name == "wrr") return CrossbarImpl::kWrr;
  if (name == "islip") return CrossbarImpl::kIslip;
  if (name == "matrix") return CrossbarImpl::kMatrix;
  if (name == "abr") return CrossbarImpl::kAbr;
  return std::nullopt;
}

/// Reads IBARB_CROSSBAR. Unset or empty means the default (wrr); anything
/// else must name a known implementation. Throws std::invalid_argument on an
/// unknown value — a typo'd scheduler must be a startup error, never a
/// silent fallback to wrr (the ablation would measure the wrong thing).
CrossbarImpl crossbar_impl_from_env();

}  // namespace ibarb::sched
