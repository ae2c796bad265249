// String-keyed topology registry — the `--topo` / IBARB_TOPO axis.
//
// Grammar:   FAMILY[:key=value[,key=value...]]
// Examples:  irregular:switches=32,seed=7
//            fattree:k=16,n=3            (4096 hosts, 768 switches)
//            dragonfly:a=8,h=4           (g defaults to a*h+1 = 33 groups)
//            torus3d:x=8,y=8,z=8,hosts=4
//
// Every family and every per-family key has a default, so "torus2d" alone
// is a valid spec. Unknown families and unknown keys are rejected at parse
// time (std::invalid_argument naming the valid set), mirroring the
// `--crossbar` scheduler registry. Values are unsigned integers; `rate`
// takes the IBA link width (1, 4 or 12).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "network/graph.hpp"

namespace ibarb::network {

/// Valid `--topo` families, pipe-separated (error-message order).
inline constexpr std::string_view kTopologyFamilyNames =
    "irregular|single|line|mesh2d|torus2d|torus3d|fattree|fattree2|"
    "dragonfly";

/// A parsed (but not yet built) topology description: the family plus the
/// explicitly-set parameters. Defaults are applied at build() so callers
/// can tell "user asked for seed=1" from "seed was left alone" — the paper
/// runner uses that to keep `--switches`/`--seed` meaningful for the
/// default irregular family.
class TopologySpec {
 public:
  /// Parses "family:k=v,...". Throws std::invalid_argument on an unknown
  /// family or key, a malformed pair, or a non-integer value.
  static TopologySpec parse(std::string_view text);

  const std::string& family() const noexcept { return family_; }

  bool has(std::string_view key) const noexcept;
  /// Explicit value, or the family default when unset.
  std::uint64_t param(std::string_view key) const;
  /// Sets/overrides a parameter (must be a valid key for the family).
  void set(std::string_view key, std::uint64_t value);

  /// Canonical spelling: family:k=v,... with every parameter present, in
  /// registry order. Stable across spellings of the same spec — reports
  /// echo this.
  std::string canonical() const;

  /// Builds the fabric. Throws std::invalid_argument on parameter values
  /// the family rejects (each message names the offending parameter).
  FabricGraph build() const;

  /// Keys the family accepts, with defaults, in canonical order.
  const std::vector<std::pair<std::string_view, std::uint64_t>>& keys()
      const;

 private:
  std::string family_;
  std::vector<std::pair<std::string, std::uint64_t>> params_;  // explicit
};

std::vector<std::string_view> topology_family_names();

/// True when `family` names a registered topology family.
bool is_topology_family(std::string_view family) noexcept;

}  // namespace ibarb::network
