// String-keyed routing-engine registry (the `--routing` / IBARB_ROUTING
// axis), mirroring the `--crossbar` scheduler registry in src/sched/.
//
// An engine turns a FabricGraph into a Routes table. Three are registered:
//
//  * `updown`          — the classical deadlock-free up*/down* pass for
//                        irregular networks (the paper's algorithm, and the
//                        default). Works on any connected fabric.
//  * `minimal-vl-escape` — minimal/dimension-order routing with an escape
//                        virtual-lane layer that breaks ring and group
//                        dependency cycles (dateline VLs on tori, a
//                        destination-group VL on dragonflies, per the D3R
//                        design). Requires a structural TopologyHint
//                        (mesh2d, torus2d, torus3d, dragonfly).
//  * `fattree-dmodk`   — destination-mod-k up-path selection on fat trees
//                        (k-ary n-trees and 2-level spine/leaf), giving
//                        deterministic per-destination load spreading over
//                        the up ports. Requires a fattree/fattree2 hint.
//
// Unknown names are rejected at parse time with the valid list; engines
// that cannot route the given graph throw std::runtime_error.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "network/routing.hpp"

namespace ibarb::network {

class RoutingEngine {
 public:
  virtual ~RoutingEngine() = default;

  virtual std::string_view name() const noexcept = 0;

  /// One-line human description for --help style listings.
  virtual std::string_view description() const noexcept = 0;

  /// Builds the forwarding tables. Throws std::runtime_error when the graph
  /// cannot be routed (disconnected, or missing the structural hint this
  /// engine needs).
  virtual Routes compute(const FabricGraph& g) const = 0;
};

/// Valid `--routing` values, pipe-separated (error-message order).
inline constexpr std::string_view kRoutingEngineNames =
    "updown|minimal-vl-escape|fattree-dmodk";

/// All registered engines, in kRoutingEngineNames order.
const std::vector<const RoutingEngine*>& routing_engines();

/// Looks up an engine by name; throws std::invalid_argument naming the
/// valid set on an unknown name.
const RoutingEngine& routing_engine(std::string_view name);

/// True when `name` is a registered engine (parse-time validation).
bool is_routing_engine(std::string_view name) noexcept;

}  // namespace ibarb::network
