// Topology generators (the builders behind the `--topo` registry).
//
// The paper evaluates randomly generated irregular networks whose switches
// all have 8 ports — 4 with a host attached, 4 for switch-to-switch wiring —
// with sizes from 8 to 64 switches (32 to 256 hosts). That family lives on
// as `gen::irregular`; the structured families (k-ary n-trees, dragonfly,
// 2-D/3-D torus) scale the fabric to 1k-100k hosts and leave a
// TopologyHint on the graph so structure-aware routing engines
// (routing_engine.hpp) can exploit the wiring.
//
// Prefer building through the spec registry (network/registry.hpp,
// `TopologySpec::parse("dragonfly:a=8,h=4").build()`); the free functions
// here are the typed layer underneath it. The unqualified `make_*` names
// are deprecated shims for out-of-tree callers.
#pragma once

#include <cstdint>
#include <string>

#include "network/graph.hpp"

namespace ibarb::network {

struct IrregularSpec {
  unsigned switches = 16;
  unsigned ports_per_switch = 8;
  unsigned hosts_per_switch = 4;  ///< Remaining ports interconnect switches.
  iba::LinkRate rate = iba::LinkRate::k1x;
  iba::Cycle propagation_delay = 2;
  std::uint64_t seed = 1;
};

namespace gen {

/// Randomly wires an irregular network per the spec. Construction: a random
/// spanning tree over the switches first (guarantees connectivity), then the
/// remaining switch ports are paired uniformly at random, avoiding self
/// links and retrying to avoid duplicate parallel links when possible.
/// Hosts are attached afterwards. Deterministic in `seed`.
FabricGraph irregular(const IrregularSpec& spec);

/// One switch with `hosts` hosts — the smallest QoS-meaningful fabric.
FabricGraph single_switch(unsigned hosts, unsigned ports = 8,
                          iba::LinkRate rate = iba::LinkRate::k1x);

/// A line of `switches` switches, `hosts_per_switch` hosts on each — handy
/// for tests that need multi-hop paths with a known hop count.
FabricGraph line(unsigned switches, unsigned hosts_per_switch = 1,
                 iba::LinkRate rate = iba::LinkRate::k1x);

/// A cols x rows 2-D mesh of switches, `hosts_per_switch` hosts on each.
/// Switch (x, y) = index y*cols + x; ports 0..3 = W,E,N,S.
FabricGraph mesh2d(unsigned cols, unsigned rows,
                   unsigned hosts_per_switch = 1,
                   iba::LinkRate rate = iba::LinkRate::k1x);

/// Same, with wrap-around links (2-D torus). Requires cols, rows >= 3 so no
/// port is double-wired.
FabricGraph torus2d(unsigned cols, unsigned rows,
                    unsigned hosts_per_switch = 1,
                    iba::LinkRate rate = iba::LinkRate::k1x);

/// A 3-D torus of x*y*z switches. Ports 0..5 = -x,+x,-y,+y,-z,+z; switch
/// (cx, cy, cz) = index (cz*y + cy)*x + cx. Every dimension must be >= 3.
FabricGraph torus3d(unsigned x, unsigned y, unsigned z,
                    unsigned hosts_per_switch = 1,
                    iba::LinkRate rate = iba::LinkRate::k1x);

/// A two-level fat tree: `spines` top switches, `leaves` edge switches,
/// every leaf wired to every spine, `hosts_per_leaf` hosts per leaf. This is
/// the classic server-room shape the paper's NOW setting implies.
FabricGraph fat_tree2(unsigned spines, unsigned leaves,
                      unsigned hosts_per_leaf,
                      iba::LinkRate rate = iba::LinkRate::k1x);

/// A k-ary n-tree (Petrini/Vanneschi): n levels of k^(n-1) switches, k^n
/// hosts. Level-l switch <w, l> (w = n-1 base-k digits) wires its up port
/// k+d to the level-(l+1) switch agreeing with w except digit l = that
/// parent's digit; hosts hang off level 0, host j on switch j/k down port
/// j%k. 48-ary 3-trees reach 110k hosts with 6912 switches.
FabricGraph kary_fattree(unsigned k, unsigned n,
                         iba::LinkRate rate = iba::LinkRate::k1x);

/// A canonical dragonfly: `groups` groups of `a` routers, each router with
/// a-1 local ports (all-to-all in the group), `h` global ports, and
/// `hosts_per_router` host ports. Global channel k of group u (router k/h,
/// port a-1+k%h) connects to group (u+k+1) mod groups, palmtree style.
/// Requires groups-1 <= a*h.
FabricGraph dragonfly(unsigned a, unsigned h, unsigned groups,
                      unsigned hosts_per_router,
                      iba::LinkRate rate = iba::LinkRate::k1x);

}  // namespace gen

/// Graphviz dot rendering of a fabric (switches as boxes, hosts as dots).
std::string to_dot(const FabricGraph& graph);

}  // namespace ibarb::network
