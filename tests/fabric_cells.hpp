// The (topology, routing) cells the end-to-end tests run on: the paper's
// irregular fabric on up*/down*, plus the smallest useful instance of each
// structured family on its structure-aware engine.
#pragma once

#include <ostream>

#include "paper_runner.hpp"

namespace ibarb::bench {

struct FabricCell {
  const char* name;  ///< gtest parameter name.
  const char* topo;
  const char* routing;

  void apply(PaperRunConfig& cfg) const {
    cfg.topo = network::TopologySpec::parse(topo);
    cfg.routing = routing;
  }
  /// A stable test-listing label (gtest would print the pointer bytes).
  friend std::ostream& operator<<(std::ostream& os, const FabricCell& c) {
    return os << c.name;
  }
};

inline constexpr FabricCell kFabricCells[] = {
    {"irregular_updown", "irregular", "updown"},
    {"torus3d_minimal_vl_escape", "torus3d:x=3,y=3,z=3,hosts=1",
     "minimal-vl-escape"},
    {"dragonfly_minimal_vl_escape", "dragonfly:a=2,h=1,p=2",
     "minimal-vl-escape"},
    {"fattree_dmodk", "fattree:k=4,n=2", "fattree-dmodk"},
};

}  // namespace ibarb::bench
