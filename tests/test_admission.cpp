#include "qos/admission.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "arbtable/entry_set.hpp"
#include "control/snapshot.hpp"
#include "network/registry.hpp"
#include "network/topology.hpp"
#include "util/rng.hpp"

namespace ibarb::qos {

/// Reaches the derived shedding index so the audit can be shown to catch a
/// corrupted one.
struct ShedIndexTestAccess {
  static std::vector<ConnectionId>& sheddable(AdmissionControl& ac,
                                              std::size_t port_index,
                                              std::size_t rank) {
    return ac.ports_.at(port_index).sheddable.at(rank);
  }
};

namespace {

AdmissionControl::Config cfg() {
  AdmissionControl::Config c;
  c.seed = 5;
  return c;
}

struct Fixture {
  network::FabricGraph graph;
  network::Routes routes;

  explicit Fixture(network::FabricGraph g)
      : graph(std::move(g)), routes(network::compute_routes(graph)) {}
};

ConnectionRequest req(iba::NodeId src, iba::NodeId dst, iba::ServiceLevel sl,
                      unsigned distance, double mbps) {
  ConnectionRequest r;
  r.src_host = src;
  r.dst_host = dst;
  r.sl = sl;
  r.max_distance = distance;
  r.wire_mbps = mbps;
  return r;
}

TEST(Admission, ReservesOnEveryHop) {
  Fixture f(network::gen::line(3, 1));
  AdmissionControl ac(f.graph, f.routes, paper_catalogue(), cfg());
  const auto hosts = f.graph.hosts();
  const auto id = ac.request(req(hosts[0], hosts[2], 2, 8, 10.0));
  ASSERT_TRUE(id.has_value());
  const auto& conn = ac.connection(*id);
  EXPECT_EQ(conn.hops.size(), 4u);  // host + 3 switches
  for (const auto& hop : conn.hops) {
    const auto& m = ac.port_manager(hop.port.node, hop.port.port);
    EXPECT_DOUBLE_EQ(m.reserved_mbps(), 10.0);
    EXPECT_EQ(m.table().vl_weight_high(2),
              hop.requirement.total_weight);
  }
  EXPECT_TRUE(ac.check_all_invariants());
}

TEST(Admission, DeadlineUsesPathLength) {
  Fixture f(network::gen::line(4, 1));
  AdmissionControl ac(f.graph, f.routes, paper_catalogue(), cfg());
  const auto hosts = f.graph.hosts();
  const auto near = ac.request(req(hosts[0], hosts[1], 3, 16, 4.0));
  const auto far = ac.request(req(hosts[0], hosts[3], 3, 16, 4.0));
  ASSERT_TRUE(near && far);
  EXPECT_EQ(ac.connection(*near).deadline, end_to_end_guarantee(16, 3));
  EXPECT_EQ(ac.connection(*far).deadline, end_to_end_guarantee(16, 5));
}

TEST(Admission, RejectionRollsBackAllHops) {
  Fixture f(network::gen::line(2, 2));
  AdmissionControl ac(f.graph, f.routes, paper_catalogue(), cfg());
  const auto hosts = f.graph.hosts();  // h0,h1 on sw0; h2,h3 on sw1
  // Saturate the trunk: 1600 Mbps reservable on the sw0->sw1 port.
  ASSERT_TRUE(ac.request(req(hosts[0], hosts[2], 9, 64, 900.0)).has_value());
  ASSERT_TRUE(ac.request(req(hosts[1], hosts[3], 9, 64, 650.0)).has_value());
  // This one fits its host interface but not the trunk -> must roll back.
  const auto before = ac.port_manager(hosts[0], 0).reserved_mbps();
  EXPECT_FALSE(ac.request(req(hosts[0], hosts[3], 9, 64, 200.0)).has_value());
  EXPECT_DOUBLE_EQ(ac.port_manager(hosts[0], 0).reserved_mbps(), before);
  EXPECT_EQ(ac.rejected(), 1u);
  EXPECT_TRUE(ac.check_all_invariants());
}

TEST(Admission, ReleaseFreesEveryHop) {
  Fixture f(network::gen::line(3, 1));
  AdmissionControl ac(f.graph, f.routes, paper_catalogue(), cfg());
  const auto hosts = f.graph.hosts();
  const auto id = ac.request(req(hosts[0], hosts[2], 4, 32, 6.0));
  ASSERT_TRUE(id.has_value());
  const auto hops = ac.connection(*id).hops;
  ac.release(*id);
  EXPECT_FALSE(ac.is_live(*id));
  for (const auto& hop : hops) {
    const auto& m = ac.port_manager(hop.port.node, hop.port.port);
    EXPECT_DOUBLE_EQ(m.reserved_mbps(), 0.0);
    EXPECT_EQ(m.free_entries(), 64u);
  }
  EXPECT_THROW(ac.release(*id), std::invalid_argument);
}

TEST(Admission, SameSlConnectionsShareEntriesAcrossTheFabric) {
  Fixture f(network::gen::single_switch(4));
  AdmissionControl ac(f.graph, f.routes, paper_catalogue(), cfg());
  const auto hosts = f.graph.hosts();
  // Two SL7 connections into the same destination share the switch port's
  // sequence (accumulated weight), not two separate sequences.
  ASSERT_TRUE(ac.request(req(hosts[0], hosts[3], 7, 64, 2.0)).has_value());
  ASSERT_TRUE(ac.request(req(hosts[1], hosts[3], 7, 64, 2.0)).has_value());
  const auto up = f.graph.host_uplink(hosts[3]);
  const auto& m = ac.port_manager(up.node, up.port);
  EXPECT_EQ(m.live_sequences(), 1u);
  EXPECT_EQ(m.stats().shares, 1u);
}

TEST(Admission, DistanceGuaranteeHoldsOnEveryHopTable) {
  Fixture f(network::gen::line(3, 1));
  AdmissionControl ac(f.graph, f.routes, paper_catalogue(), cfg());
  const auto hosts = f.graph.hosts();
  const auto id = ac.request(req(hosts[0], hosts[2], 0, 2, 1.5));
  ASSERT_TRUE(id.has_value());
  for (const auto& hop : ac.connection(*id).hops) {
    const auto& table =
        ac.port_manager(hop.port.node, hop.port.port).table().high();
    EXPECT_LE(arbtable::max_gap_for_vl(table, 0), 2u);
  }
}

TEST(Admission, ThrowsOnBestEffortSl) {
  Fixture f(network::gen::single_switch(2));
  AdmissionControl ac(f.graph, f.routes, paper_catalogue(), cfg());
  const auto hosts = f.graph.hosts();
  EXPECT_THROW(ac.request(req(hosts[0], hosts[1], 11, 64, 1.0)),
               std::invalid_argument);
}

TEST(Admission, LegacySchemePutsDbInLowTable) {
  Fixture f(network::gen::single_switch(3));
  auto c = cfg();
  c.scheme = Scheme::kLegacy;
  AdmissionControl ac(f.graph, f.routes, paper_catalogue(), c);
  const auto hosts = f.graph.hosts();
  // SL7 is DB -> low table under the legacy scheme.
  const auto db = ac.request(req(hosts[0], hosts[2], 7, 64, 5.0));
  ASSERT_TRUE(db.has_value());
  // SL2 is DBTS -> still high table.
  const auto dbts = ac.request(req(hosts[1], hosts[2], 2, 8, 5.0));
  ASSERT_TRUE(dbts.has_value());
  const auto up = f.graph.host_uplink(hosts[2]);
  const auto& m = ac.port_manager(up.node, up.port);
  EXPECT_GT(m.table().vl_weight_low(7), 0u);
  EXPECT_EQ(m.table().vl_weight_high(7), 0u);
  EXPECT_GT(m.table().vl_weight_high(2), 0u);
  ac.release(*db);
  EXPECT_EQ(m.table().vl_weight_low(7), 0u);
  EXPECT_TRUE(ac.check_all_invariants());
}

TEST(Admission, NewSchemePutsEverythingInHighTable) {
  Fixture f(network::gen::single_switch(3));
  AdmissionControl ac(f.graph, f.routes, paper_catalogue(), cfg());
  const auto hosts = f.graph.hosts();
  ASSERT_TRUE(ac.request(req(hosts[0], hosts[2], 7, 64, 5.0)).has_value());
  const auto up = f.graph.host_uplink(hosts[2]);
  const auto& m = ac.port_manager(up.node, up.port);
  EXPECT_GT(m.table().vl_weight_high(7), 0u);
  // Only the static best-effort entries occupy the low table.
  EXPECT_EQ(m.table().vl_weight_low(7), 0u);
}

TEST(Admission, ProgramConfiguresSimulatorPorts) {
  Fixture f(network::gen::single_switch(2));
  AdmissionControl ac(f.graph, f.routes, paper_catalogue(), cfg());
  const auto hosts = f.graph.hosts();
  ASSERT_TRUE(ac.request(req(hosts[0], hosts[1], 3, 16, 8.0)).has_value());
  sim::Simulator s(f.graph, f.routes, sim::SimConfig{});
  ac.program(s);
  const auto up = f.graph.host_uplink(hosts[1]);
  const auto id = s.flat_port_id(up.node, up.port);
  EXPECT_DOUBLE_EQ(s.metrics().ports[id].reserved_mbps, 8.0);
}

TEST(Admission, EightyPercentCapAcrossManyConnections) {
  Fixture f(network::gen::single_switch(2));
  AdmissionControl ac(f.graph, f.routes, paper_catalogue(), cfg());
  const auto hosts = f.graph.hosts();
  double total = 0.0;
  for (int i = 0; i < 2000; ++i) {
    if (ac.request(req(hosts[0], hosts[1], 7, 64, 4.0)).has_value())
      total += 4.0;
  }
  EXPECT_LE(total, 0.8 * 2000.0 + 1e-9);
  EXPECT_GT(total, 0.8 * 2000.0 - 8.0);  // fills right up to the cap
}

TEST(Admission, PortManagerNamesAnUnwiredPort) {
  Fixture f(network::gen::single_switch(2, 4));
  AdmissionControl ac(f.graph, f.routes, paper_catalogue(), cfg());
  const auto sw = f.graph.host_uplink(f.graph.hosts()[0]).node;
  try {
    (void)ac.port_manager(sw, 3);
    FAIL() << "an unwired port has no manager";
  } catch (const std::out_of_range& e) {
    EXPECT_EQ(std::string(e.what()),
              "node " + std::to_string(sw) +
                  " port 3 is unwired: it has no arbitration table");
  }
  EXPECT_THROW((void)ac.port_manager(99, 0), std::out_of_range);
}

// --------------------------------------------------------------------------
// Shedding-victim order: request_degrading against the linear scan it
// replaced.

int reference_shed_rank(TrafficCategory c) {
  switch (c) {
    case TrafficCategory::kCh: return 0;
    case TrafficCategory::kBe: return 1;
    case TrafficCategory::kPbe: return 2;
    case TrafficCategory::kDbts:
    case TrafficCategory::kDb: return -1;
  }
  return -1;
}

/// The reference: every live connection is scanned for the most sheddable
/// one sharing a port with the path — lowest class rank, then newest id.
/// `ids` holds every id admitted so far, ascending.
AdmissionControl::DegradeResult reference_degrading(
    AdmissionControl& ac, const network::Routes& routes,
    const std::vector<ConnectionId>& ids, const ConnectionRequest& r) {
  AdmissionControl::DegradeResult result;
  result.id = ac.request(r);
  const auto path = routes.path(r.src_host, r.dst_host);
  while (!result.id) {
    const Connection* victim = nullptr;
    int victim_rank = 0;
    for (const auto id : ids) {
      if (!ac.is_live(id)) continue;
      const auto& conn = ac.connection(id);
      const int rank = reference_shed_rank(conn.category);
      if (rank < 0) continue;
      const bool overlaps = std::any_of(
          conn.hops.begin(), conn.hops.end(), [&](const HopReservation& h) {
            return std::find(path.begin(), path.end(), h.port) != path.end();
          });
      if (!overlaps) continue;
      if (victim == nullptr || rank < victim_rank ||
          (rank == victim_rank && id > victim->id)) {
        victim = &conn;
        victim_rank = rank;
      }
    }
    if (victim == nullptr) break;
    const auto victim_id = victim->id;
    ac.release(victim_id);
    result.shed.push_back(victim_id);
    result.id = ac.request(r);
  }
  return result;
}

std::vector<std::uint8_t> saved(const AdmissionControl& ac) {
  util::BinWriter w;
  ac.save_state(w);
  return std::move(w).take();
}

/// Drives the indexed AdmissionControl and a reference twin through the
/// same randomized setups (best-effort and guaranteed, degrading or not)
/// and teardowns. Halfway through, the indexed one is replaced by a copy
/// restored from its snapshot. Returns the number of shed victims.
std::size_t run_victim_order_differential(const network::FabricGraph& graph,
                                          const network::Routes& routes,
                                          std::uint64_t seed,
                                          unsigned steps) {
  const auto catalogue = paper_catalogue();
  std::vector<SlProfile> guaranteed;
  std::vector<SlProfile> best_effort;
  for (const auto& p : catalogue)
    (p.max_distance != 0 ? guaranteed : best_effort).push_back(p);
  auto c = cfg();
  c.seed = seed;
  auto fast = std::make_unique<AdmissionControl>(graph, routes, catalogue, c);
  AdmissionControl ref(graph, routes, catalogue, c);

  const auto hosts = graph.hosts();
  util::Xoshiro256 rng(seed);
  std::vector<ConnectionId> ids;   // every admitted id, ascending
  std::vector<ConnectionId> live;  // ids not yet released
  const auto admitted = [&](ConnectionId id) {
    ids.push_back(id);
    live.push_back(id);
  };
  std::size_t shed = 0;
  for (unsigned step = 0; step < steps; ++step) {
    if (step == steps / 2) {
      const auto blob = saved(*fast);
      auto restored =
          std::make_unique<AdmissionControl>(graph, routes, catalogue, c);
      util::BinReader r(blob);
      restored->load_state(r);
      EXPECT_TRUE(r.at_end());
      EXPECT_EQ(saved(*restored), blob);
      fast = std::move(restored);
    }
    const double roll = rng.uniform();
    if (roll < 0.15 && !live.empty()) {
      const auto k = rng.below(live.size());
      const auto id = live[k];
      live.erase(live.begin() + static_cast<long>(k));
      fast->release(id);
      ref.release(id);
      if (rng.chance(0.5)) {
        fast->forget(id);
        ref.forget(id);
      }
      continue;
    }
    ConnectionRequest r;
    r.src_host = hosts[rng.below(hosts.size())];
    do {
      r.dst_host = hosts[rng.below(hosts.size())];
    } while (r.dst_host == r.src_host);
    if (roll < 0.6) {
      const auto& p = best_effort[rng.below(best_effort.size())];
      r.sl = p.sl;
      r.wire_mbps = rng.uniform(20.0, 300.0);
      const auto a = fast->request_best_effort(r);
      const auto b = ref.request_best_effort(r);
      EXPECT_EQ(a, b) << "best-effort setup, step " << step;
      if (a) admitted(*a);
    } else {
      const auto& p = guaranteed[rng.below(guaranteed.size())];
      r.sl = p.sl;
      r.max_distance = p.max_distance;
      r.wire_mbps = rng.uniform(p.min_mbps, 4.0 * p.max_mbps);
      if (roll < 0.7) {
        const auto a = fast->request(r);
        EXPECT_EQ(a, ref.request(r)) << "guaranteed setup, step " << step;
        if (a) admitted(*a);
      } else {
        const auto a = fast->request_degrading(r);
        const auto b = reference_degrading(ref, routes, ids, r);
        EXPECT_EQ(a.id, b.id) << "degrading setup, step " << step;
        EXPECT_EQ(a.shed, b.shed) << "victims, step " << step;
        for (const auto victim : a.shed)
          live.erase(std::find(live.begin(), live.end(), victim));
        shed += a.shed.size();
        if (a.id) admitted(*a.id);
      }
    }
    if (step % 256 == 0) {
      EXPECT_EQ(saved(*fast), saved(ref)) << "state diverged by step " << step;
      std::string why;
      EXPECT_TRUE(fast->audit_full(&why)) << why;
    }
  }
  EXPECT_EQ(saved(*fast), saved(ref));
  EXPECT_EQ(fast->accepted(), ref.accepted());
  EXPECT_EQ(fast->rejected(), ref.rejected());
  std::string why;
  EXPECT_TRUE(fast->audit_full(&why)) << why;
  return shed;
}

TEST(AdmissionVictimOrder, MatchesLinearScanOnThePaperFabric) {
  const auto graph =
      network::TopologySpec::parse("irregular:switches=16,seed=3").build();
  const auto routes = network::compute_routes(graph);
  for (const std::uint64_t seed : {1u, 2u}) {
    const auto shed = run_victim_order_differential(graph, routes, seed, 3000);
    EXPECT_GT(shed, 50u) << "the run must exercise shedding";
  }
}

TEST(AdmissionVictimOrder, MatchesLinearScanOnAFatTree) {
  const auto graph = network::TopologySpec::parse("fattree:k=4,n=2").build();
  const auto routes = network::compute_routes(graph);
  for (const std::uint64_t seed : {3u, 4u}) {
    const auto shed = run_victim_order_differential(graph, routes, seed, 3000);
    EXPECT_GT(shed, 50u) << "the run must exercise shedding";
  }
}

/// Position of (node, port) among the wired ports in (node, port) order —
/// the order AdmissionControl keeps its per-port state in.
std::size_t wired_index(const network::FabricGraph& g, iba::NodeId node,
                        unsigned port) {
  std::size_t index = 0;
  for (iba::NodeId n = 0; n < g.node_count(); ++n)
    for (unsigned p = 0; p < g.port_count(n); ++p) {
      if (n == node && p == port) return index;
      if (g.peer(n, static_cast<iba::PortIndex>(p))) ++index;
    }
  throw std::out_of_range("no such port");
}

TEST(AdmissionVictimOrder, AuditNamesACorruptedSheddingIndex) {
  Fixture f(network::gen::single_switch(3, 4));
  AdmissionControl ac(f.graph, f.routes, paper_catalogue(), cfg());
  const auto hosts = f.graph.hosts();
  const auto be = ac.request_best_effort(req(hosts[0], hosts[1], 11, 64, 5.0));
  ASSERT_TRUE(be.has_value());
  std::string why;
  ASSERT_TRUE(ac.audit_full(&why)) << why;

  // Port 0 of the switch leads back to host 0, so the connection has no hop
  // there: an entry on it is stale.
  const auto sw = f.graph.host_uplink(hosts[0]).node;
  ASSERT_EQ(f.graph.host_uplink(hosts[0]).port, 0u);
  auto& stale =
      ShedIndexTestAccess::sheddable(ac, wired_index(f.graph, sw, 0), 1);
  ASSERT_TRUE(stale.empty());
  stale.push_back(*be);
  EXPECT_FALSE(ac.audit_full(&why));
  EXPECT_EQ(why, "shedding index on node " + std::to_string(sw) +
                     " port 0 lists connection " + std::to_string(*be) +
                     ", which has no live hop of that shed rank there");
  stale.clear();
  ASSERT_TRUE(ac.audit_full(&why)) << why;

  // Dropping it from its source host port's list: a missing entry.
  auto& own = ShedIndexTestAccess::sheddable(
      ac, wired_index(f.graph, hosts[0], 0), 1);
  ASSERT_EQ(own, std::vector<ConnectionId>{*be});
  own.clear();
  EXPECT_FALSE(ac.audit_full(&why));
  EXPECT_EQ(why, "live sheddable connection " + std::to_string(*be) +
                     " is missing from the shedding index on node " +
                     std::to_string(hosts[0]) + " port 0");
}

// --------------------------------------------------------------------------
// Fail-closed restore: forged snapshot fields, re-sealed so the CRC passes.

constexpr std::uint64_t kRunSeed = 7;

/// One 4-port switch with hosts on ports 0..2; port 3 stays unwired. Holds
/// a guaranteed connection (id 1) from host 0 whose first hop is a
/// high-table sequence on host 0's port, next to a dead sequence slot.
struct ForgeFixture {
  network::FabricGraph graph;
  network::Routes routes;
  iba::NodeId sw = 0;
  std::vector<iba::NodeId> hosts;
  std::unique_ptr<AdmissionControl> ac;
  std::vector<std::uint8_t> payload;
  std::vector<std::size_t> key_at;  ///< Offset of each port-manager key.
  std::size_t first_conn_at = 0;    ///< Offset of connection 1's id.

  ForgeFixture() {
    sw = graph.add_switch(4);
    for (unsigned p = 0; p < 3; ++p) {
      hosts.push_back(graph.add_host());
      graph.connect(sw, static_cast<iba::PortIndex>(p), hosts.back(), 0);
    }
    routes = network::compute_routes(graph);
    ac = std::make_unique<AdmissionControl>(graph, routes, paper_catalogue(),
                                            cfg());
    EXPECT_EQ(ac->request(req(hosts[0], hosts[1], 2, 8, 4.0)), 1u);
    const auto dead = ac->request(req(hosts[0], hosts[2], 3, 16, 4.0));
    EXPECT_TRUE(dead.has_value());
    ac->release(*dead);  // leaves handle 1 of host 0's port dead
    EXPECT_TRUE(ac->request_best_effort(req(hosts[1], hosts[2], 11, 64, 5.0)));

    payload = control::open_envelope(
        control::save_world(0, kRunSeed, control::World{ac.get()}));
    // snap_time u64, run_seed u64, admission flag, manager count u64.
    std::size_t at = 8 + 8 + 1 + 8;
    for (iba::NodeId node = 0; node < graph.node_count(); ++node) {
      for (unsigned p = 0; p < graph.port_count(node); ++p) {
        if (!graph.peer(node, static_cast<iba::PortIndex>(p))) continue;
        util::BinWriter w;
        ac->port_manager(node, static_cast<iba::PortIndex>(p)).save_state(w);
        key_at.push_back(at);
        at += 8 + w.size();
      }
    }
    first_conn_at = at + 8;  // after the live-connection count
  }

  /// Offset of a field of connection 1's first hop.
  std::size_t first_hop_at() const {
    // id, src, dst u32; sl u8; max_distance u32; wire_mbps f64; hop count.
    return first_conn_at + 4 + 4 + 4 + 1 + 4 + 8 + 8;
  }

  void poke(std::size_t at, std::uint64_t value, unsigned bytes) {
    for (unsigned b = 0; b < bytes; ++b)
      payload.at(at + b) = static_cast<std::uint8_t>(value >> (8 * b));
  }

  /// Restores the forged payload into a fresh world; returns the error.
  std::string restore_error() const {
    AdmissionControl fresh(graph, routes, paper_catalogue(), cfg());
    try {
      control::restore_world(control::seal_envelope(payload), kRunSeed,
                             control::World{&fresh});
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "restore accepted the forged snapshot";
  }
};

TEST(AdmissionRestore, UnforgedSnapshotRestores) {
  ForgeFixture f;
  EXPECT_EQ(f.key_at.size(), 6u);
  EXPECT_EQ(f.restore_error(), "restore accepted the forged snapshot");
}

TEST(AdmissionRestore, RejectsADuplicatePortManagerKey) {
  ForgeFixture f;
  f.poke(f.key_at[1], 0, 8);  // key 1 (switch port 1) -> key 0 again
  EXPECT_EQ(f.restore_error(),
            "snapshot port-manager key 0 is not strictly ascending");
}

TEST(AdmissionRestore, RejectsAPortManagerKeyBeyondTheFabric) {
  ForgeFixture f;
  f.poke(f.key_at.back(), 4 * 256, 8);
  EXPECT_EQ(f.restore_error(),
            "snapshot port-manager key 1024 names node 4 of a 4-node fabric");
}

TEST(AdmissionRestore, RejectsAPortManagerKeyOnAnUnwiredPort) {
  ForgeFixture f;
  // Host 0's key becomes switch port 3: still ascending.
  f.poke(f.key_at[3], 3, 8);
  EXPECT_EQ(f.restore_error(),
            "snapshot port-manager key 3 names node 0 port 3, which is "
            "unwired");
}

TEST(AdmissionRestore, RejectsAHopOnAnUnwiredPort) {
  ForgeFixture f;
  f.poke(f.first_hop_at(), f.sw, 4);
  f.poke(f.first_hop_at() + 4, 3, 1);
  EXPECT_EQ(f.restore_error(),
            "snapshot connection 1 has a hop on node 0 port 3, which is "
            "unwired");
}

TEST(AdmissionRestore, RejectsAHighTableHandleThatIsNotALiveSequence) {
  ForgeFixture f;
  const auto handle_at = f.first_hop_at() + 4 + 1;
  f.poke(handle_at, 1, 4);  // the released slot
  EXPECT_EQ(f.restore_error(),
            "snapshot connection 1 names sequence handle 1, which is not a "
            "live sequence of node 1 port 0");
  f.poke(handle_at, 7, 4);  // no such slot
  EXPECT_EQ(f.restore_error(),
            "snapshot connection 1 names sequence handle 7, which is not a "
            "live sequence of node 1 port 0");
}

TEST(AdmissionRestore, RejectsAConnectionIdAtOrAboveTheNextId) {
  ForgeFixture f;
  f.poke(f.first_conn_at, 99, 4);
  EXPECT_EQ(f.restore_error(),
            "snapshot connection id 99 is not below its next id 4");
}

}  // namespace
}  // namespace ibarb::qos
