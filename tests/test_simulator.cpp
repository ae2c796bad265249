#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include "network/registry.hpp"
#include "network/topology.hpp"

namespace ibarb::sim {
namespace {

/// Arbitration table serving the given VLs round-robin with the given
/// weights from the high-priority table.
iba::VlArbitrationTable table_for(
    std::initializer_list<std::pair<iba::VirtualLane, std::uint8_t>> vls) {
  iba::VlArbitrationTable t;
  unsigned i = 0;
  for (const auto& [vl, w] : vls) t.high()[i++] = iba::ArbTableEntry{vl, w};
  return t;
}

/// Programs every wired output port of the fabric with the same table.
void program_all(Simulator& sim, const network::FabricGraph& g,
                 const iba::VlArbitrationTable& t) {
  for (iba::NodeId n = 0; n < g.node_count(); ++n) {
    const unsigned ports = g.is_switch(n) ? g.port_count(n) : 1;
    for (unsigned p = 0; p < ports; ++p)
      if (g.peer(n, static_cast<iba::PortIndex>(p)))
        sim.set_output_arbitration(n, static_cast<iba::PortIndex>(p), t);
  }
}

FlowSpec cbr(iba::NodeId src, iba::NodeId dst, iba::ServiceLevel sl,
             std::uint32_t payload, iba::Cycle interval) {
  FlowSpec f;
  f.src_host = src;
  f.dst_host = dst;
  f.sl = sl;
  f.payload_bytes = payload;
  f.interval = interval;
  f.deadline = 1u << 20;
  return f;
}

TEST(Simulator, DeliversCbrPackets) {
  const auto g = network::gen::single_switch(2);
  const auto routes = network::compute_routes(g);
  Simulator sim(g, routes, SimConfig{});
  program_all(sim, g, table_for({{0, 100}}));
  const auto hosts = g.hosts();
  const auto flow = sim.add_flow(cbr(hosts[0], hosts[1], 0, 256, 2000));
  sim.metrics().start_window(0);
  sim.run_until(200000);
  const auto& c = sim.metrics().connections[flow];
  // 200000/2000 = 100 packets generated; nearly all should have landed.
  EXPECT_GE(c.rx_packets, 95u);
  EXPECT_LE(c.rx_packets, 101u);
  EXPECT_EQ(c.rx_payload_bytes, c.rx_packets * 256u);
  EXPECT_GT(c.delay.mean(), 0.0);
}

TEST(Simulator, PacketConservation) {
  const auto g = network::gen::line(3, 1);
  const auto routes = network::compute_routes(g);
  Simulator sim(g, routes, SimConfig{});
  program_all(sim, g, table_for({{0, 100}, {1, 100}}));
  const auto hosts = g.hosts();
  const auto f1 = sim.add_flow(cbr(hosts[0], hosts[2], 0, 512, 1500));
  const auto f2 = sim.add_flow(cbr(hosts[2], hosts[0], 1, 256, 900));
  sim.metrics().start_window(0);
  sim.run_until(500000);
  const auto& m = sim.metrics();
  const auto tx = m.connections[f1].tx_packets + m.connections[f2].tx_packets;
  const auto rx = m.connections[f1].rx_packets + m.connections[f2].rx_packets;
  ASSERT_GE(tx, rx);
  // Everything generated is delivered, queued, or in flight on a link; the
  // line has 5 links x 2 directions, at most ~2 packets in flight each.
  const auto queued = sim.packets_in_network();
  ASSERT_GE(tx, rx + queued);
  EXPECT_LE(tx - rx - queued, 20u);
}

TEST(Simulator, MultiHopDelayGrowsWithDistance) {
  const auto g = network::gen::line(4, 1);
  const auto routes = network::compute_routes(g);
  Simulator sim(g, routes, SimConfig{});
  program_all(sim, g, table_for({{0, 100}, {1, 100}}));
  const auto hosts = g.hosts();
  const auto near = sim.add_flow(cbr(hosts[0], hosts[1], 0, 256, 3000));
  const auto far = sim.add_flow(cbr(hosts[0], hosts[3], 1, 256, 3000));
  sim.metrics().start_window(0);
  sim.run_until(300000);
  const auto& m = sim.metrics();
  ASSERT_GT(m.connections[near].rx_packets, 10u);
  ASSERT_GT(m.connections[far].rx_packets, 10u);
  EXPECT_GT(m.connections[far].delay.mean(),
            m.connections[near].delay.mean());
}

TEST(Simulator, ArbitrationWeightsShapeContendedBandwidth) {
  // Two sources flood one destination; table weights 2:1 on their VLs must
  // shape the delivered bytes accordingly.
  const auto g = network::gen::single_switch(3);
  const auto routes = network::compute_routes(g);
  Simulator sim(g, routes, SimConfig{});
  program_all(sim, g, table_for({{0, 200}, {1, 100}}));
  const auto hosts = g.hosts();
  // Each source offers ~90% of the link: the shared output saturates.
  const auto fa = sim.add_flow(cbr(hosts[0], hosts[2], 0, 1024, 1160));
  const auto fb = sim.add_flow(cbr(hosts[1], hosts[2], 1, 1024, 1160));
  sim.metrics().start_window(0);
  sim.run_until(3000000);
  const auto& m = sim.metrics();
  const auto ra = m.connections[fa].rx_wire_bytes;
  const auto rb = m.connections[fb].rx_wire_bytes;
  ASSERT_GT(rb, 0u);
  EXPECT_NEAR(static_cast<double>(ra) / static_cast<double>(rb), 2.0, 0.15);
}

TEST(Simulator, ManagementTrafficPreemptsData) {
  const auto g = network::gen::single_switch(3);
  const auto routes = network::compute_routes(g);
  Simulator sim(g, routes, SimConfig{});
  program_all(sim, g, table_for({{0, 100}}));
  const auto hosts = g.hosts();
  // Saturating data flow and a trickle of management MADs to the same dst.
  const auto data = sim.add_flow(cbr(hosts[0], hosts[2], 0, 4096, 4200));
  auto mad = cbr(hosts[1], hosts[2], 0, 64, 50000);
  mad.management = true;
  const auto mgmt = sim.add_flow(mad);
  sim.metrics().start_window(0);
  sim.run_until(2000000);
  const auto& m = sim.metrics();
  EXPECT_GT(m.connections[data].rx_packets, 100u);
  // Management packets are tiny and few: all of them must get through.
  EXPECT_GE(m.connections[mgmt].rx_packets, 38u);
  EXPECT_LT(m.connections[mgmt].delay.max(), 100000.0);
}

TEST(Simulator, DeterministicAcrossRuns) {
  const auto run = [] {
    const auto g = network::gen::line(3, 2);
    const auto routes = network::compute_routes(g);
    Simulator sim(g, routes, SimConfig{});
    iba::VlArbitrationTable t = iba::VlArbitrationTable();
    t.high()[0] = iba::ArbTableEntry{0, 50};
    t.high()[1] = iba::ArbTableEntry{1, 30};
    t.high()[2] = iba::ArbTableEntry{2, 20};
    for (iba::NodeId n = 0; n < g.node_count(); ++n) {
      const unsigned ports = g.is_switch(n) ? g.port_count(n) : 1;
      for (unsigned p = 0; p < ports; ++p)
        if (g.peer(n, static_cast<iba::PortIndex>(p)))
          sim.set_output_arbitration(n, static_cast<iba::PortIndex>(p), t);
    }
    const auto hosts = g.hosts();
    sim.add_flow(cbr(hosts[0], hosts[5], 0, 256, 700));
    sim.add_flow(cbr(hosts[1], hosts[4], 1, 512, 900));
    sim.add_flow(cbr(hosts[5], hosts[0], 2, 1024, 1100));
    sim.metrics().start_window(0);
    sim.run_until(800000);
    std::uint64_t digest = sim.events_processed();
    for (const auto& c : sim.metrics().connections) {
      digest = digest * 31 + c.rx_packets;
      digest = digest * 31 + static_cast<std::uint64_t>(c.delay.mean() * 16);
    }
    return digest;
  };
  EXPECT_EQ(run(), run());
}

TEST(Simulator, PaperPhasesStopAtTargetPackets) {
  const auto g = network::gen::single_switch(2);
  const auto routes = network::compute_routes(g);
  Simulator sim(g, routes, SimConfig{});
  program_all(sim, g, table_for({{0, 100}}));
  const auto hosts = g.hosts();
  const auto flow = sim.add_flow(cbr(hosts[0], hosts[1], 0, 256, 5000));
  const auto summary =
      sim.run_paper_phases(/*warmup=*/50000, /*min_rx=*/50,
                           /*hard_limit=*/100000000);
  EXPECT_FALSE(summary.hit_hard_limit);
  EXPECT_GE(sim.metrics().connections[flow].rx_packets, 50u);
  EXPECT_GT(summary.window_cycles, 0u);
  // Warm-up deliveries must not appear in the window stats.
  EXPECT_LT(sim.metrics().connections[flow].rx_packets, 120u);
}

TEST(Simulator, HardLimitStopsStarvedRun) {
  const auto g = network::gen::single_switch(2);
  const auto routes = network::compute_routes(g);
  Simulator sim(g, routes, SimConfig{});
  // No arbitration entries programmed: the flow's VL is never scheduled.
  const auto hosts = g.hosts();
  sim.add_flow(cbr(hosts[0], hosts[1], 3, 256, 5000));
  const auto summary = sim.run_paper_phases(1000, 10, /*hard_limit=*/300000);
  EXPECT_TRUE(summary.hit_hard_limit);
}

TEST(Simulator, UtilizationMatchesOfferedLoad) {
  const auto g = network::gen::single_switch(2);
  const auto routes = network::compute_routes(g);
  Simulator sim(g, routes, SimConfig{});
  program_all(sim, g, table_for({{0, 100}}));
  const auto hosts = g.hosts();
  // 282-byte wire packets every 1128 cycles = 25% of a 1x link.
  sim.add_flow(cbr(hosts[0], hosts[1], 0, 256, 1128));
  sim.metrics().start_window(0);
  sim.run_until(2000000);
  sim.metrics().stop_window(sim.now());
  const auto id = sim.flat_port_id(hosts[0], 0);
  const auto& pm = sim.metrics().ports[id];
  EXPECT_TRUE(pm.is_host_interface);
  EXPECT_NEAR(pm.utilization(sim.metrics().window_length()), 0.25, 0.01);
}

TEST(Simulator, RejectsBadFlows) {
  const auto g = network::gen::single_switch(2);
  const auto routes = network::compute_routes(g);
  Simulator sim(g, routes, SimConfig{});
  const auto hosts = g.hosts();
  auto self = cbr(hosts[0], hosts[0], 0, 256, 100);
  EXPECT_THROW(sim.add_flow(self), std::invalid_argument);
  auto zero = cbr(hosts[0], hosts[1], 0, 256, 100);
  zero.interval = 0;
  EXPECT_THROW(sim.add_flow(zero), std::invalid_argument);
  auto sw = cbr(g.switches()[0], hosts[1], 0, 256, 100);
  EXPECT_THROW(sim.add_flow(sw), std::invalid_argument);
}

TEST(Simulator, PoissonFlowApproximatesRate) {
  const auto g = network::gen::single_switch(2);
  const auto routes = network::compute_routes(g);
  Simulator sim(g, routes, SimConfig{});
  program_all(sim, g, table_for({{0, 100}}));
  const auto hosts = g.hosts();
  auto f = cbr(hosts[0], hosts[1], 0, 256, 2000);
  f.kind = GeneratorKind::kPoisson;
  const auto flow = sim.add_flow(f);
  sim.metrics().start_window(0);
  sim.run_until(4000000);
  const auto& c = sim.metrics().connections[flow];
  EXPECT_NEAR(static_cast<double>(c.rx_packets), 2000.0, 150.0);
}

TEST(Simulator, VbrFlowKeepsLongRunMeanRate) {
  const auto g = network::gen::single_switch(2);
  const auto routes = network::compute_routes(g);
  Simulator sim(g, routes, SimConfig{});
  program_all(sim, g, table_for({{0, 100}}));
  const auto hosts = g.hosts();
  auto f = cbr(hosts[0], hosts[1], 0, 256, 2000);
  f.kind = GeneratorKind::kOnOffVbr;
  f.on_fraction = 0.25;
  f.burst_mean_packets = 8.0;
  const auto flow = sim.add_flow(f);
  sim.metrics().start_window(0);
  sim.run_until(8000000);
  const auto& c = sim.metrics().connections[flow];
  // 8e6 / 2000 = 4000 expected; allow generous slack for burst variance.
  EXPECT_NEAR(static_cast<double>(c.rx_packets), 4000.0, 600.0);
}

}  // namespace
}  // namespace ibarb::sim

namespace ibarb::sim {
namespace {

TEST(Simulator, FourXLinksMoveFourTimesTheData) {
  // Same saturating workload on a 1x and a 4x single-switch fabric: the 4x
  // fabric must deliver ~4x the bytes in the same simulated time.
  const auto run = [](iba::LinkRate rate) {
    const auto g = network::gen::single_switch(2, 8, rate);
    const auto routes = network::compute_routes(g);
    Simulator sim(g, routes, SimConfig{});
    program_all(sim, g, table_for({{0, 200}}));
    const auto hosts = g.hosts();
    auto f = cbr(hosts[0], hosts[1], 0, 2048, 100);  // far beyond 1x capacity
    sim.add_flow(f);
    sim.metrics().start_window(0);
    sim.run_until(3'000'000);
    return sim.metrics().connections[0].rx_wire_bytes;
  };
  const auto bytes_1x = run(iba::LinkRate::k1x);
  const auto bytes_4x = run(iba::LinkRate::k4x);
  EXPECT_NEAR(static_cast<double>(bytes_4x) / static_cast<double>(bytes_1x),
              4.0, 0.2);
  // And the 1x run is itself at line rate (1 byte/cycle, minus overheads).
  EXPECT_GT(static_cast<double>(bytes_1x) / 3'000'000.0, 0.9);
}

TEST(Simulator, PrecomputedFeedersMatchTheGraph) {
  // The credit-return paths use each input side's feeder, precomputed at
  // construction instead of asking graph.peer per packet: it must be the
  // graph's peer for every wired port of every node, on every family.
  for (const char* spec :
       {"irregular:switches=16,seed=1", "fattree:k=4,n=2",
        "dragonfly:a=4,h=2", "torus3d:x=3,y=3,z=3"}) {
    const auto g = network::TopologySpec::parse(spec).build();
    const auto routes = network::compute_routes(g);
    const Simulator sim(g, routes, SimConfig{});
    std::size_t wired = 0;
    for (iba::NodeId n = 0; n < g.node_count(); ++n) {
      for (unsigned p = 0; p < g.port_count(n); ++p) {
        const auto port = static_cast<iba::PortIndex>(p);
        const auto peer = g.peer(n, port);
        if (!peer) continue;
        ++wired;
        EXPECT_EQ(sim.feeder(n, port), *peer)
            << spec << ": node " << n << " port " << p;
      }
    }
    EXPECT_GT(wired, 0u) << spec;
    // Flat metrics ids number exactly the wired output ports.
    EXPECT_EQ(sim.metrics().ports.size(), wired) << spec;
  }
}

TEST(Simulator, CheckedPortAccessorNamesTheBadPort) {
  // An unwired port, a host port other than 0, a port past the switch's
  // last and an unknown node: each entry point that names a (node, port)
  // rejects them with a message naming both, instead of silently writing
  // to some other port.
  auto g = network::gen::single_switch(2);
  const auto sw = g.switches()[0];
  const auto host = g.hosts()[0];
  const auto routes = network::compute_routes(g);
  Simulator sim(g, routes, SimConfig{});
  const auto expect_named = [](const auto& call, const std::string& what) {
    try {
      call();
      ADD_FAILURE() << "expected std::invalid_argument naming " << what;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
  };
  const iba::VlArbitrationTable t;
  const std::string unwired = "node " + std::to_string(sw) + " port 5";
  expect_named([&] { sim.set_output_arbitration(sw, 5, t); }, unwired);
  expect_named([&] { (void)sim.feeder(sw, 5); }, unwired);
  const std::string host_port = "node " + std::to_string(host) + " port 1";
  expect_named([&] { sim.set_output_arbitration(host, 1, t); }, host_port);
  expect_named([&] { (void)sim.flat_port_id(host, 1); }, host_port);
  expect_named([&] { sim.set_sl_to_vl(host, 1, {}); }, host_port);
  const std::string past = "node " + std::to_string(sw) + " port 200";
  expect_named([&] { sim.set_port_reserved_mbps(sw, 200, 1.0); }, past);
  expect_named([&] { (void)sim.flush_output_queue(sw, 200); }, past);
  expect_named([&] { sim.kick_port(999, 0); }, "node 999 port 0");
  // The wired ports themselves stay accepted.
  EXPECT_NO_THROW(sim.set_output_arbitration(host, 0, t));
  EXPECT_NO_THROW(sim.set_output_arbitration(sw, 0, t));
}

}  // namespace
}  // namespace ibarb::sim
