#include "sim/simulator.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdio>
#include <stdexcept>
#include <string>

namespace ibarb::sim {

namespace {

/// LID convention used across the library: host LID = node id + 1 (LID 0 is
/// reserved/invalid in IBA). The subnet manager mirrors this assignment.
iba::Lid lid_of(iba::NodeId host) { return static_cast<iba::Lid>(host + 1); }
iba::NodeId node_of(iba::Lid lid) { return static_cast<iba::NodeId>(lid - 1); }

}  // namespace

/// One switch's port state as a sched::CrossbarView. The eligibility
/// queries and grant() reproduce exactly what the pre-refactor
/// Simulator::try_start_transfer checked and committed, in the same order,
/// so WrrCrossbar over this view is bit-identical to the old hard-wired
/// loop (tests/golden/, test_crossbar differential).
class XbarView final {
 public:
  XbarView(Simulator& sim, std::uint32_t switch_index)
      : sim_(sim),
        sw_(sim.switches_[switch_index]),
        out_(sim.out_.data() + sim.port_base_[sw_.node]) {}

  unsigned port_count() const {
    return static_cast<unsigned>(sw_.in.size());
  }

  bool input_ready(iba::PortIndex in) const {
    const InputPort& ip = sw_.in[in];
    return ip.wired && !ip.xbar_tx_busy && !ip.buffers.all_empty();
  }

  std::uint16_t input_occupancy(iba::PortIndex in) const {
    return sw_.in[in].buffers.occupancy();
  }

  iba::PortIndex head_output(iba::PortIndex in, iba::VirtualLane vl) const {
    return sim_.route_port(sw_, sw_.in[in].buffers.front(vl).destination);
  }

  bool output_free(iba::PortIndex out) const {
    return !out_[out].xbar_rx_busy;
  }

  bool output_accepts(iba::PortIndex in, iba::VirtualLane vl,
                      iba::PortIndex out) const {
    const iba::Packet& head = sw_.in[in].buffers.front(vl);
    const OutputPort& op = out_[out];
    const iba::VirtualLane out_vl =
        head.management ? iba::kManagementVl : op.sl_map.map(head.sl);
    return op.queues.can_accept(out_vl, head.wire_bytes());
  }

  void grant(iba::PortIndex in, iba::VirtualLane vl, iba::PortIndex out) {
    InputPort& ip = sw_.in[in];
    OutputPort& op = out_[out];
    const iba::Packet& head = ip.buffers.front(vl);

    ip.xbar_tx_busy = true;
    op.xbar_rx_busy = true;

    const auto link_cycles =
        iba::serialization_cycles(head.wire_bytes(), op.link.rate);
    const auto xfer_cycles = std::max<iba::Cycle>(
        1, static_cast<iba::Cycle>(static_cast<double>(link_cycles) /
                                   sim_.cfg_.crossbar_speedup));
    Event done;
    done.time = sim_.now_ + sim_.cfg_.crossbar_delay + xfer_cycles;
    done.type = EventType::kXferComplete;
    done.node = sw_.node;
    done.port = out;
    done.vl = vl;
    done.aux = in;
    sim_.queue_.push(std::move(done));
  }

 private:
  Simulator& sim_;
  SwitchState& sw_;
  OutputPort* out_;  ///< The switch's output sides, by port.
};

static_assert(sched::CrossbarView<XbarView>);

Simulator::Simulator(const network::FabricGraph& graph,
                     const network::Routes& routes, SimConfig cfg)
    : graph_(graph), routes_(routes), cfg_(cfg), trace_(cfg.trace_capacity) {
  buffer_capacity_bytes_ =
      cfg_.buffer_packets *
      (cfg_.max_payload_bytes + iba::kPacketOverheadBytes);

  // Lay out the flat port tables: every node's ports in node-id order, one
  // port for a host.
  const std::size_t nodes = graph_.node_count();
  index_.assign(nodes, kNotSwitch);
  port_base_.resize(nodes);
  std::uint32_t slots = 0;
  for (iba::NodeId id = 0; id < nodes; ++id) {
    port_base_[id] = slots;
    slots += graph_.is_switch(id) ? graph_.port_count(id) : 1;
  }
  out_.resize(slots);
  feeder_.resize(slots);

  // Flat metrics ids number the wired output ports in slot order.
  std::uint32_t flat = 0;
  for (iba::NodeId id = 0; id < nodes; ++id) {
    const bool is_switch = graph_.is_switch(id);
    const unsigned ports = is_switch ? graph_.port_count(id) : 1;
    SwitchState sw;
    if (is_switch) {
      index_[id] = static_cast<std::uint32_t>(switches_.size());
      sw.node = id;
      sw.in.resize(ports);
    }
    for (unsigned p = 0; p < ports; ++p) {
      const auto port = static_cast<iba::PortIndex>(p);
      const auto peer = graph_.peer(id, port);
      if (!peer) continue;
      feeder_[slot(id, port)] = Feeder{slot(peer->node, peer->port), *peer};
      if (is_switch) {
        sw.in[p].wired = true;
        sw.in[p].buffers.set_capacity_all(buffer_capacity_bytes_);
      }
      // Host source queues stay unbounded (kUnbounded capacities).
      OutputPort& op = out_[slot(id, port)];
      op.wired = true;
      op.peer = *peer;
      op.link = graph_.link(id, port);
      op.flat_id = flat++;
      op.sl_map = iba::SlToVlMappingTable::identity(iba::kManagementVl);
      op.credits = iba::CreditTracker(
          iba::bytes_to_blocks(buffer_capacity_bytes_));
      PortMetrics pm;
      pm.is_host_interface = !is_switch;
      pm.link_mbps = iba::link_mbps(op.link.rate);
      metrics_.ports.push_back(pm);
    }
    if (is_switch) {
      switches_.push_back(std::move(sw));
      xbar_.emplace_back(ports);
    }
  }

  // Publish the simulator's always-on component counters into the registry
  // at snapshot time. Arbiter/port/buffer figures are aggregated across all
  // output ports; per-VL output occupancy peaks keep the "which VL starved?"
  // question answerable without per-port blow-up.
  telemetry_.add_probe([this](obs::Snapshot& snap) {
    const EventQueue::Stats& qs = queue_.stats();
    snap.add_counter("queue.pushes", qs.pushes);
    snap.add_counter("queue.pops", qs.pops);
    snap.add_counter("queue.overflow_pushes", qs.overflow_pushes);
    snap.merge_gauge("queue.peak_size", static_cast<double>(qs.peak_size),
                     obs::MergePolicy::kMax);
    snap.add_histogram("queue.residency_log2", qs.residency_log2.data(),
                       qs.residency_log2.size());

    snap.add_counter("sim.events", events_);
    snap.add_counter("sim.purged_in_flight_late", purged_late_);
    snap.add_counter("trace.records", trace_.total_recorded());

    iba::VlArbiter::Stats arb;
    std::uint64_t credit_stalls = 0;
    std::uint64_t out_peak_bytes = 0;
    std::array<std::uint64_t, iba::kMaxVirtualLanes> vl_peak_packets{};
    const auto fold = [&](const OutputPort& op) {
      if (!op.wired) return;
      const iba::VlArbiter::Stats& s = op.arbiter.stats();
      arb.decisions += s.decisions;
      arb.vl15_bypasses += s.vl15_bypasses;
      arb.high_picks += s.high_picks;
      arb.low_picks += s.low_picks;
      arb.high_skips += s.high_skips;
      arb.low_skips += s.low_skips;
      arb.limit_blocks += s.limit_blocks;
      arb.idle += s.idle;
      credit_stalls += op.credit_stalls;
      for (unsigned v = 0; v < iba::kMaxVirtualLanes; ++v) {
        const VlFifo& f = op.queues.vl(static_cast<iba::VirtualLane>(v));
        out_peak_bytes = std::max<std::uint64_t>(out_peak_bytes,
                                                 f.peak_bytes());
        vl_peak_packets[v] =
            std::max<std::uint64_t>(vl_peak_packets[v], f.peak_packets());
      }
    };
    for (const OutputPort& op : out_) fold(op);

    snap.add_counter("arb.decisions", arb.decisions);
    snap.add_counter("arb.vl15_bypasses", arb.vl15_bypasses);
    snap.add_counter("arb.high_picks", arb.high_picks);
    snap.add_counter("arb.low_picks", arb.low_picks);
    snap.add_counter("arb.high_skips", arb.high_skips);
    snap.add_counter("arb.low_skips", arb.low_skips);
    snap.add_counter("arb.limit_blocks", arb.limit_blocks);
    snap.add_counter("arb.idle", arb.idle);
    snap.add_counter("port.credit_stalls", credit_stalls);
    snap.merge_gauge("buffer.out.peak_bytes",
                     static_cast<double>(out_peak_bytes),
                     obs::MergePolicy::kMax);
    snap.add_histogram("buffer.out.peak_packets_by_vl",
                       vl_peak_packets.data(), vl_peak_packets.size());

    std::uint64_t in_peak_bytes = 0;
    for (const SwitchState& sw : switches_)
      for (const InputPort& ip : sw.in) {
        if (!ip.wired) continue;
        for (unsigned v = 0; v < iba::kMaxVirtualLanes; ++v)
          in_peak_bytes = std::max<std::uint64_t>(
              in_peak_bytes,
              ip.buffers.vl(static_cast<iba::VirtualLane>(v)).peak_bytes());
      }
    snap.merge_gauge("buffer.in.peak_bytes",
                     static_cast<double>(in_peak_bytes),
                     obs::MergePolicy::kMax);

    sched::CrossbarStats xs;
    for (const auto& x : xbar_) {
      const sched::CrossbarStats& s = x.stats();
      xs.rounds += s.rounds;
      xs.grants += s.grants;
      xs.iterations += s.iterations;
      xs.blocked_output += s.blocked_output;
      xs.blocked_space += s.blocked_space;
    }
    snap.add_counter("xbar.rounds", xs.rounds);
    snap.add_counter("xbar.grants", xs.grants);
    snap.add_counter("xbar.iterations", xs.iterations);
    snap.add_counter("xbar.blocked_output", xs.blocked_output);
    snap.add_counter("xbar.blocked_space", xs.blocked_space);
  });

  if (cfg_.sample_every > 0) {
    obs::SeriesRecorder::Config sc;
    sc.sample_every = cfg_.sample_every;
    sc.capacity = cfg_.series_capacity;
    series_ = std::make_unique<obs::SeriesRecorder>(telemetry_, sc);
    metrics_.set_series(series_.get());
  }

  if (cfg_.profile) {
    profiler_ = std::make_unique<obs::PhaseProfiler>();
    // profile.* is the quarantined family: published only when profiling
    // is opted into, never sampled into the series, never part of a
    // determinism byte-compare.
    telemetry_.add_probe([this](obs::Snapshot& snap) {
      for (int i = 0; i < obs::PhaseProfiler::kPhaseCount; ++i) {
        const auto p = static_cast<obs::PhaseProfiler::Phase>(i);
        const std::string base =
            std::string("profile.") + obs::PhaseProfiler::name(p);
        snap.merge_gauge(base + "_ms", profiler_->total_ms(p),
                         obs::MergePolicy::kSum);
        snap.add_counter(base + "_calls", profiler_->calls(p));
      }
    });
  }
}

std::uint32_t Simulator::checked_slot(iba::NodeId node,
                                      iba::PortIndex port) const {
  const auto where = [&] {
    return "Simulator: node " + std::to_string(node) + " port " +
           std::to_string(static_cast<unsigned>(port));
  };
  if (node >= graph_.node_count())
    throw std::invalid_argument(where() + ": no such node (fabric has " +
                                std::to_string(graph_.node_count()) +
                                " nodes)");
  const bool host = index_[node] == kNotSwitch;
  const std::size_t ports = host ? 1 : switches_[index_[node]].in.size();
  if (port >= ports)
    throw std::invalid_argument(
        where() + ": out of range (" +
        (host ? std::string("a host has 1 port")
              : "the switch has " + std::to_string(ports) + " ports") +
        ")");
  if (!out_[slot(node, port)].wired)
    throw std::invalid_argument(where() + ": port is not wired");
  return slot(node, port);
}

network::PortRef Simulator::feeder(iba::NodeId node,
                                   iba::PortIndex port) const {
  return feeder_[checked_slot(node, port)].at;
}

void Simulator::set_output_arbitration(iba::NodeId node, iba::PortIndex port,
                                       const iba::VlArbitrationTable& table) {
  out_[checked_slot(node, port)].arbiter.set_table(table);
}

void Simulator::set_sl_to_vl(iba::NodeId node, iba::PortIndex port,
                             const iba::SlToVlMappingTable& map) {
  out_[checked_slot(node, port)].sl_map = map;
}

void Simulator::set_sl_to_vl_all(const iba::SlToVlMappingTable& map) {
  for (auto& op : out_)
    if (op.wired) op.sl_map = map;
}

void Simulator::set_port_reserved_mbps(iba::NodeId node, iba::PortIndex port,
                                       double mbps) {
  metrics_.ports[out_[checked_slot(node, port)].flat_id].reserved_mbps = mbps;
}

void Simulator::set_forwarding(iba::NodeId sw,
                               std::vector<iba::PortIndex> lft) {
  if (!graph_.is_switch(sw))
    throw std::invalid_argument("forwarding tables live in switches");
  switches_[index_[sw]].lft = std::move(lft);
}

iba::PortIndex Simulator::route_port(const SwitchState& sw,
                                     iba::Lid dst) const {
  if (!sw.lft.empty()) {
    assert(dst < sw.lft.size());
    const auto port = sw.lft[dst];
    assert(port != 0xFF && "destination LID not programmed in the LFT");
    return port;
  }
  return routes_.out_port(sw.node, node_of(dst));
}

std::uint32_t Simulator::flat_port_id(iba::NodeId node,
                                      iba::PortIndex port) const {
  return out_[checked_slot(node, port)].flat_id;
}

std::uint32_t Simulator::add_flow(const FlowSpec& spec) {
  if (!graph_.is_switch(spec.src_host) && !graph_.is_switch(spec.dst_host)) {
    // both must be hosts
  } else {
    throw std::invalid_argument("flows run host to host");
  }
  if (spec.src_host == spec.dst_host)
    throw std::invalid_argument("flow source equals destination");
  if (spec.interval == 0) throw std::invalid_argument("zero flow interval");

  const auto idx = static_cast<std::uint32_t>(flows_.size());
  FlowState fs;
  fs.spec = spec;
  fs.rng = util::Xoshiro256(cfg_.seed ^ (0x9e3779b97f4a7c15ull * (idx + 1)) ^
                            spec.seed);
  fs.next_nominal = std::max(spec.start_offset, now_);
  fs.generator_scheduled = !spec.external;
  flows_.push_back(std::move(fs));

  ConnectionMetrics cm;
  cm.sl = spec.sl;
  cm.deadline = spec.deadline;
  cm.nominal_iat = spec.interval;
  cm.qos = spec.qos;
  metrics_.connections.push_back(cm);
  if (series_) series_->note_connection(idx, spec.sl, spec.qos, spec.deadline);

  if (!spec.external) {
    Event e;
    e.time = std::max(spec.start_offset, now_);
    e.type = EventType::kGenerate;
    e.aux = idx;
    queue_.push(std::move(e));
  }
  return idx;
}

void Simulator::stop_flow(std::uint32_t flow_index) {
  flows_.at(flow_index).stopped = true;
}

void Simulator::resume_flow(std::uint32_t flow_index) {
  FlowState& f = flows_.at(flow_index);
  if (!f.stopped) return;
  f.stopped = false;
  if (f.spec.external || f.generator_scheduled) return;
  // The generator chain died while stopped: restart it from the present
  // (the CBR nominal clock must not try to catch up on the outage).
  f.next_nominal = now_;
  f.generator_scheduled = true;
  Event e;
  e.time = now_;
  e.type = EventType::kGenerate;
  e.aux = flow_index;
  queue_.push(std::move(e));
}

void Simulator::set_flow_overdrive(std::uint32_t flow_index, double factor) {
  if (factor <= 0.0) throw std::invalid_argument("overdrive must be > 0");
  flows_.at(flow_index).overdrive = factor;
}

void Simulator::schedule_flow(std::uint32_t flow_index,
                              iba::Cycle not_before) {
  FlowState& f = flows_[flow_index];
  // Misbehaving-source overdrive compresses every generator interval. The
  // common factor-1.0 path stays in exact integer arithmetic.
  const auto scaled = [&f](iba::Cycle interval) {
    if (f.overdrive == 1.0) return interval;
    return std::max<iba::Cycle>(
        1, static_cast<iba::Cycle>(static_cast<double>(interval) /
                                   f.overdrive));
  };
  iba::Cycle next = not_before;
  switch (f.spec.kind) {
    case GeneratorKind::kCbr:
      // Drift-free: advance the nominal clock, never the actual send time.
      f.next_nominal += scaled(f.spec.interval);
      next = f.next_nominal;
      break;
    case GeneratorKind::kPoisson:
      next = now_ + static_cast<iba::Cycle>(
                             f.rng.exponential(static_cast<double>(
                                 scaled(f.spec.interval))) + 1.0);
      break;
    case GeneratorKind::kOnOffVbr: {
      if (f.burst_left > 0) {
        --f.burst_left;
        const auto peak = static_cast<iba::Cycle>(
            static_cast<double>(scaled(f.spec.interval)) *
                f.spec.on_fraction + 1.0);
        next = now_ + peak;
      } else {
        // Draw a new burst; the silence restores the long-run mean rate.
        const double burst =
            1.0 + f.rng.exponential(f.spec.burst_mean_packets - 1.0);
        f.burst_left = static_cast<std::uint32_t>(burst);
        const double off_mean =
            static_cast<double>(scaled(f.spec.interval)) * burst *
            (1.0 - f.spec.on_fraction);
        next = now_ +
               static_cast<iba::Cycle>(f.rng.exponential(off_mean) + 1.0);
      }
      break;
    }
  }
  f.generator_scheduled = true;
  Event e;
  e.time = next;
  e.type = EventType::kGenerate;
  e.aux = flow_index;
  queue_.push(std::move(e));
}

void Simulator::on_generate(std::uint32_t flow_index) {
  FlowState& f = flows_[flow_index];
  f.generator_scheduled = false;
  if (f.stopped) return;  // torn down: neither generate nor reschedule
  const FlowSpec& spec = f.spec;
  const iba::Cycle now = now_;

  iba::Packet p;
  p.connection = flow_index;
  p.sl = spec.sl;
  p.source = lid_of(spec.src_host);
  p.destination = lid_of(spec.dst_host);
  p.payload_bytes = spec.payload_bytes;
  p.sequence = f.next_sequence++;
  // Generated packets derive their id from (flow, sequence) — never from a
  // shared counter. External injections (inject_external) keep the monotone
  // counter; those ids stay below 2^32, so the domains never collide.
  p.id = ((static_cast<std::uint64_t>(flow_index) + 1) << 32) |
         (p.sequence + 1);
  p.injected_at = now;
  p.management = spec.management;
  p.deadline = metrics_.connections[flow_index].deadline;

  metrics_.record_injection(flow_index, p);

  OutputPort& host = output_port(spec.src_host, 0);
  const iba::VirtualLane vl =
      spec.management ? iba::kManagementVl : host.sl_map.map(spec.sl);
  trace_.record(now, TraceEvent::kInject, spec.src_host, 0, vl, p);
  host.queues.push(vl, std::move(p));
  try_transmit(spec.src_host, 0);

  schedule_flow(flow_index, now);
}

void Simulator::try_transmit(iba::NodeId node, iba::PortIndex port) {
  OutputPort& op = output_port(node, port);
  if (!op.wired || op.tx_busy || op.queues.all_empty()) return;
  // Downed or stuck transmitter: hold everything; the fault layer calls
  // kick_port when the condition clears.
  if (hooks_ && !hooks_->may_transmit(node, port)) return;

  const auto ready = op.ready_bytes();
  const auto decision = [&] {
    obs::ScopedTimer timer(profiler_.get(), obs::PhaseProfiler::kArbitration);
    return op.arbiter.arbitrate(ready);
  }();
  if (!decision) return;

  iba::Packet p = op.queues.pop(decision->vl);
  const auto wire = p.wire_bytes();
  op.credits.consume(decision->vl, wire);
  op.tx_busy = true;
  const iba::Cycle now = now_;
  trace_.record(now, TraceEvent::kLinkTx, node, port, decision->vl, p);

  auto ser = iba::serialization_cycles(wire, op.link.rate);
  if (hooks_) ser = hooks_->stretch_serialization(node, port, ser);
  metrics_.record_tx(op.flat_id, wire, ser);

  Event done;
  done.time = now + ser;
  done.type = EventType::kTxComplete;
  done.node = node;
  done.port = port;
  queue_.push(std::move(done));

  Event arrive;
  arrive.time = now + ser + op.link.propagation_delay;
  arrive.type = EventType::kLinkDeliver;
  arrive.node = op.peer.node;
  arrive.port = op.peer.port;
  arrive.vl = decision->vl;
  arrive.packet = std::move(p);
  queue_.push(std::move(arrive));
}

void Simulator::on_tx_complete(iba::NodeId node, iba::PortIndex port) {
  output_port(node, port).tx_busy = false;
  try_transmit(node, port);
}

void Simulator::on_link_deliver(const Event& e) {
  const iba::Cycle now = now_;
  auto verdict = FaultHooks::RxVerdict::kDeliver;
  if (hooks_ && !e.packet.management) {
    obs::ScopedTimer timer(profiler_.get(), obs::PhaseProfiler::kFaultHooks);
    verdict = hooks_->on_link_rx(e.node, e.port, e.packet);
  }
  if (verdict == FaultHooks::RxVerdict::kDrop) {
    // Discarded on arrival (corrupted past the CRC, or a drop-fault window).
    // The receiver still frees the notional buffer, so upstream credits are
    // returned — a lost packet must not wedge the sender.
    trace_.record(now, TraceEvent::kDrop, e.node, e.port, e.vl, e.packet);
    metrics_.record_drop(e.packet.connection);
    release_upstream(slot(e.node, e.port), e.vl, e.packet.wire_bytes());
    return;
  }
  if (const std::uint32_t sw = index_[e.node]; sw != kNotSwitch) {
    switches_[sw].in[e.port].buffers.push(e.vl, e.packet);
    schedule_crossbar(sw, static_cast<int>(e.port));
    return;
  }
  // Host sink: record, then return credits to the upstream switch port
  // immediately (hosts drain their receive buffers at line rate).
  trace_.record(now, TraceEvent::kDeliver, e.node, e.port, e.vl, e.packet);
  {
    obs::ScopedTimer timer(profiler_.get(), obs::PhaseProfiler::kMetrics);
    metrics_.record_delivery(e.packet.connection, e.packet, now);
  }
  if (delivery_listener_) delivery_listener_(e.packet, now);
  release_upstream(slot(e.node, 0), e.vl, e.packet.wire_bytes());
}

void Simulator::release_upstream(std::uint32_t in_slot, iba::VirtualLane vl,
                                 std::uint32_t wire_bytes) {
  const Feeder& up = feeder_[in_slot];
  out_[up.out].credits.release(vl, wire_bytes);
  try_transmit(up.at.node, up.at.port);
}

void Simulator::on_xfer_complete(const Event& e) {
  const std::uint32_t sw = index_[e.node];
  const auto in_port = static_cast<iba::PortIndex>(e.aux);
  InputPort& ip = switches_[sw].in[in_port];
  OutputPort& op = output_port(e.node, e.port);

  iba::Packet p = ip.buffers.pop(e.vl);

  // Input buffer space freed: return credits to whoever feeds this port.
  release_upstream(slot(e.node, in_port), e.vl, p.wire_bytes());

  // Enqueue at the output on the VL this port's SLtoVL table dictates —
  // unless recovery abandoned this connection on this port (the packet was
  // in flight when the purge ran; queuing it now would strand it on a VL
  // whose arbitration weight left with the reservation).
  const iba::VirtualLane out_vl =
      p.management ? iba::kManagementVl : op.sl_map.map(p.sl);
  if (!p.management && !purged_flows_.empty() &&
      purged_flows_.count({op.flat_id, p.connection}) > 0) {
    trace_.record(now_, TraceEvent::kDrop, e.node, e.port, out_vl, p);
    metrics_.record_drop(p.connection);
    ++purged_late_;
  } else {
    trace_.record(now_, TraceEvent::kXbar, e.node, e.port, out_vl, p);
    op.queues.push(out_vl, std::move(p));
  }

  ip.xbar_tx_busy = false;
  op.xbar_rx_busy = false;

  try_transmit(e.node, e.port);
  schedule_crossbar(sw, /*only_input=*/-1);
}

void Simulator::schedule_crossbar(std::uint32_t switch_index, int only_input) {
  XbarView view(*this, switch_index);
  xbar_[switch_index].schedule(view, only_input);
}

void Simulator::handle(const Event& e) {
  switch (e.type) {
    case EventType::kGenerate:
      on_generate(e.aux);
      break;
    case EventType::kLinkDeliver:
      on_link_deliver(e);
      break;
    case EventType::kTxComplete:
      on_tx_complete(e.node, e.port);
      break;
    case EventType::kXferComplete:
      on_xfer_complete(e);
      break;
    case EventType::kProbe:
      break;  // phase control polls state between events
    case EventType::kControl: {
      const auto it = controls_.find(e.aux);
      assert(it != controls_.end() && "control callback fired twice");
      auto fn = std::move(it->second);
      controls_.erase(it);  // erase first: fn may call_at again
      fn();
      break;
    }
  }
}

void Simulator::call_at(iba::Cycle t, std::function<void()> fn) {
  const auto id = next_control_id_++;
  controls_.emplace(id, std::move(fn));
  Event e;
  e.time = std::max(t, now_);
  e.type = EventType::kControl;
  e.aux = id;
  queue_.push(std::move(e));
}

std::uint64_t Simulator::inject_external(std::uint32_t flow_index,
                                         std::uint32_t payload_bytes,
                                         std::uint32_t sequence,
                                         std::uint8_t rc_op, bool rc_last) {
  FlowState& f = flows_.at(flow_index);
  if (!f.spec.external)
    throw std::invalid_argument("inject_external needs an external flow");
  const FlowSpec& spec = f.spec;

  iba::Packet p;
  p.id = next_packet_id_++;
  p.connection = flow_index;
  p.sl = spec.sl;
  p.source = lid_of(spec.src_host);
  p.destination = lid_of(spec.dst_host);
  p.payload_bytes = payload_bytes;
  p.sequence = sequence;
  p.injected_at = now_;
  p.management = spec.management;
  p.rc_op = rc_op;
  p.rc_last = rc_last;
  p.deadline = metrics_.connections[flow_index].deadline;
  const auto id = p.id;

  metrics_.record_injection(flow_index, p);

  OutputPort& host = output_port(spec.src_host, 0);
  const iba::VirtualLane vl =
      spec.management ? iba::kManagementVl : host.sl_map.map(spec.sl);
  trace_.record(now_, TraceEvent::kInject, spec.src_host, 0, vl, p);
  host.queues.push(vl, std::move(p));
  try_transmit(spec.src_host, 0);
  return id;
}

void Simulator::kick_port(iba::NodeId node, iba::PortIndex port) {
  checked_slot(node, port);
  try_transmit(node, port);
}

std::uint64_t Simulator::flush_output_queue(iba::NodeId node,
                                            iba::PortIndex port) {
  OutputPort& op = out_[checked_slot(node, port)];
  std::uint64_t flushed = 0;
  // Queued packets never consumed this port's credits (that happens when
  // serialization starts), so discarding them is pure local state.
  while (!op.queues.all_empty()) {
    const auto vl = static_cast<iba::VirtualLane>(
        std::countr_zero(op.queues.occupancy()));
    iba::Packet p = op.queues.pop(vl);
    trace_.record(now_, TraceEvent::kDrop, node, port, vl, p);
    metrics_.record_drop(p.connection);
    ++flushed;
  }
  return flushed;
}

std::uint64_t Simulator::purge_flow_from_output(iba::NodeId node,
                                                iba::PortIndex port,
                                                std::uint32_t flow) {
  OutputPort& op = out_[checked_slot(node, port)];
  std::uint64_t purged = 0;
  // Like flushed packets, queued packets hold no credits yet: removal is
  // pure local state.
  for (unsigned v = 0; v < iba::kMaxVirtualLanes; ++v) {
    const auto vl = static_cast<iba::VirtualLane>(v);
    for (auto& p : op.queues.extract_connection(vl, flow)) {
      trace_.record(now_, TraceEvent::kDrop, node, port, vl, p);
      metrics_.record_drop(p.connection);
      ++purged;
    }
  }
  // Arm the barrier: anything still in flight towards this port (crossbar
  // transfer or link traversal) lands after the purge and is dropped on
  // enqueue, until clear_flow_purge re-admits the flow here.
  purged_flows_.insert({op.flat_id, flow});
  return purged;
}

void Simulator::clear_flow_purge(iba::NodeId node, iba::PortIndex port,
                                 std::uint32_t flow) {
  purged_flows_.erase({flat_port_id(node, port), flow});
}

void Simulator::run_until(iba::Cycle t) {
  while (!queue_.empty() && queue_.top().time <= t) {
    // A series boundary B samples the state after every event with time
    // <= B, so commit pending boundaries before popping the first event
    // that crosses one — the pop itself belongs to the next window.
    if (series_ && queue_.top().time > series_->next_due()) {
      obs::ScopedTimer timer(profiler_.get(), obs::PhaseProfiler::kSeries);
      series_->advance_to(queue_.top().time);
    }
    const Event e = queue_.pop();
    assert(e.time >= now_ && "time must not run backwards");
    now_ = e.time;
    ++events_;
    obs::ScopedTimer timer(profiler_.get(), obs::PhaseProfiler::kDispatch);
    handle(e);
  }
  if (now_ < t) now_ = t;
  // All events <= t are handled, so every boundary <= t is complete — flush
  // them even if no later event arrives to cross the boundary (idempotent;
  // run_paper_phases calls run_until in probe steps).
  if (series_ && t + 1 > series_->next_due()) {
    obs::ScopedTimer timer(profiler_.get(), obs::PhaseProfiler::kSeries);
    series_->advance_to(t + 1);
  }
}

RunSummary Simulator::run_paper_phases(iba::Cycle warmup,
                                       std::uint64_t min_rx_packets,
                                       iba::Cycle hard_limit) {
  RunSummary summary;
  run_until(warmup);
  summary.warmup_end = now_;

  metrics_.start_window(now_);
  const iba::Cycle window_start = now_;
  const iba::Cycle probe_step = 65536;
  iba::Cycle next_probe = now_ + probe_step;
  while (true) {
    run_until(next_probe);
    next_probe = now_ + probe_step;
    if (metrics_.min_qos_rx() >= min_rx_packets) break;
    if (now_ - window_start >= hard_limit) {
      summary.hit_hard_limit = true;
      break;
    }
  }
  metrics_.stop_window(now_);
  summary.window_cycles = now_ - window_start;
  summary.events = events_;
  return summary;
}

std::uint64_t Simulator::packets_in_network() const {
  std::uint64_t n = 0;
  for (const auto& sw : switches_)
    for (const auto& ip : sw.in) n += ip.buffers.total_packets();
  for (const auto& op : out_) n += op.queues.total_packets();
  return n;
}

}  // namespace ibarb::sim
