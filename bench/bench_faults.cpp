// Fault-storm benchmark: the robustness counterpart of the paper benches.
//
// The fabric is a dual-spine tree with asymmetric redundancy: spine 0's
// links are 4x, the backup spines' are 1x. The up*/down* routes prefer the
// fast spine, so a primary-link failure reroutes onto a quarter of the
// bandwidth — exactly the regime where graceful degradation must shed
// best-effort load to keep every DBTS/DB guarantee intact. The fabric
// carries guaranteed DBTS/DB connections, sheddable best-effort
// connections and two RC queue pairs, then a deterministic fault storm is
// armed on it: link flaps, stuck/slow ports, corruption and drop windows
// (judged by the real ICRC/VCRC path), and misbehaving best-effort
// sources. The RecoveryCoordinator re-sweeps, reroutes and
// degrades gracefully; the RC sessions recover CRC-rejected packets through
// go-back-N with capped exponential backoff.
//
// What the report must show (the robustness headline):
//   * zero DBTS/DB guarantee violations (deadline misses) through the storm;
//   * zero guarantee revocations (no guaranteed connection refused while
//     sheddable best-effort capacity remained);
//   * best-effort throughput degrading vs the no-fault baseline;
//   * every injected corruption CRC-detected, none escaping, and the RC
//     sessions completing despite them.
//
// Determinism: per-run state is fully self-contained and seeds derive from
// (seed, run index), so `--runs N --jobs J` prints byte-identical output
// for every J, and two invocations with the same flags are bit-identical.
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "faults/fault_injector.hpp"
#include "faults/fault_plan.hpp"
#include "faults/rc_session.hpp"
#include "faults/recovery.hpp"
#include "network/graph.hpp"
#include "qos/admission.hpp"
#include "qos/traffic_classes.hpp"
#include "report_common.hpp"
#include "sim/trace.hpp"
#include "subnet/subnet_manager.hpp"
#include "sweep_runner.hpp"
#include "traffic/cbr.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/table_printer.hpp"

using namespace ibarb;

namespace {

struct BenchConfig {
  unsigned spines = 2;
  unsigned leaves = 4;
  unsigned hosts_per_leaf = 2;
  iba::Cycle length = 3'000'000;
  std::uint64_t seed = 1;
  std::uint64_t storm_seed = 0;  ///< 0 = derive from run seed.
  std::string plan_spec;         ///< Overrides the random storm if set.
  unsigned runs = 1;
  unsigned jobs = 1;
  bool with_baseline = true;
  bool json = false;
  /// Trace-ring size for run 0 of the storm (0 = off); set by --trace-out.
  std::size_t trace_capacity = 0;
  /// Series sampling cadence for run 0 of the storm (--sample-every).
  std::uint64_t sample_every = 0;
  /// Wall-clock self-profiler for run 0 of the storm (--profile).
  bool profile = false;
};

struct ClassAgg {
  std::uint64_t tx = 0;
  std::uint64_t rx = 0;
  std::uint64_t dropped = 0;
  std::uint64_t misses = 0;
};

struct RunResult {
  std::uint64_t run_seed = 0;
  unsigned guaranteed = 0;       ///< Connections admitted at setup.
  unsigned besteffort = 0;
  ClassAgg dbts;                 ///< SLs 0-5.
  ClassAgg db;                   ///< SLs 6-9.
  ClassAgg be;                   ///< SLs 10-12 (CBR background only).
  faults::FaultStats fault;
  faults::RecoveryStats recovery;
  std::uint64_t rc_messages = 0;
  std::uint64_t rc_recovered = 0;
  std::uint64_t rc_retransmits = 0;
  iba::Cycle rc_max_recovery = 0;
  bool rc_failed = false;
  std::uint64_t events = 0;
  std::string plan;              ///< The storm actually applied.
  obs::Snapshot telemetry;       ///< Per-run registry snapshot.
  std::optional<obs::SeriesData> series;  ///< Engaged on the observed run.
  sim::PacketTrace trace;        ///< Populated only when tracing this run.
  std::vector<obs::PhaseSpan> fault_spans;  ///< Fault windows, for the trace.
};

constexpr iba::ServiceLevel kGuaranteedSls[] = {2, 3, 4, 5, 6, 7, 8, 9};

/// Dual-spine tree with asymmetric redundancy: spine 0 (node 0) attaches
/// every leaf over 4x links, the remaining spines over 1x. Host links are
/// 4x so leaf ingress is never the bottleneck. Routing prefers the fast
/// spine; losing one of its links moves that leaf's traffic onto a quarter
/// of the reservable bandwidth.
network::FabricGraph make_asym_fabric(const BenchConfig& bc) {
  network::FabricGraph g;
  const iba::Link fast{iba::LinkRate::k4x, 2};
  const iba::Link slow{iba::LinkRate::k1x, 2};
  std::vector<iba::NodeId> spine(bc.spines);
  for (auto& s : spine) s = g.add_switch(bc.leaves);
  std::vector<iba::NodeId> leaf(bc.leaves);
  for (auto& l : leaf) l = g.add_switch(bc.spines + bc.hosts_per_leaf);
  for (unsigned l = 0; l < bc.leaves; ++l)
    for (unsigned t = 0; t < bc.spines; ++t)
      g.connect(leaf[l], static_cast<iba::PortIndex>(t), spine[t],
                static_cast<iba::PortIndex>(l), t == 0 ? fast : slow);
  for (const auto l : leaf)
    for (unsigned h = 0; h < bc.hosts_per_leaf; ++h) {
      const auto host = g.add_host();
      g.connect(host, 0, l, static_cast<iba::PortIndex>(bc.spines + h),
                fast);
    }
  return g;
}

/// One self-contained experiment. `faulty` false gives the baseline run:
/// identical fabric, workload and seeds, no fault plan armed. `observe`
/// enables the per-run observability extras (packet trace, time-series,
/// profiler) from the bench config — only storm run 0 sets it, so the
/// exported artefacts come from one deterministic run.
RunResult run_one(const BenchConfig& bc, std::uint64_t run_seed, bool faulty,
                  bool observe = false) {
  RunResult res;
  res.run_seed = run_seed;

  const auto graph = make_asym_fabric(bc);
  subnet::SubnetManager sm(graph);
  qos::AdmissionControl::Config ac;
  ac.seed = run_seed;
  qos::AdmissionControl admission(graph, sm.routes(), qos::paper_catalogue(),
                                  ac);
  sim::SimConfig scfg;
  scfg.seed = run_seed ^ 0x5117ull;
  scfg.trace_capacity = observe ? bc.trace_capacity : 0;
  scfg.sample_every = observe ? bc.sample_every : 0;
  scfg.profile = observe && bc.profile;
  sim::Simulator sim(graph, sm.routes(), scfg);

  const auto hosts = graph.hosts();
  util::Xoshiro256 rng(run_seed * 2 + 1);
  const auto random_pair = [&](iba::NodeId& src, iba::NodeId& dst) {
    src = hosts[rng.below(hosts.size())];
    do {
      dst = hosts[rng.below(hosts.size())];
    } while (dst == src);
  };

  // --- Workload ------------------------------------------------------------
  std::vector<qos::ConnectionId> g_ids;
  std::vector<std::uint32_t> g_flows;
  std::vector<iba::ServiceLevel> g_sls;
  for (unsigned i = 0; i < 2 * std::size(kGuaranteedSls); ++i) {
    const auto sl = kGuaranteedSls[i % std::size(kGuaranteedSls)];
    qos::ConnectionRequest req;
    random_pair(req.src_host, req.dst_host);
    req.sl = sl;
    req.max_distance = qos::find_sl(admission.catalogue(), sl)->max_distance;
    req.wire_mbps = 40 + static_cast<double>(rng.below(40));
    const auto id = admission.request(req);
    if (!id) continue;  // table space ran out on a hot port: skip
    auto spec = traffic::make_cbr_flow(req.src_host, req.dst_host, sl,
                                       /*payload=*/256, req.wire_mbps,
                                       admission.connection(*id).deadline,
                                       run_seed * 100 + i);
    g_ids.push_back(*id);
    g_flows.push_back(sim.add_flow(spec));
    g_sls.push_back(sl);
  }
  res.guaranteed = static_cast<unsigned>(g_ids.size());

  // Best-effort background loaded close to saturation: losing a leaf uplink
  // then makes the surviving one oversubscribed, so the recovery pass must
  // visibly degrade — suspend or shed — BE connections while every
  // guaranteed one still fits.
  std::vector<qos::ConnectionId> b_ids;
  std::vector<std::uint32_t> b_flows;
  for (unsigned i = 0; i < 16; ++i) {
    qos::ConnectionRequest req;
    random_pair(req.src_host, req.dst_host);
    // Aim the first few at leaf 0's hosts: its combined ingress demand then
    // exceeds one downlink's reservable bandwidth, so when the storm takes
    // a spine->leaf0 link down the degradation machinery has real work.
    if (i < 6 && bc.hosts_per_leaf >= 2) {
      req.dst_host = hosts[i % bc.hosts_per_leaf];
      if (req.src_host == req.dst_host) req.src_host = hosts.back();
    }
    req.sl = static_cast<iba::ServiceLevel>(10 + i % 3);
    req.wire_mbps = 550;
    const auto id = admission.request_best_effort(req);
    if (!id) continue;  // greedy fill: stop charging a saturated path
    auto spec = traffic::make_cbr_flow(req.src_host, req.dst_host, req.sl,
                                       /*payload=*/256, req.wire_mbps,
                                       /*deadline=*/0, run_seed * 200 + i);
    spec.qos = false;
    b_ids.push_back(*id);
    b_flows.push_back(sim.add_flow(spec));
  }
  res.besteffort = static_cast<unsigned>(b_ids.size());

  // --- RC sessions ---------------------------------------------------------
  std::vector<std::unique_ptr<faults::RcSession>> sessions;
  std::vector<iba::NodeId> rc_dsts;
  for (int s = 0; s < 2; ++s) {
    faults::RcSession::Config rc;
    random_pair(rc.src_host, rc.dst_host);
    rc.sl = static_cast<iba::ServiceLevel>(10 + s);
    rc.message_bytes = 2048;
    rc.messages = 48;
    rc.message_interval = bc.length / 64;
    rc.rc.retransmit_timeout = 60'000;
    rc.rc.max_retries = 16;
    rc.seed = run_seed * 300 + static_cast<std::uint64_t>(s);
    sessions.push_back(std::make_unique<faults::RcSession>(sim, rc));
    rc_dsts.push_back(rc.dst_host);
  }
  sim.set_delivery_listener([&sessions](const iba::Packet& p, iba::Cycle t) {
    for (auto& s : sessions)
      if (s->wants(p)) {
        s->on_delivery(p, t);
        return;
      }
  });

  // --- Fault plan ----------------------------------------------------------
  faults::FaultPlan plan;
  if (faulty) {
    if (!bc.plan_spec.empty()) {
      plan = faults::FaultPlan::parse(bc.plan_spec);
    } else {
      faults::StormConfig sc;
      sc.seed = bc.storm_seed != 0 ? bc.storm_seed : run_seed ^ 0x570Bull;
      sc.start = bc.length / 10;
      sc.length = bc.length * 7 / 10;
      sc.link_flaps = 2;
      sc.stuck_ports = 1;
      sc.slow_ports = 1;
      sc.corrupt_windows = 2;
      sc.drop_windows = 1;
      if (!b_flows.empty()) {
        sc.first_flow = b_flows.front();
        sc.flows = static_cast<std::uint32_t>(b_flows.size());
      }
      plan = faults::FaultPlan::random_storm(graph, sc);
    }
    // Guarantee the CRC-recovery path is exercised: short all-corrupting
    // windows right at each RC destination's host port.
    std::vector<faults::FaultEvent> certain;
    // And guarantee the degradation path is exercised: a long outage of the
    // first spine's downlink to leaf 0 (node order: spines first, port p of
    // a spine faces leaf p), the leaf the best-effort load converges on.
    {
      faults::FaultEvent ev;
      ev.kind = faults::FaultKind::kLinkFlap;
      ev.at = bc.length * 45 / 100;
      ev.duration = bc.length * 35 / 100;
      ev.node = 0;
      ev.port = 0;
      certain.push_back(ev);
    }
    for (std::size_t s = 0; s < rc_dsts.size(); ++s) {
      faults::FaultEvent ev;
      ev.kind = faults::FaultKind::kCorrupt;
      ev.at = bc.length * (3 + 2 * s) / 10;
      ev.duration = bc.length / 25;
      ev.node = rc_dsts[s];
      ev.port = 0;
      ev.probability = 1.0;
      certain.push_back(ev);
    }
    plan.merge(faults::FaultPlan(std::move(certain)));
    res.plan = plan.describe();
  }

  std::optional<faults::FaultInjector> injector;
  std::optional<faults::RecoveryCoordinator> coordinator;
  if (faulty) {
    injector.emplace(sim, graph, plan, run_seed ^ 0xFA7Eull);
    coordinator.emplace(sim, graph, sm, admission, *injector,
                        faults::RecoveryConfig{});
    for (std::size_t i = 0; i < g_ids.size(); ++i)
      coordinator->track(g_ids[i], g_flows[i]);
    for (std::size_t i = 0; i < b_ids.size(); ++i)
      coordinator->track_best_effort(b_ids[i], b_flows[i]);
  }

  sm.configure_fabric(sim, admission);
  if (injector) injector->arm();

  sim.metrics().start_window(0);
  sim.run_until(bc.length);
  sim.metrics().stop_window(bc.length);

  // --- Harvest -------------------------------------------------------------
  const auto add = [&sim](ClassAgg& agg, std::uint32_t flow) {
    const auto& c = sim.metrics().connections[flow];
    agg.tx += c.tx_packets;
    agg.rx += c.rx_packets;
    agg.dropped += c.dropped_packets;
    agg.misses += c.deadline_misses;
  };
  for (std::size_t i = 0; i < g_flows.size(); ++i)
    add(g_sls[i] <= 5 ? res.dbts : res.db, g_flows[i]);
  for (const auto flow : b_flows) add(res.be, flow);

  if (injector) res.fault = injector->stats();
  if (coordinator) {
    res.recovery = coordinator->stats();
    res.recovery.purged_in_flight += sim.purged_in_flight_late();
  }
  for (const auto& s : sessions) {
    const auto ss = s->session_stats();
    res.rc_messages += ss.messages_completed;
    res.rc_recovered += ss.recovered_packets;
    res.rc_retransmits += s->tx_stats().retransmitted_packets;
    res.rc_max_recovery = std::max(res.rc_max_recovery,
                                   ss.max_recovery_latency);
    res.rc_failed = res.rc_failed || s->failed();
  }
  res.events = sim.events_processed();
  // While injector/coordinator/sessions are still alive their probes are
  // registered, so the snapshot sees the full faults/recovery/rc counters.
  res.telemetry = sim.telemetry_snapshot();
  if (sim.series() != nullptr) res.series = sim.series()->finalize(sim.now());
  if (scfg.trace_capacity != 0) {
    res.trace = sim.trace();
    // Fault windows as control-plane phase spans, one viewer track per kind.
    for (const auto& ev : plan.events()) {
      obs::PhaseSpan span;
      span.track = faults::to_string(ev.kind);
      std::ostringstream nm;
      nm << faults::to_string(ev.kind) << " ";
      if (ev.kind == faults::FaultKind::kOverload)
        nm << "f" << ev.flow;
      else
        nm << ev.node << "." << ev.port;
      span.name = nm.str();
      span.begin = ev.at;
      span.end = ev.duration != 0 ? ev.at + ev.duration : bc.length;
      res.fault_spans.push_back(std::move(span));
    }
  }

  std::string why;
  if (!admission.audit_tables(&why))
    throw std::runtime_error("post-storm table audit failed: " + why);
  return res;
}

void write_class_agg(util::JsonWriter& w, const ClassAgg& a) {
  w.begin_object();
  w.kv("tx", a.tx);
  w.kv("rx", a.rx);
  w.kv("dropped", a.dropped);
  w.kv("misses", a.misses);
  w.end_object();
}

obs::Report make_report(const BenchConfig& bc,
                        const std::vector<RunResult>& storm,
                        const std::vector<RunResult>& baseline) {
  obs::Report report("bench_faults");
  report.config("length", static_cast<std::uint64_t>(bc.length));
  report.config("spines", static_cast<std::uint64_t>(bc.spines));
  report.config("leaves", static_cast<std::uint64_t>(bc.leaves));
  report.config("hosts_per_leaf",
                static_cast<std::uint64_t>(bc.hosts_per_leaf));
  report.config("seed", bc.seed);
  report.config("runs", static_cast<std::uint64_t>(bc.runs));
  report.config("with_baseline", bc.with_baseline);

  std::vector<obs::Snapshot> parts;
  parts.reserve(storm.size());
  for (const auto& r : storm) parts.push_back(r.telemetry);
  report.telemetry(obs::Snapshot::merge(parts));
  if (!storm.empty() && storm.front().series.has_value())
    report.series(*storm.front().series);

  report.figure("runs", [&bc, &storm, &baseline](util::JsonWriter& w) {
    w.begin_array();
    for (std::size_t i = 0; i < storm.size(); ++i) {
      const auto& r = storm[i];
      w.begin_object();
      w.kv("seed", r.run_seed);
      w.kv("guaranteed", static_cast<std::uint64_t>(r.guaranteed));
      w.kv("besteffort", static_cast<std::uint64_t>(r.besteffort));
      w.key("dbts");
      write_class_agg(w, r.dbts);
      w.key("db");
      write_class_agg(w, r.db);
      w.key("be");
      write_class_agg(w, r.be);
      if (i < baseline.size()) w.kv("be_baseline_rx", baseline[i].be.rx);
      w.kv("violations", r.dbts.misses + r.db.misses);
      w.kv("revocations", r.recovery.guarantee_revocations);
      w.kv("resweeps", r.recovery.resweeps);
      w.kv("rerouted", r.recovery.rerouted);
      w.kv("shed", r.recovery.shed_best_effort);
      w.kv("suspended", r.recovery.suspended);
      w.kv("suspended_guaranteed", r.recovery.suspended_guaranteed);
      w.kv("suspended_best_effort", r.recovery.suspended_best_effort);
      w.kv("restored", r.recovery.restored);
      w.kv("purged_in_flight", r.recovery.purged_in_flight);
      w.kv("max_recovery_latency",
           static_cast<std::uint64_t>(r.recovery.max_recovery_latency));
      w.kv("corrupt_attempts", r.fault.corrupt_attempts);
      w.kv("crc_rejected", r.fault.crc_rejected);
      w.kv("crc_escaped", r.fault.crc_escaped);
      w.kv("dropped", r.fault.dropped_packets);
      w.kv("flushed", r.fault.flushed_packets);
      w.kv("rc_messages", r.rc_messages);
      w.kv("rc_recovered", r.rc_recovered);
      w.kv("rc_retransmits", r.rc_retransmits);
      w.kv("rc_max_recovery", static_cast<std::uint64_t>(r.rc_max_recovery));
      w.kv("rc_failed", r.rc_failed);
      w.kv("events", r.events);
      if (bc.runs == 1 && !r.plan.empty()) w.kv("plan", r.plan);
      w.end_object();
    }
    w.end_array();
  });
  report.figure("totals", [&storm](util::JsonWriter& w) {
    std::uint64_t violations = 0;
    std::uint64_t revocations = 0;
    std::uint64_t escaped = 0;
    for (const auto& r : storm) {
      violations += r.dbts.misses + r.db.misses;
      revocations += r.recovery.guarantee_revocations;
      escaped += r.fault.crc_escaped;
    }
    w.begin_object();
    w.kv("violations", violations);
    w.kv("revocations", revocations);
    w.kv("crc_escaped", escaped);
    w.end_object();
  });
  return report;
}

}  // namespace

int bench_main(const util::Cli& cli) {
  const auto sf = cli.std_flags(1);
  BenchConfig bc;
  bc.spines = static_cast<unsigned>(cli.get_int("spines", 2));
  bc.leaves = static_cast<unsigned>(cli.get_int("leaves", 4));
  bc.hosts_per_leaf = static_cast<unsigned>(cli.get_int("hosts-per-leaf", 2));
  bc.length = static_cast<iba::Cycle>(
      cli.get_int("length", cli.get_bool("quick", false) ? 1'200'000
                                                         : 3'000'000));
  bc.seed = sf.seed;
  bc.storm_seed = static_cast<std::uint64_t>(cli.get_int("storm-seed", 0));
  bc.plan_spec = cli.get("fault-plan", "");
  bc.runs = static_cast<unsigned>(cli.get_int("runs", 1));
  bc.jobs = sf.jobs;
  bc.with_baseline = !cli.get_bool("no-baseline", false);
  bc.json = sf.json;
  if (!sf.trace_out.empty()) bc.trace_capacity = bench::kTraceOutCapacity;
  bc.sample_every = sf.sample_every;
  bc.profile = sf.profile;

  // Deterministic sweep: results land in slot i, every run's seed is a pure
  // function of (seed, i), printing happens afterwards in index order.
  std::vector<RunResult> storm(bc.runs);
  std::vector<RunResult> baseline(bc.with_baseline ? bc.runs : 0);
  util::parallel_for(bc.jobs, bc.runs, [&](std::size_t i) {
    const auto run_seed = bench::derive_run_seed(bc.seed, i);
    // Only the first storm run observes (trace/series/profile): one
    // self-contained deterministic run, so the exported artefacts are
    // byte-identical for any --jobs.
    storm[i] = run_one(bc, run_seed, /*faulty=*/true, /*observe=*/i == 0);
    if (bc.with_baseline)
      baseline[i] = run_one(bc, run_seed, /*faulty=*/false);
  });

  int rc = 0;
  if (bc.json) {
    rc = bench::emit_report(make_report(bc, storm, baseline), cli);
  } else {
    std::cout << "=== Fault storm: " << bc.runs << " run(s), " << bc.length
              << " cycles each, dual-spine " << bc.spines << "x" << bc.leaves
              << "x" << bc.hosts_per_leaf
              << " (4x primary / 1x backup) ===\n\n";
    util::TablePrinter table(
        {"run", "DBTS rx/miss", "DB rx/miss", "BE dlvr% storm/clean",
         "BE shed/susp", "resweeps", "rerouted", "CRC rej/esc",
         "RC done/rec"});
    for (std::size_t i = 0; i < storm.size(); ++i) {
      const auto& r = storm[i];
      const auto frac = [](const ClassAgg& a) {
        std::ostringstream os;
        os << a.rx << "/" << a.misses;
        return os.str();
      };
      const auto dlvr = [](const ClassAgg& a) {
        return a.tx ? util::TablePrinter::pct(
                          static_cast<double>(a.rx) /
                          static_cast<double>(a.tx))
                    : std::string("-");
      };
      std::ostringstream be;
      be << dlvr(r.be) << "/"
         << (i < baseline.size() ? dlvr(baseline[i].be) : "-");
      std::ostringstream degraded;
      degraded << r.recovery.shed_best_effort << "/"
               << r.recovery.suspended_best_effort;
      std::ostringstream crc;
      crc << r.fault.crc_rejected << "/" << r.fault.crc_escaped;
      std::ostringstream rc;
      rc << r.rc_messages << "/" << r.rc_recovered
         << (r.rc_failed ? " FAILED" : "");
      table.add_row({std::to_string(i), frac(r.dbts), frac(r.db), be.str(),
                     degraded.str(), std::to_string(r.recovery.resweeps),
                     std::to_string(r.recovery.rerouted), crc.str(),
                     rc.str()});
    }
    table.print(std::cout);

    std::uint64_t violations = 0;
    std::uint64_t revocations = 0;
    std::uint64_t escaped = 0;
    std::uint64_t degraded_be = 0;
    std::uint64_t suspended_g = 0;
    iba::Cycle worst_recovery = 0;
    for (const auto& r : storm) {
      violations += r.dbts.misses + r.db.misses;
      revocations += r.recovery.guarantee_revocations;
      escaped += r.fault.crc_escaped;
      degraded_be += r.recovery.shed_best_effort +
                     r.recovery.suspended_best_effort;
      suspended_g += r.recovery.suspended_guaranteed;
      worst_recovery = std::max(worst_recovery,
                                r.recovery.max_recovery_latency);
    }
    std::cout << "\nguarantee violations (DBTS/DB deadline misses): "
              << violations
              << "\nguarantee revocations (refused with sheddable capacity): "
              << revocations
              << "\nbest-effort connections degraded (shed or suspended): "
              << degraded_be
              << "\nguaranteed connections suspended (no path/capacity): "
              << suspended_g << "\nCRC escapes: " << escaped
              << "\nworst SM recovery latency: " << worst_recovery
              << " cycles\n";
    if (bc.runs == 1 && !storm.front().plan.empty())
      std::cout << "\nstorm plan (replay with --fault-plan):\n  "
                << storm.front().plan << "\n";
  }

  if (!sf.trace_out.empty()) {
    std::vector<obs::CounterTrack> counters;
    if (storm.front().series.has_value())
      counters = bench::series_tracks(*storm.front().series);
    bench::emit_trace(sf.trace_out, storm.front().trace,
                      storm.front().fault_spans, counters);
  }
  if (storm.front().series.has_value() &&
      !bench::export_series_csv(*storm.front().series, sf))
    rc = 1;

  cli.warn_unused(std::cerr);
  return rc;
}
