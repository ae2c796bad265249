// Churn-service benchmark: the robustness headline of the control plane.
//
// A dual-spine fabric (the bench_faults topology, no packet flows) is
// driven by the ChurnEngine: a deterministic storm of connection setups,
// teardowns and re-rates with Zipf-skewed port popularity, interleaved —
// in the storm scenario — with a link-fault storm whose mass reroutes race
// the live churn. What the report must show:
//
//   * zero Theorem-1 false rejects: no guaranteed request is ever refused
//     while every hop of its path had room;
//   * zero guarantee revocations through every fault-driven reroute;
//   * overload protection working: best-effort load-shed at the queue
//     watermark, guaranteed setups backpressured and retried with capped
//     exponential backoff, never lost silently;
//   * crash-consistency: a snapshot taken mid-storm and restored into a
//     fresh process replays the rest of the run byte-identically — every
//     run here re-proves it in-process (world A runs 0..end and snapshots
//     at S; world B restores at S and runs S..end; their final filtered
//     telemetry must be equal), and --snapshot-out/--restore-from let CI
//     prove it across two separate processes with cmp(1).
//
// Determinism: reports diff byte-identical across --jobs, and a restored
// run's report is byte-identical to the uninterrupted run's. Everything
// mode-dependent (snapshot size, deferral counts, verification notes)
// goes to stderr, never into the report envelope.
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "control/churn_engine.hpp"
#include "control/snapshot.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_plan.hpp"
#include "faults/recovery.hpp"
#include "network/graph.hpp"
#include "qos/admission.hpp"
#include "qos/traffic_classes.hpp"
#include "report_common.hpp"
#include "subnet/subnet_manager.hpp"
#include "sweep_runner.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"
#include "util/table_printer.hpp"

using namespace ibarb;

namespace {

struct BenchConfig {
  bool storm = true;             ///< --scenario storm|steady
  unsigned spines = 2;
  unsigned leaves = 4;
  unsigned hosts_per_leaf = 2;
  iba::Cycle length = 1'500'000;
  iba::Cycle tick = 10'000;
  iba::Cycle snapshot_at = 0;    ///< 0 = length / 2.
  bool restore_check = true;     ///< In-process restore-and-compare per run.
  std::uint64_t seed = 1;
  unsigned runs = 2;
  unsigned jobs = 1;
  bool json = false;
  std::string snapshot_out;      ///< Run 0 writes its snapshot blob here.
  std::string restore_from;      ///< Restore mode: replay from this blob.
};

control::ChurnConfig make_churn_config(const BenchConfig& bc,
                                       std::uint64_t run_seed) {
  control::ChurnConfig c;
  c.tick = bc.tick;
  c.horizon = bc.length;
  c.seed = run_seed;
  return c;
}

/// Same dual-spine asymmetric fabric as bench_faults: spine 0 carries 4x
/// links, the backup spines 1x, so a primary-link fault moves a leaf onto
/// a quarter of the reservable bandwidth — mass reroutes with real
/// capacity pressure.
network::FabricGraph make_fabric(const BenchConfig& bc) {
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

/// Link-level storm only (flaps, stuck, slow): the churn world moves no
/// packets, so corruption/drop/overload windows would be inert.
faults::FaultPlan make_storm_plan(const network::FabricGraph& graph,
                                  const BenchConfig& bc,
                                  std::uint64_t run_seed) {
  faults::StormConfig sc;
  sc.seed = run_seed ^ 0x570Bull;
  sc.start = bc.length / 10;
  sc.length = bc.length * 6 / 10;
  sc.link_flaps = 3;
  sc.stuck_ports = 1;
  sc.slow_ports = 1;
  sc.corrupt_windows = 0;
  sc.drop_windows = 0;
  sc.overload_bursts = 0;
  return faults::FaultPlan::random_storm(graph, sc);
}

/// Only the deterministic control-plane telemetry families go into the
/// report: data-plane and queue internals (sim.*, eq.*, ...) legitimately
/// differ between an uninterrupted world and one rebuilt from a snapshot
/// (the restored simulator never replayed cycles 0..S), and wall-clock
/// never belongs there.
obs::Snapshot filter_control_families(const obs::Snapshot& in) {
  const auto keep = [](const std::string& name) {
    return name.starts_with("ctl.") || name.starts_with("tm.") ||
           name.starts_with("faults.") || name.starts_with("recovery.");
  };
  obs::Snapshot out;
  for (const auto& [k, v] : in.counters)
    if (keep(k)) out.counters.emplace(k, v);
  for (const auto& [k, v] : in.gauges)
    if (keep(k)) out.gauges.emplace(k, v);
  for (const auto& [k, v] : in.histograms)
    if (keep(k)) out.histograms.emplace(k, v);
  return out;
}

/// One self-contained world. Construction order doubles as destruction
/// order: the simulator's registry dies before admission/injector/
/// coordinator/engine remove their probes — hence engine & co. are
/// declared after sim and destroyed first.
struct World {
  network::FabricGraph graph;
  subnet::SubnetManager sm;
  qos::AdmissionControl admission;
  sim::Simulator sim;
  std::optional<faults::FaultInjector> injector;
  std::optional<faults::RecoveryCoordinator> coordinator;
  std::optional<control::ChurnEngine> engine;

  World(const BenchConfig& bc, std::uint64_t run_seed,
        const faults::FaultPlan& plan)
      : graph(make_fabric(bc)), sm(graph),
        admission(graph, sm.routes(), qos::paper_catalogue(),
                  [&] {
                    qos::AdmissionControl::Config ac;
                    ac.seed = run_seed;
                    return ac;
                  }()),
        sim(graph, sm.routes(), [&] {
          sim::SimConfig scfg;
          scfg.seed = run_seed ^ 0x5117ull;
          return scfg;
        }()) {
    admission.attach_telemetry(sim.telemetry());
    if (bc.storm) {
      injector.emplace(sim, graph, plan, run_seed ^ 0xFA7Eull);
      coordinator.emplace(sim, graph, sm, admission, *injector,
                          faults::RecoveryConfig{});
    }
    engine.emplace(sim, admission, graph,
                   injector ? &*injector : nullptr,
                   coordinator ? &*coordinator : nullptr,
                   make_churn_config(bc, run_seed));
  }

  control::World refs() {
    return control::World{&admission, injector ? &*injector : nullptr,
                          coordinator ? &*coordinator : nullptr,
                          engine ? &*engine : nullptr};
  }
};

struct RunResult {
  std::uint64_t run_seed = 0;
  control::ChurnStats churn;
  faults::RecoveryStats recovery;
  faults::FaultStats fault;
  std::uint64_t live_final = 0;
  obs::Snapshot telemetry;          ///< Filtered to the control families.
  // Everything below is mode-dependent diagnostics — stderr only.
  std::size_t snapshot_bytes = 0;
  iba::Cycle snapshot_time = 0;
  std::uint64_t deferrals = 0;
  bool restore_verified = false;
  std::vector<std::uint8_t> blob;   ///< Kept for --snapshot-out (run 0).
};

void harvest(World& w, RunResult& out) {
  out.churn = w.engine->stats();
  if (w.coordinator) out.recovery = w.coordinator->stats();
  if (w.injector) out.fault = w.injector->stats();
  out.live_final = w.admission.live_count();
  out.telemetry = filter_control_families(w.sim.telemetry_snapshot());
  std::string why;
  if (!w.admission.audit_full(&why))
    throw std::runtime_error("post-churn audit failed: " + why);
}

/// World B of the crash-consistency proof: fresh everything, the fault
/// plan's tail armed first, then the snapshot applied and the remainder
/// of the run replayed.
RunResult run_restored(const BenchConfig& bc, std::uint64_t run_seed,
                       const faults::FaultPlan& full_plan,
                       const std::vector<std::uint8_t>& blob) {
  const auto snap_time = control::peek_snapshot_time(blob);
  std::vector<faults::FaultEvent> tail;
  for (const auto& ev : full_plan.events())
    if (ev.at > snap_time) tail.push_back(ev);
  faults::FaultPlan tail_plan(std::move(tail));

  World w(bc, run_seed, tail_plan);
  if (w.injector) w.injector->arm();  // before load: event ties must order
                                      // fault-before-tick, as in world A
  control::restore_world(blob, run_seed, w.refs());
  w.sm.configure_fabric(w.sim, w.admission);
  w.sim.run_until(bc.length);

  RunResult res;
  res.run_seed = run_seed;
  res.snapshot_time = snap_time;
  harvest(w, res);
  return res;
}

RunResult run_one(const BenchConfig& bc, std::uint64_t run_seed,
                  bool want_snapshot) {
  const auto plan =
      bc.storm ? make_storm_plan(make_fabric(bc), bc, run_seed)
               : faults::FaultPlan{};
  World w(bc, run_seed, plan);

  RunResult res;
  res.run_seed = run_seed;
  if (want_snapshot) {
    const auto at = bc.snapshot_at != 0 ? bc.snapshot_at : bc.length / 2;
    w.engine->arm_snapshot(at, [&](iba::Cycle now) {
      res.blob = control::save_world(now, run_seed, w.refs());
      res.snapshot_time = now;
    });
  }
  w.engine->start();
  w.sm.configure_fabric(w.sim, w.admission);
  if (w.injector) w.injector->arm();
  w.sim.run_until(bc.length);

  res.deferrals = w.engine->snapshot_deferrals();
  harvest(w, res);
  res.snapshot_bytes = res.blob.size();

  if (want_snapshot && res.blob.empty())
    throw std::runtime_error(
        "no quiescent tick found after --snapshot-at; storm too dense");

  if (want_snapshot && bc.restore_check) {
    // The crash-consistency proof: restore into a fresh world and demand
    // the identical end state.
    const auto replay = run_restored(bc, run_seed, plan, res.blob);
    if (!(replay.telemetry == res.telemetry))
      throw std::runtime_error(
          "restored run diverged from the uninterrupted run");
    if (replay.live_final != res.live_final ||
        replay.churn.false_rejects != res.churn.false_rejects)
      throw std::runtime_error("restored run's final accounting differs");
    res.restore_verified = true;
  }
  return res;
}

obs::Report make_report(const BenchConfig& bc,
                        const std::vector<RunResult>& runs) {
  obs::Report report("bench_churn");
  report.config("scenario", std::string(bc.storm ? "storm" : "steady"));
  report.config("length", static_cast<std::uint64_t>(bc.length));
  report.config("tick", static_cast<std::uint64_t>(bc.tick));
  report.config("spines", static_cast<std::uint64_t>(bc.spines));
  report.config("leaves", static_cast<std::uint64_t>(bc.leaves));
  report.config("hosts_per_leaf",
                static_cast<std::uint64_t>(bc.hosts_per_leaf));
  report.config("seed", bc.seed);
  report.config("runs", static_cast<std::uint64_t>(bc.runs));

  std::vector<obs::Snapshot> parts;
  parts.reserve(runs.size());
  for (const auto& r : runs) parts.push_back(r.telemetry);
  report.telemetry(obs::Snapshot::merge(parts));

  report.figure("runs", [&runs](util::JsonWriter& w) {
    w.begin_array();
    for (const auto& r : runs) {
      w.begin_object();
      w.kv("seed", r.run_seed);
      w.kv("submitted", r.churn.submitted);
      w.kv("admitted_guaranteed", r.churn.admitted_guaranteed);
      w.kv("admitted_best_effort", r.churn.admitted_best_effort);
      w.kv("teardowns", r.churn.teardowns);
      w.kv("modifies", r.churn.modifies);
      w.kv("modify_stale", r.churn.modify_stale);
      w.kv("modify_failed_restored", r.churn.modify_failed_restored);
      w.kv("backpressured", r.churn.backpressured);
      w.kv("retries", r.churn.retries);
      w.kv("gave_up", r.churn.gave_up);
      w.kv("load_shed", r.churn.load_shed);
      w.kv("be_rejected", r.churn.be_rejected);
      w.kv("degradation_shed", r.churn.degradation_shed);
      w.kv("audits", r.churn.audits);
      w.kv("false_rejects", r.churn.false_rejects);
      w.kv("live_final", r.live_final);
      w.kv("resweeps", r.recovery.resweeps);
      w.kv("rerouted", r.recovery.rerouted);
      w.kv("suspended", r.recovery.suspended);
      w.kv("restored", r.recovery.restored);
      w.kv("shed", r.recovery.shed_best_effort);
      w.kv("revocations", r.recovery.guarantee_revocations);
      w.kv("link_down_events", r.fault.link_down_events);
      w.end_object();
    }
    w.end_array();
  });
  report.figure("totals", [&runs](util::JsonWriter& w) {
    std::uint64_t false_rejects = 0;
    std::uint64_t revocations = 0;
    std::uint64_t audits = 0;
    for (const auto& r : runs) {
      false_rejects += r.churn.false_rejects;
      revocations += r.recovery.guarantee_revocations;
      audits += r.churn.audits;
    }
    w.begin_object();
    w.kv("false_rejects", false_rejects);
    w.kv("revocations", revocations);
    w.kv("audits", audits);
    w.end_object();
  });
  return report;
}

}  // namespace

int bench_main(const util::Cli& cli) {
  const auto sf = cli.std_flags(1);
  BenchConfig bc;
  const auto scenario = cli.get("scenario", "storm");
  if (scenario != "storm" && scenario != "steady") {
    std::cerr << "unknown --scenario " << scenario
              << " (want storm|steady)\n";
    return 2;
  }
  bc.storm = scenario == "storm";
  bc.spines = static_cast<unsigned>(cli.get_int("spines", 2));
  bc.leaves = static_cast<unsigned>(cli.get_int("leaves", 4));
  bc.hosts_per_leaf = static_cast<unsigned>(cli.get_int("hosts-per-leaf", 2));
  bc.length = static_cast<iba::Cycle>(
      cli.get_int("length", cli.get_bool("quick", false) ? 600'000
                                                         : 1'500'000));
  bc.tick = static_cast<iba::Cycle>(cli.get_int("tick", 10'000));
  bc.snapshot_at =
      static_cast<iba::Cycle>(cli.get_int("snapshot-at", 0));
  bc.restore_check = !cli.get_bool("no-restore", false);
  bc.seed = sf.seed;
  bc.runs = static_cast<unsigned>(cli.get_int("runs", 2));
  bc.jobs = sf.jobs;
  bc.json = sf.json;
  bc.snapshot_out = cli.get("snapshot-out", "");
  bc.restore_from = cli.get("restore-from", "");

  std::vector<RunResult> runs;
  if (!bc.restore_from.empty()) {
    // Cross-process restore: rebuild world 0, apply the blob, replay the
    // tail. The emitted report must cmp(1)-equal the writer's.
    bc.runs = 1;
    const auto run_seed = bench::derive_run_seed(bc.seed, 0);
    const auto plan = bc.storm
                          ? make_storm_plan(make_fabric(bc), bc, run_seed)
                          : faults::FaultPlan{};
    runs.push_back(run_restored(bc, run_seed, plan,
                                control::read_snapshot_file(bc.restore_from)));
    std::cerr << "restored from " << bc.restore_from << " at cycle "
              << runs[0].snapshot_time << "\n";
  } else {
    runs.resize(bc.runs);
    util::parallel_for(bc.jobs, bc.runs, [&](std::size_t i) {
      // Every run snapshots (and, by default, re-proves restore
      // equivalence in-process); the blob itself stays out of the report.
      runs[i] = run_one(bc, bench::derive_run_seed(bc.seed, i),
                        /*want_snapshot=*/true);
    });
    for (const auto& r : runs)
      std::cerr << "run seed " << r.run_seed << ": snapshot "
                << r.snapshot_bytes << " bytes at cycle " << r.snapshot_time
                << ", deferrals " << r.deferrals << ", restore "
                << (r.restore_verified ? "verified" : "skipped") << "\n";
    if (!bc.snapshot_out.empty()) {
      control::write_snapshot_file(bc.snapshot_out, runs[0].blob);
      std::cerr << "snapshot written to " << bc.snapshot_out << "\n";
    }
  }

  // The two headline invariants are hard assertions, not report fields to
  // eyeball: a storm that produces either is a failed run.
  for (const auto& r : runs) {
    if (r.churn.false_rejects != 0)
      throw std::runtime_error("Theorem-1 false rejects detected");
    if (r.recovery.guarantee_revocations != 0)
      throw std::runtime_error("guarantee revocations detected");
  }

  int rc = 0;
  if (bc.json) {
    rc = bench::emit_report(make_report(bc, runs), cli);
  } else {
    std::cout << "=== Admission churn: " << runs.size() << " run(s), "
              << bc.length << " cycles, scenario "
              << (bc.storm ? "storm" : "steady") << " ===\n\n";
    util::TablePrinter table({"run", "submitted", "admit g/be", "teardown",
                              "retry/bp", "shed ls/deg", "reroute/susp",
                              "false rej", "revoked", "live"});
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const auto& r = runs[i];
      std::ostringstream admit, retry, shed, reroute;
      admit << r.churn.admitted_guaranteed << "/"
            << r.churn.admitted_best_effort;
      retry << r.churn.retries << "/" << r.churn.backpressured;
      shed << r.churn.load_shed << "/" << r.churn.degradation_shed;
      reroute << r.recovery.rerouted << "/" << r.recovery.suspended;
      table.add_row({std::to_string(i), std::to_string(r.churn.submitted),
                 admit.str(), std::to_string(r.churn.teardowns), retry.str(),
                 shed.str(), reroute.str(),
                 std::to_string(r.churn.false_rejects),
                 std::to_string(r.recovery.guarantee_revocations),
                 std::to_string(r.live_final)});
    }
    table.print(std::cout);
    std::cout << "\nEvery run snapshot+restore "
              << (bc.restore_check ? "verified byte-identical replay.\n"
                                   : "ran without the restore check.\n");
  }
  cli.warn_unused(std::cerr);
  return rc;
}
