// Experiment E5 — the paper's motivating comparison (§3, qualitative):
// what happens to dedicated-bandwidth (DB) traffic when high-priority
// sources misbehave (send more than they reserved)?
//
//  * Legacy scheme (Pelissier / the authors' earlier work): DBTS in the
//    high-priority table, DB as plain weight in the low-priority table.
//    A misbehaving DBTS class can starve ALL DB traffic.
//  * New proposal: every guaranteed class lives in the high-priority table,
//    one VL per SL. A misbehaving source can only hurt connections sharing
//    its own VL; every other SL keeps its guarantees.
//
// The offenders here are ALL the DBTS classes (SLs 0-5) sending 3x their
// reservation — collectively they hold most of the reserved bandwidth, so
// the high-priority table saturates the contended links, which is exactly
// the situation the paper's scheme is designed to survive.
#include <iostream>

#include "report_common.hpp"
#include "sweep_runner.hpp"
#include "util/table_printer.hpp"

using namespace ibarb;

namespace {

struct Outcome {
  double db_delivered_over_reserved = 0.0;  ///< DB SLs 6-9 aggregate.
  double db_miss_fraction = 0.0;
};

Outcome evaluate(const bench::PaperRun& run) {
  Outcome o;
  double db_res = 0.0, db_del = 0.0;
  std::uint64_t db_rx = 0, db_miss = 0;
  for (const auto& t : run.per_sl_throughput()) {
    if (t.sl >= 6) {
      db_res += t.reserved_wire_mbps;
      db_del += t.delivered_wire_mbps;
    }
  }
  for (const auto& ec : run.workload.connections) {
    const auto& c = run.sim->metrics().connections[ec.flow];
    if (ec.sl >= 6) {
      db_rx += c.rx_packets;
      db_miss += c.deadline_misses;
    }
  }
  if (db_res > 0.0) o.db_delivered_over_reserved = db_del / db_res;
  if (db_rx > 0) o.db_miss_fraction = double(db_miss) / double(db_rx);
  return o;
}

}  // namespace

int bench_main(const util::Cli& cli) {
  const auto sf = cli.std_flags(21);
  bench::PaperRunConfig defaults;
  defaults.besteffort_load = 0.0;  // isolate the QoS classes
  const auto base = bench::config_from_cli(cli, defaults, {"besteffort-load"});
  const double factor = cli.get_double("oversend", 3.0);

  if (!sf.json)
    std::cout << "=== Misbehaving-source experiment: DBTS classes (SL0-5) send "
              << factor << "x their reservation ===\n\n";

  struct Case {
    const char* name;
    const char* key;
    qos::Scheme scheme;
    double factor;
  };
  const Case cases[] = {
      {"new proposal", "new_proposal_base", qos::Scheme::kNewProposal, 1.0},
      {"new proposal", "new_proposal_oversend", qos::Scheme::kNewProposal,
       factor},
      {"legacy (DB in low table)", "legacy_base", qos::Scheme::kLegacy, 1.0},
      {"legacy (DB in low table)", "legacy_oversend", qos::Scheme::kLegacy,
       factor},
  };
  std::vector<bench::PaperRunConfig> cfgs;
  for (const auto& c : cases) {
    auto cfg = base;
    cfg.scheme = c.scheme;
    cfg.oversend_sl_mask = 0x3F;  // SLs 0..5: every DBTS class misbehaves
    cfg.oversend_factor = c.factor;
    cfgs.push_back(cfg);
  }
  bench::apply_run0_observability(cfgs[0], sf);
  const auto sweep = bench::run_sweep(
      cfgs, bench::sweep_options_from_cli(cli, "misbehavior"));

  int rc = 0;
  if (sf.json) {
    obs::Report report("misbehavior");
    bench::echo_config(report, base);
    report.config("oversend_factor", factor);
    report.telemetry(bench::merged_telemetry(sweep));
    bench::attach_series(report, *sweep.runs[0]);
    report.figure("cases", [&](util::JsonWriter& w) {
      w.begin_array();
      for (std::size_t i = 0; i < std::size(cases); ++i) {
        const auto o = evaluate(*sweep.runs[i]);
        w.begin_object();
        w.kv("case", cases[i].key);
        w.kv("scheme", cases[i].scheme == qos::Scheme::kNewProposal
                           ? "new_proposal"
                           : "legacy");
        w.kv("oversend_factor", cases[i].factor);
        w.kv("db_delivered_over_reserved", o.db_delivered_over_reserved);
        w.kv("db_miss_fraction", o.db_miss_fraction);
        w.end_object();
      }
      w.end_array();
    });
    rc = bench::emit_report(report, cli);
  } else {
    util::TablePrinter table({"scheme", "oversend", "DB delivered/reserved",
                              "DB deadline-miss frac"});
    for (std::size_t i = 0; i < std::size(cases); ++i) {
      const auto& run = *sweep.runs[i];
      const auto o = evaluate(run);
      table.add_row({cases[i].name, util::TablePrinter::num(cases[i].factor, 1),
                     util::TablePrinter::num(o.db_delivered_over_reserved, 3),
                     util::TablePrinter::pct(o.db_miss_fraction, 2)});
      std::cerr << "[" << cases[i].name << " x" << cases[i].factor
                << "] window=" << run.summary.window_cycles
                << (run.summary.hit_hard_limit ? " (HARD LIMIT)" : "") << "\n";
    }
    table.print(std::cout);
    std::cout <<
        "\nExpected shape: under the new proposal DB keeps delivering its\n"
        "reservation (ratio ~1, near-zero misses) even though every DBTS\n"
        "class floods the fabric; under the legacy scheme the oversending\n"
        "high-priority classes starve the low-priority table and DB's\n"
        "delivered/reserved ratio (and deadline record) collapses.\n";
  }

  if (!sf.trace_out.empty())
    bench::emit_run_trace(sf.trace_out, *sweep.runs[0]);
  if (!bench::export_series_csv(*sweep.runs[0], sf)) rc = 1;

  cli.warn_unused(std::cerr);
  return rc;
}
