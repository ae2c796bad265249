// Experiment E1 — reproduces Table 2 of the paper: injected and delivered
// traffic (bytes/cycle/node), average utilization and average bandwidth
// reservation at host interfaces and switch ports, for small (256 B) and
// large (4 KB) packets on the 16-switch / 64-host irregular network. The
// two cases run in parallel via the sweep engine (--jobs N); both keep the
// same seed, so they share one fabric as the paper's comparison requires.
//
// Expected shape (paper §4.3): utilization approaches but never exceeds the
// 80 % reservable ceiling; small packets deliver slightly more wire
// throughput because per-packet header overhead makes them carry more
// protocol bytes for the same payload bandwidth.
#include <iostream>

#include "report_common.hpp"
#include "sweep_runner.hpp"
#include "util/table_printer.hpp"

using namespace ibarb;

int bench_main(const util::Cli& cli) {
  const auto sf = cli.std_flags(21);
  const auto base = bench::config_from_cli(cli, {}, {"mtu"});

  if (!sf.json) {
    std::cout << "=== Table 2: traffic and utilization for different packet "
                 "sizes ===\n";
    std::cout << "network: " << base.switches << " switches / "
              << base.switches * 4 << " hosts, 1x links, seed " << base.seed
              << "\n\n";
  }

  struct Case {
    const char* name;
    const char* key;
    iba::Mtu mtu;
  };
  const Case cases[] = {{"Small (256B)", "small", iba::Mtu::kMtu256},
                        {"Large (4KB)", "large", iba::Mtu::kMtu4096}};

  std::vector<bench::PaperRunConfig> cfgs;
  for (const auto& c : cases) {
    auto cfg = base;
    cfg.mtu = c.mtu;
    cfgs.push_back(cfg);
  }
  bench::apply_run0_observability(cfgs[0], sf);
  const auto sweep =
      bench::run_sweep(cfgs, bench::sweep_options_from_cli(cli, "table2"));

  int rc = 0;
  if (sf.json) {
    obs::Report report("table2");
    bench::echo_config(report, base);
    report.telemetry(bench::merged_telemetry(sweep));
    bench::attach_series(report, *sweep.runs[0]);
    report.figure("rows", [&](util::JsonWriter& w) {
      w.begin_object();
      for (std::size_t i = 0; i < std::size(cases); ++i) {
        w.key(cases[i].key);
        bench::write_table2(w, sweep.runs[i]->table2());
      }
      w.end_object();
    });
    rc = bench::emit_report(report, cli);
  } else {
    util::TablePrinter table({"Packet size", "Injected (B/cyc/node)",
                              "Delivered (B/cyc/node)", "Host util (%)",
                              "Switch util (%)", "Host resv (Mbps)",
                              "Switch resv (Mbps)"});
    for (std::size_t i = 0; i < std::size(cases); ++i) {
      const auto& run = *sweep.runs[i];
      const auto row = run.table2();
      table.add_row({cases[i].name,
                     util::TablePrinter::num(
                         row.injected_bytes_per_cycle_per_node, 4),
                     util::TablePrinter::num(
                         row.delivered_bytes_per_cycle_per_node, 4),
                     util::TablePrinter::num(row.host_utilization * 100.0, 2),
                     util::TablePrinter::num(row.switch_utilization * 100.0, 2),
                     util::TablePrinter::num(row.host_reserved_mbps, 1),
                     util::TablePrinter::num(row.switch_reserved_mbps, 1)});
      std::cerr << "[" << cases[i].name << "] connections=" << run.workload.accepted
                << " window=" << run.summary.window_cycles << " cycles"
                << (run.summary.hit_hard_limit ? " (HARD LIMIT)" : "") << "\n";
    }
    table.print(std::cout);
    std::cout << "\nNote: the reservable ceiling is 80% of each link; 20% is\n"
                 "kept for best-effort/challenged traffic on the low-priority\n"
                 "table, so utilization close to (but below) 80% matches the\n"
                 "paper's quasi-fully-loaded scenario.\n";
  }

  if (!sf.trace_out.empty())
    bench::emit_run_trace(sf.trace_out, *sweep.runs[0]);
  if (!bench::export_series_csv(*sweep.runs[0], sf)) rc = 1;

  cli.warn_unused(std::cerr);
  return rc;
}
