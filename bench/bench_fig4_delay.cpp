// Experiment E2 — reproduces Figure 4: the distribution of packet delay per
// Service Level, printed as the percentage of packets received before a
// threshold relative to each connection's guaranteed deadline D, for small
// (a) and large (b) packet sizes. The two panels run in parallel via the
// sweep engine (--jobs N, see docs/SWEEP.md).
//
// Expected shape (paper §4.3): every SL reaches 100% at D (all packets meet
// their deadline); SLs with stricter deadlines (smaller distances, SL 0-3)
// cross later — their packets arrive nearer to the deadline — while lax SLs
// saturate at very tight thresholds already.
#include <iostream>

#include "report_common.hpp"
#include "sweep_runner.hpp"
#include "util/table_printer.hpp"

using namespace ibarb;

namespace {

void print_panel(const char* title, const bench::PaperRun& run) {
  std::cout << title << "\n";
  std::vector<std::string> headers{"SL", "conns", "packets"};
  for (std::size_t k = 0; k < sim::kDelayThresholds; ++k)
    headers.push_back(bench::threshold_label(k));
  util::TablePrinter table(headers);
  for (const auto& s : run.per_sl()) {
    std::vector<std::string> row{std::to_string(int(s.sl)),
                                 std::to_string(s.connections),
                                 std::to_string(s.rx_packets)};
    for (std::size_t k = 0; k < sim::kDelayThresholds; ++k) {
      // An SL with no received packets has no delay distribution; print a
      // placeholder instead of a misleading 0.00.
      row.push_back(s.rx_packets == 0
                        ? "-"
                        : util::TablePrinter::num(s.within[k] * 100.0, 2));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::uint64_t misses = 0;
  for (const auto& s : run.per_sl()) misses += s.deadline_misses;
  std::cout << "deadline misses across all QoS packets: " << misses << "\n\n";
}

}  // namespace

int bench_main(const util::Cli& cli) {
  const auto sf = cli.std_flags(21);
  const auto base = bench::config_from_cli(cli, {}, {"mtu"});

  std::vector<bench::PaperRunConfig> cfgs(2, base);
  cfgs[0].mtu = iba::Mtu::kMtu256;
  cfgs[1].mtu = iba::Mtu::kMtu4096;
  bench::apply_run0_observability(cfgs[0], sf);

  if (!sf.json)
    std::cout << "=== Figure 4: distribution of packet delay "
                 "(% received before Deadline/k) ===\n\n";

  const auto sweep =
      bench::run_sweep(cfgs, bench::sweep_options_from_cli(cli, "fig4"));

  int rc = 0;
  if (sf.json) {
    obs::Report report("fig4_delay");
    bench::echo_config(report, base);
    report.telemetry(bench::merged_telemetry(sweep));
    bench::attach_series(report, *sweep.runs[0]);
    report.figure("panel_small", [&](util::JsonWriter& w) {
      bench::write_sl_series(w, sweep.runs[0]->per_sl());
    });
    report.figure("panel_large", [&](util::JsonWriter& w) {
      bench::write_sl_series(w, sweep.runs[1]->per_sl());
    });
    rc = bench::emit_report(report, cli);
  } else {
    print_panel("(a) small packet size (256 B)", *sweep.runs[0]);
    print_panel("(b) large packet size (4 KB)", *sweep.runs[1]);
  }

  if (!sf.trace_out.empty())
    bench::emit_run_trace(sf.trace_out, *sweep.runs[0]);
  if (!bench::export_series_csv(*sweep.runs[0], sf)) rc = 1;

  cli.warn_unused(std::cerr);
  return rc;
}
