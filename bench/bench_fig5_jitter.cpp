// Experiment E3 — reproduces Figure 5: average packet jitter per Service
// Level, as the percentage of packets whose inter-arrival deviation falls in
// each interval relative to the connection's nominal inter-arrival time
// (IAT). Panels (a) SLs 0-4 and (b) SLs 5-9, small packets (the paper notes
// large packets behave the same; pass --mtu large to check).
//
// A single experiment by default; --sweep-seed S --replicas N turns it into
// an N-replica sweep over derived seeds (run in parallel with --jobs) whose
// per-bin fractions are averaged — jitter curves from one seed are the
// noisiest of the figure reproductions.
//
// Expected shape (paper §4.3): small-bandwidth SLs put essentially all
// packets in the central [-IAT/8, +IAT/8) interval; the big-bandwidth SLs
// (5 and 9) show a Gaussian-like spread that never exceeds +-IAT.
#include <iostream>

#include "report_common.hpp"
#include "sweep_runner.hpp"
#include "util/table_printer.hpp"

using namespace ibarb;

namespace {

/// Per-SL jitter fractions averaged over the replicas (one replica: the
/// series itself, byte-identical to the historical single-run output).
std::vector<bench::PaperRun::SlSeries> mean_series(
    const std::vector<std::unique_ptr<bench::PaperRun>>& runs) {
  std::vector<bench::PaperRun::SlSeries> mean = runs.front()->per_sl();
  if (runs.size() == 1) return mean;
  for (std::size_t r = 1; r < runs.size(); ++r) {
    const auto series = runs[r]->per_sl();
    for (std::size_t sl = 0; sl < mean.size(); ++sl)
      for (std::size_t b = 0; b < sim::kJitterBins; ++b)
        mean[sl].jitter[b] += series[sl].jitter[b];
  }
  for (auto& s : mean)
    for (auto& j : s.jitter) j /= static_cast<double>(runs.size());
  return mean;
}

void print_panel(const char* title,
                 const std::vector<bench::PaperRun::SlSeries>& series,
                 unsigned sl_lo, unsigned sl_hi) {
  std::cout << title << "\n";
  std::vector<std::string> headers{"interval"};
  for (unsigned sl = sl_lo; sl <= sl_hi; ++sl)
    headers.push_back("SL " + std::to_string(sl));
  util::TablePrinter table(headers);
  for (std::size_t b = 0; b < sim::kJitterBins; ++b) {
    std::vector<std::string> row{bench::jitter_label(b)};
    for (unsigned sl = sl_lo; sl <= sl_hi; ++sl)
      row.push_back(util::TablePrinter::num(series[sl].jitter[b] * 100.0, 2));
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::cout << "\n";
}

}  // namespace

int bench_main(const util::Cli& cli) {
  const auto sf = cli.std_flags(21);
  const auto cfg = bench::config_from_cli(cli);
  const auto replicas =
      static_cast<std::size_t>(cli.get_int("replicas", 1));

  if (!sf.json) {
    std::cout << "=== Figure 5: average packet jitter (% of packets per "
                 "interval, relative to IAT) ===\n";
    std::cout << "packet size: "
              << (cfg.mtu == iba::Mtu::kMtu256 ? "small (256 B)" : "other")
              << "\n\n";
  }

  std::vector<bench::PaperRunConfig> cfgs(replicas == 0 ? 1 : replicas, cfg);
  bench::apply_run0_observability(cfgs[0], sf);
  const auto sweep =
      bench::run_sweep(cfgs, bench::sweep_options_from_cli(cli, "fig5"));
  const auto series = mean_series(sweep.runs);

  double outside = 0.0;
  for (const auto& s : series)
    outside += s.jitter[0] + s.jitter[sim::kJitterBins - 1];

  int rc = 0;
  if (sf.json) {
    obs::Report report("fig5_jitter");
    bench::echo_config(report, cfg);
    report.config("replicas", static_cast<std::uint64_t>(cfgs.size()));
    report.telemetry(bench::merged_telemetry(sweep));
    bench::attach_series(report, *sweep.runs[0]);
    report.figure("per_sl", [&](util::JsonWriter& w) {
      bench::write_sl_series(w, series);
    });
    report.figure("outside_iat_fraction",
                  [&](util::JsonWriter& w) { w.value(outside); });
    rc = bench::emit_report(report, cli);
  } else {
    print_panel("(a) SLs 0-4", series, 0, 4);
    print_panel("(b) SLs 5-9", series, 5, 9);
    std::cout << "fraction of deviations beyond +-IAT (all SLs summed): "
              << util::TablePrinter::num(outside * 100.0, 3) << "%\n";
  }

  if (!sf.trace_out.empty())
    bench::emit_run_trace(sf.trace_out, *sweep.runs[0]);
  if (!bench::export_series_csv(*sweep.runs[0], sf)) rc = 1;

  cli.warn_unused(std::cerr);
  return rc;
}
