// Shared harness for the paper-reproduction benches: stands up the full
// pipeline (irregular fabric -> subnet manager -> Table-1 workload ->
// admission -> simulation) and exposes the aggregations each table/figure
// needs. Lives in bench/ because it is reproduction plumbing, not library
// API.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "network/registry.hpp"
#include "network/topology.hpp"
#include "obs/series.hpp"
#include "qos/admission.hpp"
#include "sched/crossbar_impl.hpp"
#include "subnet/subnet_manager.hpp"
#include "traffic/workload.hpp"
#include "util/cli.hpp"

namespace ibarb::bench {

/// Where a run-configuration knob's value came from; reports echo it.
enum class KnobSource : std::uint8_t { kDefault, kEnv, kFlag };

const char* knob_source_name(KnobSource source) noexcept;

struct PaperRunConfig {
  unsigned switches = 16;           ///< Paper's headline network size.
  iba::Mtu mtu = iba::Mtu::kMtu256; ///< Small packets; kMtu4096 = large.
  std::uint64_t seed = 21;
  std::uint64_t min_rx_packets = 30;
  iba::Cycle warmup = 2'000'000;
  iba::Cycle hard_limit = 3'000'000'000;
  double besteffort_load = 0.10;
  qos::Scheme scheme = qos::Scheme::kNewProposal;
  arbtable::FillPolicy policy = arbtable::FillPolicy::kBitReversal;
  double oversend_factor = 1.0;
  std::uint16_t oversend_sl_mask = 0;
  bool vbr = false;                  ///< VBR instead of CBR sources.
  double vbr_on_fraction = 0.25;
  unsigned buffer_packets = 4;       ///< Per-VL buffer depth.
  std::uint8_t limit_of_high_priority = iba::kUnlimitedHighPriority;
  /// Packet-trace ring size (0 = off). Benches enable it on run 0 of a
  /// sweep when --trace-out is given; the run is self-contained and
  /// deterministic, so the exported trace is byte-identical for any --jobs.
  std::size_t trace_capacity = 0;
  /// Time-series sampling cadence (--sample-every); 0 = off. Like tracing,
  /// benches enable this on run 0 only (bench::apply_run0_observability).
  std::uint64_t sample_every = 0;
  /// Wall-clock self-profiler (--profile); profile.* telemetry only.
  bool profile = false;
  /// Crossbar scheduler of every switch (docs/SCHEDULERS.md).
  sched::CrossbarImpl crossbar = sched::CrossbarImpl::kWrr;
  /// Topology spec ("family:k=v,...", network/registry.hpp), holding only
  /// the parameters the user set, so that fabric() can tell them apart.
  network::TopologySpec topo = network::TopologySpec::parse("irregular");
  /// Routing engine name (network/routing_engine.hpp).
  std::string routing = "updown";
  /// Where each run-configuration knob got its value, filled by
  /// config_from_cli (empty: every knob at its default). Read it with
  /// source_of, never by index.
  std::vector<KnobSource> source;

  /// The fabric this config builds: `topo`, with `switches` and `seed`
  /// filled into an irregular spec's unset parameters, so --switches and
  /// --seed keep shaping the paper's fabric (also per run of a sweep).
  network::TopologySpec fabric() const;
};

/// Flag names (--name) of every run-configuration knob.
std::vector<std::string_view> run_knob_names();

/// Where `cfg`'s value of the knob named `knob` came from; throws
/// std::invalid_argument for a name that is not a run-configuration knob.
KnobSource source_of(const PaperRunConfig& cfg, std::string_view knob);

/// Reads one environment variable; nullptr when unset.
using EnvLookup = std::function<const char*(const char*)>;

/// The process environment, as an EnvLookup.
const char* process_env(const char* name);

/// Resolves every run-configuration knob once, on top of `base`. A knob's
/// default is the value `base` already holds: a flag beats
/// its env var (unset or empty counts as absent), which beats the default.
/// --quick first lowers the packets/warmup defaults. A bad value throws
/// std::invalid_argument naming the knob, where the value came from and
/// the valid set. Knobs in `bench_set` are ones the bench sets itself for
/// each run (fig4's two MTUs): they are not read, so a flag for one is
/// reported by warn_unused, and their source stays `default`.
PaperRunConfig config_from_cli(
    const util::Cli& cli, PaperRunConfig base = {},
    std::initializer_list<std::string_view> bench_set = {},
    const EnvLookup& env = process_env);

/// One complete simulated experiment. Members reference each other, so the
/// struct is heap-pinned (no copies/moves).
struct PaperRun {
  PaperRunConfig cfg;
  network::FabricGraph graph;
  std::unique_ptr<subnet::SubnetManager> sm;
  std::unique_ptr<qos::AdmissionControl> admission;
  std::unique_ptr<sim::Simulator> sim;
  traffic::Workload workload;
  sim::RunSummary summary;
  /// Finalized time-series of the run; engaged when cfg.sample_every > 0
  /// (filled after the last simulated cycle).
  std::optional<obs::SeriesData> series;

  PaperRun(const PaperRun&) = delete;
  PaperRun& operator=(const PaperRun&) = delete;
  /// Builds the fabric and workload, then runs the simulation phases.
  explicit PaperRun(PaperRunConfig c);

  // --- Aggregations -------------------------------------------------------

  struct SlSeries {
    iba::ServiceLevel sl = 0;
    std::uint64_t connections = 0;
    std::uint64_t rx_packets = 0;
    /// Fraction of packets within deadline/divisor, per threshold index.
    std::array<double, sim::kDelayThresholds> within{};
    /// Fraction of inter-arrival deviations per jitter bin.
    std::array<double, sim::kJitterBins> jitter{};
    std::uint64_t deadline_misses = 0;
  };

  /// Figure 4 / 5 series for the ten QoS SLs.
  std::vector<SlSeries> per_sl() const;

  /// Figure 6: indices (into workload.connections) of the connections of
  /// `sl` with the lowest/highest fraction meeting the tightest threshold.
  struct BestWorst {
    /// False when no connection of the SL received a packet — best/worst
    /// are then meaningless and callers must skip the cell.
    bool found = false;
    std::size_t best = 0;
    std::size_t worst = 0;
    std::array<double, sim::kDelayThresholds> best_within{};
    std::array<double, sim::kDelayThresholds> worst_within{};
  };
  BestWorst best_worst(iba::ServiceLevel sl) const;

  /// Table 2 aggregates.
  struct Table2Row {
    double injected_bytes_per_cycle_per_node = 0.0;
    double delivered_bytes_per_cycle_per_node = 0.0;
    double host_utilization = 0.0;     ///< Mean over host interfaces.
    double switch_utilization = 0.0;   ///< Mean over wired switch ports.
    double host_reserved_mbps = 0.0;
    double switch_reserved_mbps = 0.0;
  };
  Table2Row table2() const;

  /// Per-SL delivered payload rate vs reservation (misbehaviour bench).
  struct SlThroughput {
    iba::ServiceLevel sl;
    double reserved_wire_mbps;
    double delivered_wire_mbps;
    double miss_fraction;  ///< Deadline misses / rx packets.
  };
  std::vector<SlThroughput> per_sl_throughput() const;
};

/// Human label for a threshold index ("D/30" ... "D").
std::string threshold_label(std::size_t index);

/// Human label for a jitter bin ("<-IAT", "[-IAT,-3IAT/4)", ..., ">+IAT").
std::string jitter_label(std::size_t bin);

}  // namespace ibarb::bench
