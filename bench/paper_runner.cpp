#include "paper_runner.hpp"

#include "network/routing_engine.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>

namespace ibarb::bench {

namespace {

/// One knob of a paper run, settable by a flag and optionally by an
/// environment variable.
struct RunKnob {
  std::string_view name;   ///< Flag name (--name) and report key stem.
  const char* env;         ///< Environment override, or nullptr.
  std::string_view valid;  ///< The valid set, quoted in every rejection.
  /// Parses `text` into the config; throws std::invalid_argument (the
  /// reason) on a value outside the valid set.
  void (*parse)(std::string_view text, PaperRunConfig& cfg);
};

/// Parses an unsigned integer >= Lo that fits the type of `Member`. The
/// reason is empty: the caller's message quotes the value and valid set.
template <auto Member, std::uint64_t Lo = 0>
void parse_uint(std::string_view text, PaperRunConfig& cfg) {
  using T = std::remove_reference_t<decltype(cfg.*Member)>;
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end || v < Lo ||
      v > std::numeric_limits<T>::max())
    throw std::invalid_argument("");
  cfg.*Member = static_cast<T>(v);
}

const RunKnob kRunKnobs[] = {
    {"switches", nullptr, "an integer >= 1",
     parse_uint<&PaperRunConfig::switches, 1>},
    {"mtu", nullptr, "256|1024|2048|4096|small|large",
     [](std::string_view t, PaperRunConfig& c) {
       if (t == "256" || t == "small") c.mtu = iba::Mtu::kMtu256;
       else if (t == "1024") c.mtu = iba::Mtu::kMtu1024;
       else if (t == "2048") c.mtu = iba::Mtu::kMtu2048;
       else if (t == "4096" || t == "large") c.mtu = iba::Mtu::kMtu4096;
       else throw std::invalid_argument("");
     }},
    {"seed", nullptr, "an integer >= 0", parse_uint<&PaperRunConfig::seed>},
    {"packets", nullptr, "an integer >= 0",
     parse_uint<&PaperRunConfig::min_rx_packets>},
    {"warmup", nullptr, "a cycle count >= 0",
     parse_uint<&PaperRunConfig::warmup>},
    {"besteffort-load", nullptr, "a number in [0, 1]",
     [](std::string_view t, PaperRunConfig& c) {
       double v = 0.0;
       const char* end = t.data() + t.size();
       const auto [ptr, ec] = std::from_chars(t.data(), end, v);
       if (ec != std::errc{} || ptr != end || !(v >= 0.0 && v <= 1.0))
         throw std::invalid_argument("");
       c.besteffort_load = v;
     }},
    {"topo", "IBARB_TOPO", "FAMILY[:key=value,...]",
     [](std::string_view t, PaperRunConfig& c) {
       c.topo = network::TopologySpec::parse(t);
     }},
    {"routing", "IBARB_ROUTING", network::kRoutingEngineNames,
     [](std::string_view t, PaperRunConfig& c) {
       if (!network::is_routing_engine(t)) throw std::invalid_argument("");
       c.routing = std::string(t);
     }},
};
constexpr std::size_t kRunKnobCount = std::size(kRunKnobs);

}  // namespace

const char* knob_source_name(KnobSource source) noexcept {
  switch (source) {
    case KnobSource::kDefault: return "default";
    case KnobSource::kEnv: return "env";
    case KnobSource::kFlag: return "flag";
    case KnobSource::kBench: return "bench";
  }
  return "?";
}

std::vector<std::string_view> run_knob_names() {
  std::vector<std::string_view> names;
  for (const RunKnob& knob : kRunKnobs) names.push_back(knob.name);
  return names;
}

KnobSource source_of(const PaperRunConfig& cfg, std::string_view knob) {
  for (std::size_t i = 0; i < kRunKnobCount; ++i) {
    if (kRunKnobs[i].name != knob) continue;
    return i < cfg.source.size() ? cfg.source[i] : KnobSource::kDefault;
  }
  throw std::invalid_argument("not a run-configuration knob: " +
                              std::string(knob));
}

const char* process_env(const char* name) { return std::getenv(name); }

PaperRunConfig config_from_cli(
    const util::Cli& cli, PaperRunConfig base,
    std::initializer_list<std::string_view> bench_set, const EnvLookup& env) {
  if (cli.get_bool("quick", false)) {
    base.min_rx_packets = 10;
    base.warmup = 500'000;
  }
  base.source.assign(kRunKnobCount, KnobSource::kDefault);
  for (std::size_t i = 0; i < kRunKnobCount; ++i) {
    const RunKnob& knob = kRunKnobs[i];
    if (std::find(bench_set.begin(), bench_set.end(), knob.name) !=
        bench_set.end()) {
      base.source[i] = KnobSource::kBench;
      continue;
    }
    std::string origin, text;
    if (cli.has(knob.name)) {
      origin = "--" + std::string(knob.name);
      text = cli.get(knob.name, "");
      base.source[i] = KnobSource::kFlag;
    } else if (const char* raw = knob.env ? env(knob.env) : nullptr;
               raw != nullptr && *raw != '\0') {
      origin = knob.env;
      text = raw;
      base.source[i] = KnobSource::kEnv;
    } else {
      continue;
    }
    try {
      knob.parse(text, base);
    } catch (const std::invalid_argument& e) {
      const std::string why = e.what();
      throw std::invalid_argument(
          std::string(knob.name) + ": " + origin + " '" + text +
          "' is invalid" + (why.empty() ? "" : ": " + why) + " (expected " +
          std::string(knob.valid) + ")");
    }
  }
  return base;
}

network::TopologySpec PaperRunConfig::fabric() const {
  network::TopologySpec spec = topo;
  if (spec.family() == "irregular") {
    if (!spec.has("switches")) spec.set("switches", switches);
    if (!spec.has("seed")) spec.set("seed", seed);
  }
  return spec;
}

PaperRun::PaperRun(PaperRunConfig c) : cfg(c) {
  graph = cfg.fabric().build();
  sm = std::make_unique<subnet::SubnetManager>(graph, cfg.routing);

  qos::AdmissionControl::Config ac;
  ac.policy = cfg.policy;
  ac.scheme = cfg.scheme;
  ac.seed = cfg.seed;
  ac.limit_of_high_priority = cfg.limit_of_high_priority;
  ac.max_packet_wire_bytes =
      iba::mtu_bytes(cfg.mtu) + iba::kPacketOverheadBytes;
  admission = std::make_unique<qos::AdmissionControl>(
      graph, sm->routes(), qos::paper_catalogue(), ac);

  sim::SimConfig sc;
  sc.max_payload_bytes = iba::mtu_bytes(cfg.mtu);
  sc.buffer_packets = cfg.buffer_packets;
  sc.seed = cfg.seed;
  sc.trace_capacity = cfg.trace_capacity;
  sc.sample_every = cfg.sample_every;
  sc.profile = cfg.profile;
  sim = std::make_unique<sim::Simulator>(graph, sm->routes(), sc);

  traffic::WorkloadConfig wc;
  wc.mtu = cfg.mtu;
  wc.seed = cfg.seed;
  wc.besteffort_load = cfg.besteffort_load;
  wc.oversend_factor = cfg.oversend_factor;
  wc.oversend_sl_mask = cfg.oversend_sl_mask;
  wc.vbr = cfg.vbr;
  wc.vbr_on_fraction = cfg.vbr_on_fraction;
  workload =
      traffic::build_paper_workload(graph, sm->routes(), *admission, *sim, wc);

  sm->configure_fabric(*sim, *admission);

  summary = sim->run_paper_phases(cfg.warmup, cfg.min_rx_packets,
                                  cfg.hard_limit);
  if (sim->series() != nullptr) series = sim->series()->finalize(sim->now());
}

std::vector<PaperRun::SlSeries> PaperRun::per_sl() const {
  std::vector<SlSeries> out(10);
  std::vector<std::array<std::uint64_t, sim::kDelayThresholds>> within(10);
  std::vector<std::array<std::uint64_t, sim::kJitterBins>> jitter(10);
  for (unsigned sl = 0; sl < 10; ++sl) out[sl].sl = sl;

  for (const auto& ec : workload.connections) {
    const auto& c = sim->metrics().connections[ec.flow];
    auto& s = out[ec.sl];
    ++s.connections;
    s.rx_packets += c.rx_packets;
    s.deadline_misses += c.deadline_misses;
    for (std::size_t i = 0; i < sim::kDelayThresholds; ++i)
      within[ec.sl][i] += c.within_threshold[i];
    for (std::size_t b = 0; b < sim::kJitterBins; ++b)
      jitter[ec.sl][b] += c.jitter_bins[b];
  }
  for (unsigned sl = 0; sl < 10; ++sl) {
    auto& s = out[sl];
    if (s.rx_packets > 0) {
      for (std::size_t i = 0; i < sim::kDelayThresholds; ++i)
        s.within[i] = static_cast<double>(within[sl][i]) /
                      static_cast<double>(s.rx_packets);
    }
    std::uint64_t jt = 0;
    for (const auto v : jitter[sl]) jt += v;
    if (jt > 0) {
      for (std::size_t b = 0; b < sim::kJitterBins; ++b)
        s.jitter[b] =
            static_cast<double>(jitter[sl][b]) / static_cast<double>(jt);
    }
  }
  return out;
}

PaperRun::BestWorst PaperRun::best_worst(iba::ServiceLevel sl) const {
  BestWorst bw;
  bool first = true;
  for (std::size_t i = 0; i < workload.connections.size(); ++i) {
    const auto& ec = workload.connections[i];
    if (ec.sl != sl) continue;
    const auto& c = sim->metrics().connections[ec.flow];
    if (c.rx_packets == 0) continue;
    std::array<double, sim::kDelayThresholds> within{};
    for (std::size_t k = 0; k < sim::kDelayThresholds; ++k)
      within[k] = c.fraction_within(k);
    // Lexicographic over thresholds, tightest first: the whole curve breaks
    // ties, not just the D/30 point.
    if (first || within > bw.best_within) {
      bw.best = i;
      bw.best_within = within;
    }
    if (first || within < bw.worst_within) {
      bw.worst = i;
      bw.worst_within = within;
    }
    first = false;
  }
  bw.found = !first;
  return bw;
}

PaperRun::Table2Row PaperRun::table2() const {
  Table2Row row;
  const auto& m = sim->metrics();
  const auto window = static_cast<double>(m.window_length());
  const auto nodes = static_cast<double>(graph.hosts().size());
  if (window <= 0.0 || nodes <= 0.0) return row;

  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  for (const auto& c : m.connections) {
    injected += c.tx_wire_bytes;
    delivered += c.rx_wire_bytes;
  }
  row.injected_bytes_per_cycle_per_node =
      static_cast<double>(injected) / window / nodes;
  row.delivered_bytes_per_cycle_per_node =
      static_cast<double>(delivered) / window / nodes;

  double host_util = 0.0, sw_util = 0.0;
  double host_res = 0.0, sw_res = 0.0;
  unsigned hosts = 0, switches = 0;
  for (const auto& p : m.ports) {
    if (p.is_host_interface) {
      host_util += p.utilization(m.window_length());
      host_res += p.reserved_mbps;
      ++hosts;
    } else {
      sw_util += p.utilization(m.window_length());
      sw_res += p.reserved_mbps;
      ++switches;
    }
  }
  if (hosts > 0) {
    row.host_utilization = host_util / hosts;
    row.host_reserved_mbps = host_res / hosts;
  }
  if (switches > 0) {
    row.switch_utilization = sw_util / switches;
    row.switch_reserved_mbps = sw_res / switches;
  }
  return row;
}

std::vector<PaperRun::SlThroughput> PaperRun::per_sl_throughput() const {
  std::vector<SlThroughput> out;
  const auto window = static_cast<double>(sim->metrics().window_length());
  for (unsigned sl = 0; sl < 10; ++sl) {
    SlThroughput t{static_cast<iba::ServiceLevel>(sl), 0.0, 0.0, 0.0};
    std::uint64_t rx = 0, misses = 0, bytes = 0;
    for (const auto& ec : workload.connections) {
      if (ec.sl != sl) continue;
      t.reserved_wire_mbps += ec.wire_mbps;
      const auto& c = sim->metrics().connections[ec.flow];
      rx += c.rx_packets;
      misses += c.deadline_misses;
      bytes += c.rx_wire_bytes;
    }
    if (window > 0.0)
      t.delivered_wire_mbps =
          static_cast<double>(bytes) * 8.0 / (window * iba::kNsPerCycle);
    // bytes*8 bits over window*4 ns = (bits/ns) * 1000 = Mbps... convert:
    // bits / ns == Gbps; x1000 -> Mbps.
    t.delivered_wire_mbps *= 1000.0;
    if (rx > 0)
      t.miss_fraction =
          static_cast<double>(misses) / static_cast<double>(rx);
    out.push_back(t);
  }
  return out;
}

std::string threshold_label(std::size_t index) {
  const double div = sim::kDelayThresholdDivisors[index];
  if (div == 1.0) return "D";
  std::ostringstream os;
  if (div == static_cast<double>(static_cast<int>(div)))
    os << "D/" << static_cast<int>(div);
  else
    os << "D/" << div;
  return os.str();
}

std::string jitter_label(std::size_t bin) {
  static const char* kLabels[] = {
      "<-IAT",          "[-IAT,-3/4)",   "[-3/4,-1/2)", "[-1/2,-1/4)",
      "[-1/4,-1/8)",    "[-1/8,+1/8)",   "[+1/8,+1/4)", "[+1/4,+1/2)",
      "[+1/2,+3/4)",    "[+3/4,+IAT)",   ">+IAT"};
  static_assert(std::size(kLabels) == sim::kJitterBins);
  return kLabels[bin];
}

}  // namespace ibarb::bench
