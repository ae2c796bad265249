// The repository benchmark: three workloads that time every call into the
// simulator's layers from outside, check that the outputs are correct, and
// print each metric by name with its unit. perfbench/README.md describes
// the workloads, the metric -> layer -> end-to-end map and the baseline.
//
//   perfbench --workload paper_fig4|fattree4096|churn_saturated
//             --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Everything runs in this process on one thread. A run repeats a fixed
// unit of work (same seed, same inputs) until --seconds have passed and
// reports medians over the units; every unit must reproduce the first
// unit's simulated-statistics digest. The last stdout line is one JSON
// object: {"correct","attempted","failed","metrics"}. With --trace 0 the
// metrics are the end-to-end ones. With --trace 1 the workload runs
// untraced units for half the budget, then as many traced units (spans
// kept in memory, written to --trace-out), and the metrics are the
// per-layer ones.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "control/churn_engine.hpp"
#include "control/snapshot.hpp"
#include "network/registry.hpp"
#include "qos/admission.hpp"
#include "qos/traffic_classes.hpp"
#include "sim/simulator.hpp"
#include "subnet/subnet_manager.hpp"
#include "traffic/workload.hpp"
#include "util/cli.hpp"

using namespace ibarb;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- Workload seed ------------------------------------------------------

/// Every random input of a workload derives from the one --seed: the
/// fabric, the admission order, the traffic sources and the churn stream
/// each get their own splitmix64 stream of it.
struct Seeds {
  std::uint64_t fabric = 0;
  std::uint64_t admission = 0;
  std::uint64_t traffic = 0;
  std::uint64_t sim = 0;
  std::uint64_t churn = 0;
  std::uint64_t run = 0;  ///< Snapshot restore guard.
};

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

Seeds derive_seeds(std::uint64_t seed) {
  // Topology-spec values are parsed as integers; keep the fabric seed in
  // 31 bits so its canonical spelling stays short and portable.
  Seeds s;
  s.fabric = splitmix64(seed ^ 0xFAB1ull) & 0x7FFFFFFFull;
  s.admission = splitmix64(seed ^ 0xAD31ull);
  s.traffic = splitmix64(seed ^ 0x7AFFull);
  s.sim = splitmix64(seed ^ 0x5117ull);
  s.churn = splitmix64(seed ^ 0xC4A7ull);
  s.run = splitmix64(seed);
  return s;
}

// --- Spans ----------------------------------------------------------------

struct Span {
  const char* name = "";
  int parent = -1;
  unsigned unit = 0;
  double start_us = 0.0;
  double end_us = 0.0;
  /// Simulator events processed when the span closed (0 without one).
  std::uint64_t events = 0;
};

/// Counter snapshot taken where a layer call ends.
struct CounterMark {
  int span = -1;
  std::map<std::string, std::uint64_t> counters;
};

/// In-memory span recorder. When off, every call is a no-op, so the timed
/// path of an untraced run differs from a traced one only by these calls.
class Tracer {
 public:
  Tracer(bool on, Clock::time_point origin) : on_(on), origin_(origin) {}

  void set_unit(unsigned u) noexcept { unit_ = u; }

  int open(const char* name, Clock::time_point t) {
    if (!on_) return -1;
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.unit = unit_;
    s.start_us = us(t);
    spans_.push_back(s);
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id, Clock::time_point t, std::uint64_t events = 0) {
    if (id < 0) return;
    spans_[id].end_us = us(t);
    spans_[id].events = events;
    stack_.pop_back();
  }

  /// Records the layer counters (sim.*, queue.*, arb.*, xbar.*, port.*,
  /// tm.*, ctl.*) at the end of span `id`.
  void mark(int id, sim::Simulator& s) {
    if (id < 0) return;
    CounterMark m;
    m.span = id;
    for (const auto& [k, v] : s.telemetry_snapshot().counters)
      m.counters.emplace(k, v);
    marks_.push_back(std::move(m));
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }
  const std::vector<CounterMark>& marks() const noexcept { return marks_; }

 private:
  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  bool on_;
  Clock::time_point origin_;
  unsigned unit_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::vector<CounterMark> marks_;
};

/// Times one call into a layer and records it as a span. Returns seconds.
template <class F>
double timed(Tracer& tr, const char* name, F&& f,
             const sim::Simulator* s = nullptr) {
  const auto t0 = Clock::now();
  const int id = tr.open(name, t0);
  f();
  const auto t1 = Clock::now();
  tr.close(id, t1, s != nullptr ? s->events_processed() : 0);
  return seconds_between(t0, t1);
}

/// A harness frame (not a layer call): groups the spans below it.
class Frame {
 public:
  Frame(Tracer& tr, const char* name)
      : tr_(tr), t0_(Clock::now()), id_(tr.open(name, t0_)) {}
  double close(const sim::Simulator* s = nullptr) {
    const auto t1 = Clock::now();
    tr_.close(id_, t1, s != nullptr ? s->events_processed() : 0);
    id_ = -1;
    return seconds_between(t0_, t1);
  }
  int id() const noexcept { return id_; }

 private:
  Tracer& tr_;
  Clock::time_point t0_;
  int id_;
};

// --- Output checks ----------------------------------------------------------

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 20) failures.push_back(what);
  }
};

// --- Per-unit results -------------------------------------------------------

/// What one unit of work measured. Times are host time; counts are
/// simulated work and repeat exactly for one seed.
///
/// Every unit of a run does the same work step for step, so the timed
/// steps are kept one by one: the end-to-end times are sums of per-step
/// medians across units, which a burst of load from elsewhere on the host
/// can only move when it hits most units at the same step.
struct UnitResult {
  double wall_s = 0.0;
  std::vector<double> setup_steps;  ///< Each setup layer call, seconds.
  std::vector<double> run_steps;    ///< Each simulated slice or churn tick.
  /// The steps that served the control operations: the admission fills
  /// (simulation workloads) or the engine ticks (churn).
  std::vector<double> ops_steps;
  double ctl_ops = 0.0;  ///< Control operations served in ops_steps.
  double run_s = 0.0;    ///< This unit's run phase alone.
  double save_ms = 0.0;
  double restore_ms = 0.0;
  std::string digest;

  // Per-layer host times (ms) and the work they did.
  double build_ms = 0.0;
  double route_ms = 0.0;
  double construct_ms = 0.0;
  double fill_ms = 0.0;
  double configure_ms = 0.0;
  double sim_run_ms = 0.0;   ///< Inside Simulator::run_until.
  double audit_full_ms = 0.0;
  double audit_tick_ms = 0.0;
  double route_table_mib = 0.0;
  std::uint64_t sim_events = 0;
  std::uint64_t requests = 0;
  std::uint64_t rejected = 0;
  std::uint64_t qos_rx = 0;
  std::uint64_t qos_misses = 0;
  std::uint64_t live_peak = 0;
  std::uint64_t live_final = 0;
  std::uint64_t snapshot_bytes = 0;
  std::map<std::string, std::uint64_t> counters;  ///< Final layer counters.
  std::map<std::string, double> gauges;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile. Only meaningful when at least ten samples lie
/// beyond it (supports_percentile); callers print nothing otherwise.
double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

bool supports_percentile(std::size_t n, double p) {
  return static_cast<double>(n) * (1.0 - p) >= 10.0;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

void digest_counters(std::ostringstream& os, const obs::Snapshot& snap) {
  for (const auto& [k, v] : snap.counters)
    if (k.starts_with("tm.") || k.starts_with("ctl."))
      os << k << '=' << v << '\n';
}

/// Records one setup layer call: a step of setup_s and its layer's time.
void setup_step(UnitResult& r, double& layer_ms, double secs) {
  r.setup_steps.push_back(secs);
  layer_ms += 1e3 * secs;
}

// --- Simulation workloads (paper_fig4, fattree4096) -------------------------

/// One simulated panel: the paper's recipe on one fabric at one MTU.
struct PanelSpec {
  std::string topo;
  std::string routing = "updown";
  iba::Mtu mtu = iba::Mtu::kMtu256;
  iba::Cycle warmup = 0;
  /// Window ends once every QoS connection received this many packets ...
  std::uint64_t min_rx_packets = 0;
  /// ... or after this many cycles (a fixed window when min_rx_packets = 0).
  iba::Cycle window_limit = 0;
  iba::Cycle slice = 65'536;  ///< run_until step; one tick sample each.
};

/// A world built only to receive a restore, with whatever owns it.
struct FreshWorld {
  std::shared_ptr<void> owner;
  control::World refs;
};

/// Snapshot saves (and restores) repeat until this much host time is
/// spent, at most kMaxSnapshotReps times; the median is kept. A churn-world
/// save takes ~3 ms, a fat-tree one ~260 ms.
constexpr double kSnapshotBudgetS = 0.1;
constexpr std::size_t kMaxSnapshotReps = 25;

bool more_reps(const std::vector<double>& ms) {
  return ms.size() < kMaxSnapshotReps && sum(ms) < 1e3 * kSnapshotBudgetS;
}

void snapshot_round_trips(Tracer& tr, Checks& checks, iba::Cycle now,
                          std::uint64_t run_seed, const control::World& world,
                          const std::function<FreshWorld()>& make_fresh,
                          UnitResult& r) {
  std::vector<double> saves, restores;
  std::vector<std::uint8_t> blob;
  while (more_reps(saves))
    saves.push_back(1e3 * timed(tr, "snapshot.save", [&] {
      blob = control::save_world(now, run_seed, world);
    }));
  r.snapshot_bytes += blob.size();
  while (more_reps(restores)) {
    const FreshWorld fresh = make_fresh();
    std::string error;
    restores.push_back(1e3 * timed(tr, "snapshot.restore", [&] {
      try {
        control::restore_world(blob, run_seed, fresh.refs);
      } catch (const std::exception& e) {
        error = e.what();
      }
    }));
    checks.expect(error.empty(), "restore_world: " + error);
    if (error.empty() && restores.size() == 1)
      checks.expect(control::save_world(now, run_seed, fresh.refs) == blob,
                    "restored world re-saves to a different blob");
  }
  r.save_ms += median(saves);
  r.restore_ms += median(restores);
}

void run_panel(const PanelSpec& spec, const Seeds& seeds, Tracer& tr,
               Checks& checks, UnitResult& r, std::ostringstream& digest) {
  Frame setup(tr, "setup");
  network::FabricGraph graph;
  setup_step(r, r.build_ms, timed(tr, "network.build", [&] {
               graph = network::TopologySpec::parse(spec.topo).build();
             }));
  std::unique_ptr<subnet::SubnetManager> sm;
  setup_step(r, r.route_ms, timed(tr, "network.route", [&] {
               sm = std::make_unique<subnet::SubnetManager>(graph,
                                                            spec.routing);
             }));
  r.route_table_mib += static_cast<double>(sm->routes().table_bytes()) /
                       (1024.0 * 1024.0);

  qos::AdmissionControl::Config ac;
  ac.seed = seeds.admission;
  ac.max_packet_wire_bytes =
      iba::mtu_bytes(spec.mtu) + iba::kPacketOverheadBytes;
  // Declared before the simulator: the admission probe lives in the
  // simulator's registry, which must die first.
  std::unique_ptr<qos::AdmissionControl> admission;
  std::unique_ptr<sim::Simulator> simulator;
  setup_step(r, r.construct_ms, timed(tr, "sim.construct", [&] {
               admission = std::make_unique<qos::AdmissionControl>(
                   graph, sm->routes(), qos::paper_catalogue(), ac);
               sim::SimConfig sc;
               sc.max_payload_bytes = iba::mtu_bytes(spec.mtu);
               sc.seed = seeds.sim;
               simulator = std::make_unique<sim::Simulator>(
                   graph, sm->routes(), sc);
             }));
  sim::Simulator& s = *simulator;
  admission->attach_telemetry(s.telemetry());

  traffic::WorkloadConfig wc;
  wc.mtu = spec.mtu;
  wc.seed = seeds.traffic;
  traffic::Workload workload;
  const double fill_s = timed(tr, "qos.fill", [&] {
    workload = traffic::build_paper_workload(graph, sm->routes(), *admission,
                                             s, wc);
  });
  setup_step(r, r.fill_ms, fill_s);
  r.ops_steps.push_back(fill_s);
  r.requests += workload.offered;
  r.rejected += workload.offered - workload.accepted;
  r.ctl_ops += static_cast<double>(workload.offered);
  const auto c0 = Clock::now();
  const int configure = tr.open("subnet.configure", c0);
  sm->configure_fabric(s, *admission);
  const auto c1 = Clock::now();
  tr.close(configure, c1, s.events_processed());
  setup_step(r, r.configure_ms, seconds_between(c0, c1));
  setup.close(&s);
  tr.mark(configure, s);

  std::string why;
  bool audit_ok = false;
  r.audit_full_ms += 1e3 * timed(tr, "qos.audit_full", [&] {
    audit_ok = admission->audit_full(&why);
  });
  checks.expect(audit_ok, "audit_full after setup: " + why);

  // The paper's two-phase protocol (Simulator::run_paper_phases), stepped
  // in fixed slices so that each slice is one tick sample: warm-up with
  // statistics off, then a measurement window.
  std::uint64_t delivered_in_window = 0;
  iba::Cycle window_start = 0;
  bool hit_limit = false;
  Frame run(tr, "sim.run");
  const int run_id = run.id();
  // One protocol step: a slice of simulated time, then (in the window) the
  // stopping test run_paper_phases makes at the same points.
  const auto step = [&](iba::Cycle to, bool probe) {
    const auto t0 = Clock::now();
    const int id = tr.open("sim.run_until", t0);
    s.run_until(to);
    const auto t1 = Clock::now();
    tr.close(id, t1, s.events_processed());
    const bool done = probe && spec.min_rx_packets > 0 &&
                      s.metrics().min_qos_rx() >= spec.min_rx_packets;
    r.run_steps.push_back(seconds_between(t0, Clock::now()));
    r.sim_run_ms += 1e3 * seconds_between(t0, t1);
    return done;
  };
  while (s.now() + spec.slice <= spec.warmup)
    step(s.now() + spec.slice, false);
  if (s.now() < spec.warmup) step(spec.warmup, false);
  window_start = s.now();
  // Conservation is checked on the packets injected inside the window:
  // each must be delivered once the network drains.
  s.set_delivery_listener([&](const iba::Packet& p, iba::Cycle) {
    if (p.injected_at > window_start) ++delivered_in_window;
  });
  s.metrics().start_window(s.now());
  while (true) {
    if (step(s.now() + spec.slice, true)) break;
    if (s.now() - window_start >= spec.window_limit) {
      hit_limit = spec.min_rx_packets > 0;
      break;
    }
  }
  s.metrics().stop_window(s.now());
  r.run_s += run.close(&s);
  r.sim_events += s.events_processed();
  tr.mark(run_id, s);

  checks.expect(!hit_limit, "window reached its hard limit");
  const auto& m = s.metrics();
  constexpr unsigned kSls = 16;
  std::array<std::uint64_t, kSls> rx{}, misses{}, conns{};
  std::array<std::array<std::uint64_t, sim::kDelayThresholds>, kSls> within{};
  std::uint64_t tx_window = 0, dropped = 0;
  for (const auto& c : m.connections) {
    tx_window += c.tx_packets;
    dropped += c.dropped_packets;
    if (!c.qos) continue;
    ++conns[c.sl];
    rx[c.sl] += c.rx_packets;
    misses[c.sl] += c.deadline_misses;
    for (std::size_t i = 0; i < sim::kDelayThresholds; ++i)
      within[c.sl][i] += c.within_threshold[i];
  }
  digest << "panel " << spec.topo << " mtu=" << iba::mtu_bytes(spec.mtu)
         << " events=" << s.events_processed() << " cycles=" << s.now()
         << " window=" << m.window_length()
         << " connections=" << workload.accepted
         << " offered=" << workload.offered << '\n';
  for (unsigned sl = 0; sl < kSls; ++sl) {
    if (conns[sl] == 0) continue;
    digest << "sl" << sl << " conns=" << conns[sl] << " rx=" << rx[sl]
           << " misses=" << misses[sl] << " within=";
    for (std::size_t i = 0; i < sim::kDelayThresholds; ++i)
      digest << (i ? "," : "") << within[sl][i];
    digest << '\n';
    r.qos_rx += rx[sl];
    r.qos_misses += misses[sl];
    const std::string name = "SL " + std::to_string(sl);
    checks.expect(misses[sl] == 0, name + " missed " +
                                       std::to_string(misses[sl]) +
                                       " deadlines");
    checks.expect(rx[sl] > 0 &&
                      within[sl][sim::kDelayThresholds - 1] == rx[sl],
                  name + " is not 100% within D");
  }

  // Drain: stop every source and run until the window's packets are all
  // delivered; then injected = delivered + packets_in_network() exactly.
  // Up*/down* funnels the fat tree's best-effort backlog through its root,
  // which takes ~1.8 M cycles to drain; the cap leaves a wide margin.
  Frame drain(tr, "check.drain");
  for (std::uint32_t f = 0; f < m.connections.size(); ++f) s.stop_flow(f);
  constexpr iba::Cycle kDrainStep = 65'536;
  for (int i = 0; i < 1024 && delivered_in_window < tx_window; ++i)
    s.run_until(s.now() + kDrainStep);
  drain.close(&s);
  const auto in_network = s.packets_in_network();
  checks.expect(dropped == 0, "packets dropped: " + std::to_string(dropped));
  checks.expect(delivered_in_window + in_network == tx_window &&
                    in_network == 0,
                "conservation: injected " + std::to_string(tx_window) +
                    " != delivered " + std::to_string(delivered_in_window) +
                    " + in network " + std::to_string(in_network));
  s.set_delivery_listener(nullptr);

  const auto snap = s.telemetry_snapshot();
  digest_counters(digest, snap);
  for (const auto& [k, v] : snap.counters) r.counters[k] += v;
  for (const auto& [k, v] : snap.gauges)
    r.gauges[k] = std::max(r.gauges[k], v.first);

  snapshot_round_trips(
      tr, checks, s.now(), seeds.run, control::World{admission.get()},
      [&] {
        auto fresh = std::make_shared<qos::AdmissionControl>(
            graph, sm->routes(), qos::paper_catalogue(), ac);
        return FreshWorld{fresh, control::World{fresh.get()}};
      },
      r);
  r.live_final += admission->live_count();
  r.live_peak = std::max(r.live_peak, admission->live_count());
}

// --- Control-plane workload (churn_saturated) -------------------------------

/// The churn service on the paper fabric: admission, an event loop that
/// carries only engine ticks (no packet flows), and the engine.
struct ChurnWorld {
  qos::AdmissionControl admission;
  sim::Simulator sim;
  control::ChurnEngine engine;

  ChurnWorld(const network::FabricGraph& graph, const network::Routes& routes,
             const Seeds& seeds, const control::ChurnConfig& cc)
      : admission(graph, routes, qos::paper_catalogue(),
                  [&] {
                    qos::AdmissionControl::Config ac;
                    ac.seed = seeds.admission;
                    return ac;
                  }()),
        sim(graph, routes,
            [&] {
              sim::SimConfig sc;
              sc.seed = seeds.sim;
              return sc;
            }()),
        engine(sim, admission, graph, nullptr, nullptr, cc) {
    admission.attach_telemetry(sim.telemetry());
  }

  control::World refs() {
    return control::World{&admission, nullptr, nullptr, &engine};
  }
};

/// A setup-heavy mix: few teardowns, so live connections climb until the
/// arbitration tables saturate and most of the run serves a full fabric.
control::ChurnConfig churn_config(const Seeds& seeds, unsigned ticks) {
  control::ChurnConfig cc;
  cc.teardown_fraction = 0.05;
  cc.horizon = cc.tick * (ticks + 1);
  cc.seed = seeds.churn;
  return cc;
}

void run_churn(const std::string& topo, unsigned ticks, const Seeds& seeds,
               Tracer& tr, Checks& checks, UnitResult& r,
               std::ostringstream& digest) {
  const control::ChurnConfig cc = churn_config(seeds, ticks);
  Frame setup(tr, "setup");
  network::FabricGraph graph;
  setup_step(r, r.build_ms, timed(tr, "network.build", [&] {
               graph = network::TopologySpec::parse(topo).build();
             }));
  std::unique_ptr<subnet::SubnetManager> sm;
  setup_step(r, r.route_ms, timed(tr, "network.route", [&] {
               sm = std::make_unique<subnet::SubnetManager>(graph);
             }));
  r.route_table_mib += static_cast<double>(sm->routes().table_bytes()) /
                       (1024.0 * 1024.0);
  std::unique_ptr<ChurnWorld> w;
  setup_step(r, r.construct_ms, timed(tr, "sim.construct", [&] {
               w = std::make_unique<ChurnWorld>(graph, sm->routes(), seeds,
                                                cc);
             }));
  // configure_fabric, then the engine's start (it only schedules tick 1).
  const auto c0 = Clock::now();
  const int configure = tr.open("subnet.configure", c0);
  sm->configure_fabric(w->sim, w->admission);
  w->engine.start();
  const auto c1 = Clock::now();
  tr.close(configure, c1);
  setup_step(r, r.configure_ms, seconds_between(c0, c1));
  setup.close(&w->sim);
  tr.mark(configure, w->sim);

  Frame run(tr, "ctl.run");
  const int run_id = run.id();
  for (unsigned k = 1; k <= ticks; ++k) {
    const double t = timed(
        tr, "ctl.tick", [&] { w->sim.run_until(cc.tick * k); }, &w->sim);
    r.run_steps.push_back(t);
    r.sim_run_ms += 1e3 * t;
    if (cc.audit_every != 0 && k % cc.audit_every == 0)
      r.audit_tick_ms += 1e3 * t;
    r.live_peak = std::max(r.live_peak, w->engine.live_now());
  }
  r.run_s += run.close(&w->sim);
  r.sim_events += w->sim.events_processed();
  tr.mark(run_id, w->sim);

  const control::ChurnStats& st = w->engine.stats();
  r.ctl_ops += static_cast<double>(st.submitted + st.retries);
  r.ops_steps = r.run_steps;
  checks.expect(st.false_rejects == 0,
                "false rejects: " + std::to_string(st.false_rejects));
  checks.expect(st.ticks == ticks && st.audits == ticks / cc.audit_every,
                "engine ran " + std::to_string(st.ticks) + " ticks and " +
                    std::to_string(st.audits) + " audits");
  std::string why;
  bool audit_ok = false;
  r.audit_full_ms += 1e3 * timed(tr, "qos.audit_full", [&] {
    audit_ok = w->admission.audit_full(&why);
  });
  checks.expect(audit_ok, "audit_full after churn: " + why);

  const auto snap = w->sim.telemetry_snapshot();
  digest << "churn " << topo << " events=" << w->sim.events_processed()
         << " cycles=" << w->sim.now() << " live=" << w->engine.live_now()
         << " live_peak=" << r.live_peak << '\n';
  digest_counters(digest, snap);
  for (const auto& [k, v] : snap.counters) r.counters[k] += v;
  for (const auto& [k, v] : snap.gauges)
    r.gauges[k] = std::max(r.gauges[k], v.first);

  snapshot_round_trips(
      tr, checks, w->sim.now(), seeds.run, w->refs(),
      [&] {
        auto fresh =
            std::make_shared<ChurnWorld>(graph, sm->routes(), seeds, cc);
        return FreshWorld{fresh, fresh->refs()};
      },
      r);
  r.live_final += w->admission.live_count();
}

// --- Workloads --------------------------------------------------------------

using UnitFn = std::function<void(const Seeds&, Tracer&, Checks&, UnitResult&,
                                  std::ostringstream&)>;

/// Units a timed run repeats at least, so that setup_s is a median.
constexpr unsigned kMinUnits = 3;

std::string paper_fabric(const Seeds& seeds) {
  return "irregular:switches=16,seed=" + std::to_string(seeds.fabric);
}

std::optional<UnitFn> find_workload(const std::string& name) {
  if (name == "paper_fig4") {
    // Figure 4: both panels of the paper's 16-switch experiment.
    return UnitFn{[](const Seeds& seeds, Tracer& tr, Checks& checks,
                     UnitResult& r, std::ostringstream& digest) {
      for (const auto mtu : {iba::Mtu::kMtu256, iba::Mtu::kMtu4096}) {
        PanelSpec p;
        p.topo = paper_fabric(seeds);
        p.mtu = mtu;
        p.warmup = 500'000;
        p.min_rx_packets = 10;
        p.window_limit = 3'000'000'000;
        run_panel(p, seeds, tr, checks, r, digest);
      }
    }};
  }
  if (name == "fattree4096") {
    // The same recipe on a 4096-host 3-level fat tree, with a fixed
    // simulated horizon instead of the per-connection packet target.
    return UnitFn{[](const Seeds& seeds, Tracer& tr, Checks& checks,
                     UnitResult& r, std::ostringstream& digest) {
      PanelSpec p;
      p.topo = "fattree:k=16,n=3";
      p.routing = "fattree-dmodk";
      p.mtu = iba::Mtu::kMtu256;
      p.warmup = 20'000;
      p.window_limit = 40'000;
      p.slice = 32;
      run_panel(p, seeds, tr, checks, r, digest);
    }};
  }
  if (name == "churn_saturated") {
    return UnitFn{[](const Seeds& seeds, Tracer& tr, Checks& checks,
                     UnitResult& r, std::ostringstream& digest) {
      run_churn(paper_fabric(seeds), 10000, seeds, tr, checks, r, digest);
    }};
  }
  return std::nullopt;
}

struct RunOutcome {
  std::vector<UnitResult> units;
  std::string digest;  ///< Unit 0's simulated-statistics digest.
};

/// Repeats the workload's unit until `budget_s` has passed (at least
/// `min_units` times), or exactly `exact_units` times when that is
/// non-zero.
RunOutcome run_units(const UnitFn& unit_fn, const Seeds& seeds, Tracer& tr,
                     Checks& checks, double budget_s, unsigned min_units,
                     unsigned exact_units) {
  RunOutcome out;
  const auto start = Clock::now();
  for (unsigned i = 0;; ++i) {
    tr.set_unit(i);
    UnitResult r;
    std::ostringstream digest;
    Frame unit(tr, "unit");
    bool threw = false;
    try {
      unit_fn(seeds, tr, checks, r, digest);
    } catch (const std::exception& e) {
      checks.expect(false, std::string("unit threw: ") + e.what());
      threw = true;
    }
    r.wall_s = unit.close();
    r.digest = digest.str();
    if (i == 0)
      out.digest = r.digest;
    else
      checks.expect(r.digest == out.digest,
                    "unit " + std::to_string(i) + " digest differs");
    out.units.push_back(std::move(r));
    if (threw) break;
    const unsigned n = i + 1;
    if (exact_units != 0) {
      if (n >= exact_units) break;
      continue;
    }
    const double elapsed = seconds_between(start, Clock::now());
    if (n >= min_units && elapsed + out.units.back().wall_s > budget_s)
      break;
  }
  return out;
}

// --- Reporting --------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

template <class F>
std::vector<double> collect(const std::vector<UnitResult>& units, F f) {
  std::vector<double> v;
  for (const auto& u : units) v.push_back(f(u));
  return v;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Median across units of each step, over the steps every unit has.
std::vector<double> step_medians(const std::vector<UnitResult>& units,
                                 std::vector<double> UnitResult::*steps) {
  std::size_t n = (units.front().*steps).size();
  for (const auto& u : units) n = std::min(n, (u.*steps).size());
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = median(collect(units, [&](auto& u) { return (u.*steps)[i]; }));
  return out;
}

std::vector<Metric> end_to_end(const RunOutcome& run) {
  const auto& u = run.units;
  std::vector<double> ticks_us = step_medians(u, &UnitResult::run_steps);
  for (double& t : ticks_us) t *= 1e6;
  const std::string per_step =
      "sum of per-step medians over " + std::to_string(u.size()) + " units";
  const std::string n_ticks =
      std::to_string(ticks_us.size()) + " ticks (per-tick medians)";
  const std::string n_units = "median of " + std::to_string(u.size());
  std::vector<Metric> m;
  m.push_back({"setup_s", sum(step_medians(u, &UnitResult::setup_steps)),
               "s", per_step});
  m.push_back({"run_s", sum(step_medians(u, &UnitResult::run_steps)), "s",
               per_step});
  m.push_back({"peak_rss_mib", peak_rss_mib(), "MiB", "whole process"});
  m.push_back({"ctl_ops_per_s",
               ratio(u.front().ctl_ops,
                     sum(step_medians(u, &UnitResult::ops_steps))),
               "ops/s", per_step});
  if (supports_percentile(ticks_us.size(), 0.50))
    m.push_back({"tick_p50_us", percentile(ticks_us, 0.50), "us", n_ticks});
  if (supports_percentile(ticks_us.size(), 0.99))
    m.push_back({"tick_p99_us", percentile(ticks_us, 0.99), "us", n_ticks});
  m.push_back({"snapshot_save_ms",
               median(collect(u, [](auto& r) { return r.save_ms; })), "ms",
               n_units});
  m.push_back({"snapshot_restore_ms",
               median(collect(u, [](auto& r) { return r.restore_ms; })),
               "ms", n_units});
  return m;
}

/// Self time of each span name: its duration minus its direct children's.
std::map<std::string, std::pair<double, double>> self_times(
    const std::vector<Span>& spans) {
  std::vector<double> child(spans.size(), 0.0);
  for (const auto& s : spans)
    if (s.parent >= 0) child[s.parent] += s.end_us - s.start_us;
  std::map<std::string, std::pair<double, double>> out;  // total, self (us)
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& [total, self] = out[spans[i].name];
    const double d = spans[i].end_us - spans[i].start_us;
    total += d;
    self += d - child[i];
  }
  return out;
}

std::vector<Metric> per_layer(const RunOutcome& untraced,
                              const RunOutcome& traced, const Tracer& tr) {
  const auto& u = traced.units;
  const UnitResult& first = u.front();
  const auto c = [&](const char* k) -> double {
    const auto it = first.counters.find(k);
    return it == first.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto med = [&](auto f) { return median(collect(u, f)); };
  const double events = static_cast<double>(first.sim_events);
  const double all_events = c("sim.events");
  const double requests = static_cast<double>(first.requests);
  const double gq_resolved = c("ctl.admitted_guaranteed") + c("ctl.gave_up");
  const auto selfs = self_times(tr.spans());
  double frame_self_us = 0.0;
  for (const char* f : {"unit", "setup", "sim.run", "ctl.run"}) {
    const auto it = selfs.find(f);
    if (it != selfs.end()) frame_self_us += it->second.second;
  }
  const double untraced_wall =
      median(collect(untraced.units, [](auto& r) { return r.wall_s; }));
  const double traced_wall = med([](auto& r) { return r.wall_s; });

  std::vector<Metric> m;
  m.push_back({"network.build_ms", med([](auto& r) { return r.build_ms; }),
               "ms", ""});
  m.push_back({"network.route_ms", med([](auto& r) { return r.route_ms; }),
               "ms", ""});
  m.push_back({"network.route_table_mib", first.route_table_mib, "MiB", ""});
  m.push_back({"subnet.configure_ms",
               med([](auto& r) { return r.configure_ms; }), "ms", ""});
  m.push_back({"sim.construct_ms",
               med([](auto& r) { return r.construct_ms; }), "ms", ""});
  m.push_back({"qos.fill_ms", med([](auto& r) { return r.fill_ms; }), "ms",
               ""});
  m.push_back({"qos.requests", requests, "count", ""});
  m.push_back({"qos.reject_ratio",
               ratio(static_cast<double>(first.rejected), requests), "ratio",
               ""});
  m.push_back({"qos.us_per_request", med([](auto& r) {
                 return ratio(1e3 * r.fill_ms,
                              static_cast<double>(r.requests));
               }),
               "us", ""});
  m.push_back({"qos.miss_ratio",
               ratio(static_cast<double>(first.qos_misses),
                     static_cast<double>(first.qos_rx)),
               "ratio", ""});
  for (const char* k : {"tm.allocations", "tm.shares", "tm.releases",
                        "tm.defrag_runs", "tm.defrag_moves"})
    m.push_back({k, c(k), "count", ""});
  m.push_back({"tm.share_ratio",
               ratio(c("tm.shares"), c("tm.allocations") + c("tm.shares")),
               "ratio", ""});
  m.push_back({"sim.events", events, "count", ""});
  m.push_back({"sim.ns_per_event", med([](auto& r) {
                 return ratio(1e6 * r.sim_run_ms,
                              static_cast<double>(r.sim_events));
               }),
               "ns", ""});
  m.push_back({"queue.pushes_per_event", ratio(c("queue.pushes"), all_events),
               "ratio", ""});
  m.push_back({"queue.overflow_share",
               ratio(c("queue.overflow_pushes"), c("queue.pushes")), "ratio",
               ""});
  const auto peak = first.gauges.find("queue.peak_size");
  m.push_back({"queue.peak_size",
               peak == first.gauges.end() ? 0.0 : peak->second, "count", ""});
  m.push_back({"arb.decisions_per_event", ratio(c("arb.decisions"), all_events),
               "ratio", ""});
  m.push_back({"arb.skips_per_decision",
               ratio(c("arb.high_skips") + c("arb.low_skips"),
                     c("arb.decisions")),
               "ratio", ""});
  m.push_back({"arb.low_pick_share",
               ratio(c("arb.low_picks"), c("arb.low_picks") + c("arb.high_picks")),
               "ratio", ""});
  m.push_back({"port.credit_stalls", c("port.credit_stalls"), "count", ""});
  m.push_back({"xbar.rounds_per_grant", ratio(c("xbar.rounds"), c("xbar.grants")),
               "ratio", ""});
  m.push_back({"xbar.iterations_per_grant",
               ratio(c("xbar.iterations"), c("xbar.grants")), "ratio", ""});
  m.push_back({"xbar.blocked_output_ratio",
               ratio(c("xbar.blocked_output"),
                     c("xbar.blocked_output") + c("xbar.grants")),
               "ratio", ""});
  m.push_back({"ctl.setups",
               c("ctl.admitted_guaranteed") + c("ctl.admitted_best_effort"),
               "count", ""});
  for (const char* k :
       {"ctl.teardowns", "ctl.modifies", "ctl.retries", "ctl.audits"})
    m.push_back({k, c(k), "count", ""});
  m.push_back({"ctl.live_peak", static_cast<double>(first.live_peak), "count",
               ""});
  m.push_back({"ctl.fail_ratio",
               ratio(c("ctl.false_rejects") + c("ctl.gave_up"), gq_resolved),
               "ratio", ""});
  m.push_back({"ctl.audit_tick_share", med([](auto& r) {
                 return ratio(r.audit_tick_ms, 1e3 * r.run_s);
               }),
               "ratio", ""});
  m.push_back({"ctl.audit_full_ms",
               med([](auto& r) { return r.audit_full_ms; }), "ms", ""});
  m.push_back({"snapshot.bytes", static_cast<double>(first.snapshot_bytes),
               "B", ""});
  m.push_back({"snapshot.bytes_per_live_conn",
               ratio(static_cast<double>(first.snapshot_bytes),
                     static_cast<double>(first.live_final)),
               "B", ""});
  m.push_back({"bench.self_ms",
               frame_self_us / 1e3 / static_cast<double>(u.size()), "ms", ""});
  m.push_back({"trace.overhead_ratio", traced_wall / untraced_wall - 1.0,
               "ratio", ""});
  return m;
}

void write_trace(const std::string& path, const std::string& workload,
                 std::uint64_t seed, const Tracer& tr) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out.precision(17);
  out << "{\"workload\":\"" << workload << "\",\"seed\":" << seed
      << ",\"spans\":[";
  for (std::size_t i = 0; i < tr.spans().size(); ++i) {
    const Span& s = tr.spans()[i];
    out << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"parent\":" << s.parent << ",\"run\":\"" << workload << '/'
        << seed << '/' << s.unit << "\",\"start_us\":" << s.start_us
        << ",\"end_us\":" << s.end_us << ",\"events\":" << s.events << '}';
  }
  out << "],\"counters\":[";
  for (std::size_t i = 0; i < tr.marks().size(); ++i) {
    const CounterMark& m = tr.marks()[i];
    out << (i ? ",\n" : "\n") << "{\"span\":" << m.span << ",\"values\":{";
    bool first = true;
    for (const auto& [k, v] : m.counters) {
      out << (first ? "" : ",") << '"' << k << "\":" << v;
      first = false;
    }
    out << "}}";
  }
  out << "]}\n";
}

void print_self_times(const Tracer& tr, unsigned units) {
  std::printf("self time per unit (traced run, %u unit%s):\n", units,
              units == 1 ? "" : "s");
  std::printf("  %-20s %12s %12s %8s\n", "span", "total_ms", "self_ms",
              "calls");
  std::map<std::string, std::uint64_t> calls;
  for (const auto& s : tr.spans()) ++calls[s.name];
  for (const auto& [name, ts] : self_times(tr.spans()))
    std::printf("  %-20s %12.3f %12.3f %8llu\n", name.c_str(),
                ts.first / 1e3 / units, ts.second / 1e3 / units,
                static_cast<unsigned long long>(calls[name] / units));
}

void print_result(const Checks& checks, const std::vector<Metric>& metrics) {
  for (const auto& m : metrics)
    std::printf("%-28s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  for (const auto& f : checks.failures)
    std::printf("CHECK FAILED: %s\n", f.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              checks.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(checks.attempted),
              static_cast<unsigned long long>(checks.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Cli cli(argc, argv);
    const std::string name = cli.get("workload", "");
    const auto seed_arg = cli.get_int("seed", 1);
    const auto seconds = cli.get_double("seconds", 10.0);
    const auto trace = cli.get_int("trace", 0);
    const std::string trace_out = cli.get("trace-out", "");
    const auto wl = find_workload(name);
    if (!wl) {
      std::cerr << "unknown --workload '" << name
                << "' (expected paper_fig4|fattree4096|churn_saturated)\n";
      return 2;
    }
    if (seed_arg < 0 || seconds <= 0.0 || (trace != 0 && trace != 1)) {
      std::cerr << "--seed must be >= 0, --seconds > 0, --trace 0 or 1\n";
      return 2;
    }
    if (!cli.unused_flags().empty()) {
      std::cerr << "unknown flags: " << cli.unused_flags() << '\n';
      return 2;
    }
    const auto seed = static_cast<std::uint64_t>(seed_arg);
    const Seeds seeds = derive_seeds(seed);
    Checks checks;

    if (trace == 0) {
      Tracer off(false, Clock::now());
      const auto run =
          run_units(*wl, seeds, off, checks, seconds, kMinUnits, 0);
      std::printf("workload %s seed %llu: %zu units\ndigest %016llx\n%s",
                  name.c_str(), static_cast<unsigned long long>(seed),
                  run.units.size(),
                  static_cast<unsigned long long>(fnv1a(run.digest)),
                  run.digest.c_str());
      print_result(checks, end_to_end(run));
    } else {
      Tracer off(false, Clock::now());
      const auto untraced =
          run_units(*wl, seeds, off, checks, seconds / 2.0, 1, 0);
      Tracer on(true, Clock::now());
      const auto traced =
          run_units(*wl, seeds, on, checks, 0.0, 1,
                    static_cast<unsigned>(untraced.units.size()));
      checks.expect(traced.digest == untraced.digest,
                    "traced digest differs from untraced");
      std::printf("workload %s seed %llu (traced): %zu units\n"
                  "digest %016llx\n%s",
                  name.c_str(), static_cast<unsigned long long>(seed),
                  traced.units.size(),
                  static_cast<unsigned long long>(fnv1a(traced.digest)),
                  traced.digest.c_str());
      print_self_times(on, static_cast<unsigned>(traced.units.size()));
      if (!trace_out.empty()) write_trace(trace_out, name, seed, on);
      print_result(checks, per_layer(untraced, traced, on));
    }
    return checks.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }
}
