// Experiment E8 — micro-benchmarks (google-benchmark) of the hot operations:
// the fill algorithm's free-set search, allocate/release/defragment on a
// TableManager, the IBA arbiter's per-packet decision, and the up*/down*
// route computation. These are the operations a subnet manager (tables) and
// a switch (arbiter) would run in production.
//
// With --json, runs the regression harness instead: wall-clock hot-path
// rates written as an obs::Report to BENCH_micro.json (override with
// --out) so CI can archive a comparable artifact per commit (docs/PERF.md
// explains how to read it).
//
// Harness sections (report figures):
//  * queue      — the event queue alone, under a fig4-shaped event stream
//                 (steady-state depth ~20k, the paper network's live event
//                 count). The headline `speedup` is the timing wheel's
//                 events/sec over a std::priority_queue replay of the same
//                 stream (HeapQueue below, the pre-wheel design).
//  * arbiter    — arbitration decisions/sec on dense and sparse tables.
//  * series     — the SeriesRecorder hot path: deliveries/sec through
//                 record_delivery + windowed commits, in a regime without
//                 decimation and one that forces repeated decimations.
//  * snapshot_roundtrip — the crash-consistent control-plane snapshot
//                 (control/snapshot.hpp): save_world / restore_world /
//                 audit_full wall cost and blob size at small (1k) and
//                 large (100k) live-connection populations.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <queue>
#include <string>
#include <string_view>
#include <vector>

#include "arbtable/fill_algorithm.hpp"
#include "arbtable/table_manager.hpp"
#include "control/snapshot.hpp"
#include "iba/arbiter.hpp"
#include "network/graph.hpp"
#include "network/routing.hpp"
#include "network/topology.hpp"
#include "qos/admission.hpp"
#include "qos/traffic_classes.hpp"
#include "subnet/subnet_manager.hpp"
#include "obs/report.hpp"
#include "obs/series.hpp"
#include "obs/telemetry.hpp"
#include "sim/event_queue.hpp"
#include "util/cli.hpp"
#include "util/json_writer.hpp"
#include "util/rng.hpp"

using namespace ibarb;

namespace {

arbtable::Requirement req_for_distance(unsigned d) {
  arbtable::Requirement r;
  r.distance = d;
  r.entries = iba::kArbTableEntries / d;
  r.weight_per_entry = 200;
  r.total_weight = r.entries * r.weight_per_entry;
  return r;
}

void BM_FindFreeSet(benchmark::State& state) {
  const auto distance = static_cast<unsigned>(state.range(0));
  // Half-full table: a realistic search.
  iba::ArbTable table{};
  util::Xoshiro256 rng(7);
  for (auto& e : table)
    if (rng.chance(0.5)) e = iba::ArbTableEntry{0, 1};
  for (auto _ : state) {
    auto set = arbtable::find_free_set(table, distance,
                                       arbtable::FillPolicy::kBitReversal);
    benchmark::DoNotOptimize(set);
  }
}
BENCHMARK(BM_FindFreeSet)->Arg(2)->Arg(8)->Arg(64);

void BM_AllocateRelease(benchmark::State& state) {
  arbtable::TableManager::Config cfg;
  cfg.reservable_fraction = 1.0;
  arbtable::TableManager m(cfg);
  const auto req = req_for_distance(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    const auto h = m.allocate(1, req, 0.001);
    benchmark::DoNotOptimize(h);
    m.release(*h, req, 0.001);
  }
}
BENCHMARK(BM_AllocateRelease)->Arg(2)->Arg(8)->Arg(64);

void BM_ChurnWithDefrag(benchmark::State& state) {
  arbtable::TableManager::Config cfg;
  cfg.reservable_fraction = 1.0;
  cfg.defrag_on_release = state.range(0) != 0;
  arbtable::TableManager m(cfg);
  util::Xoshiro256 rng(11);
  struct Live {
    arbtable::SeqHandle h;
    arbtable::Requirement r;
  };
  std::vector<Live> live;
  constexpr unsigned kDistances[] = {2, 4, 8, 16, 32, 64};
  for (auto _ : state) {
    if (!live.empty() && rng.chance(0.5)) {
      const auto i = rng.below(live.size());
      m.release(live[i].h, live[i].r, 0.001);
      live[i] = live.back();
      live.pop_back();
    } else {
      const auto r = req_for_distance(kDistances[rng.below(6)]);
      if (const auto h = m.allocate(1, r, 0.001))
        live.push_back(Live{*h, r});
    }
  }
}
BENCHMARK(BM_ChurnWithDefrag)->Arg(0)->Arg(1);

void BM_ArbiterDecision(benchmark::State& state) {
  // Fully programmed table, several competing VLs — the per-packet cost a
  // switch output port pays.
  iba::VlArbitrationTable t;
  for (unsigned i = 0; i < iba::kArbTableEntries; ++i)
    t.high()[i] = iba::ArbTableEntry{static_cast<iba::VirtualLane>(i % 10),
                                     static_cast<std::uint8_t>(100 + i % 50)};
  iba::VlArbiter arb(t);
  iba::ReadyBytes ready{};
  for (unsigned vl = 0; vl < 10; vl += 2) ready[vl] = 282;
  for (auto _ : state) {
    auto d = arb.arbitrate(ready);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_ArbiterDecision);

void BM_ArbiterSparse(benchmark::State& state) {
  // Worst case: only one lightly-weighted VL ready, most entries skipped.
  iba::VlArbitrationTable t;
  for (unsigned i = 0; i < iba::kArbTableEntries; i += 16)
    t.high()[i] = iba::ArbTableEntry{3, 10};
  iba::VlArbiter arb(t);
  iba::ReadyBytes ready{};
  ready[3] = 4122;
  for (auto _ : state) {
    auto d = arb.arbitrate(ready);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_ArbiterSparse);

void BM_UpDownRoutes(benchmark::State& state) {
  network::IrregularSpec spec;
  spec.switches = static_cast<unsigned>(state.range(0));
  spec.seed = 5;
  const auto g = network::gen::irregular(spec);
  for (auto _ : state) {
    auto routes = network::compute_routes(g);
    benchmark::DoNotOptimize(routes);
  }
  state.SetLabel(std::to_string(g.hosts().size()) + " hosts");
}
BENCHMARK(BM_UpDownRoutes)->Arg(8)->Arg(16)->Arg(64)->Unit(benchmark::kMicrosecond);

void BM_Defragment(benchmark::State& state) {
  // Measure one defrag pass over a fragmented table (rebuild each time).
  util::Xoshiro256 rng(13);
  constexpr unsigned kDistances[] = {2, 4, 8, 16, 32, 64};
  for (auto _ : state) {
    state.PauseTiming();
    arbtable::TableManager::Config cfg;
    cfg.reservable_fraction = 1.0;
    cfg.defrag_on_release = false;
    arbtable::TableManager m(cfg);
    std::vector<std::pair<arbtable::SeqHandle, arbtable::Requirement>> live;
    for (int i = 0; i < 40; ++i) {
      if (!live.empty() && rng.chance(0.4)) {
        const auto k = rng.below(live.size());
        m.release(live[k].first, live[k].second, 0.001);
        live[k] = live.back();
        live.pop_back();
      } else {
        const auto r = req_for_distance(kDistances[rng.below(6)]);
        if (const auto h = m.allocate(1, r, 0.001)) live.emplace_back(*h, r);
      }
    }
    state.ResumeTiming();
    m.defragment();
  }
}
BENCHMARK(BM_Defragment);

// --- The --json regression harness -----------------------------------------

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Inter-event gap drawn from a fig4-shaped mixture: serialization and
/// crossbar completions land tens to hundreds of cycles out, link-level
/// deliveries a few thousand, CBR regenerations tens of thousands, and a
/// trickle beyond the 2^16-cycle wheel horizon exercises the overflow heap.
iba::Cycle fig4_delta(util::Xoshiro256& rng) {
  const double r = rng.uniform();
  if (r < 0.45) return static_cast<iba::Cycle>(rng.between(8, 600));
  if (r < 0.80) return static_cast<iba::Cycle>(rng.between(600, 4000));
  if (r < 0.99) return static_cast<iba::Cycle>(rng.between(4000, 60000));
  return static_cast<iba::Cycle>(rng.between(70000, 300000));
}

/// The pre-wheel event queue, kept only as the `queue` figure's baseline: a
/// std::priority_queue of whole Events ordered by (time, seq), with the same
/// monotone tie-break stamp as sim::EventQueue, so both pop the same order.
class HeapQueue {
 public:
  void push(sim::Event e) {
    e.seq = next_seq_++;
    heap_.push(std::move(e));
  }
  bool empty() const { return heap_.empty(); }
  sim::Event pop() {
    // priority_queue exposes the top read-only; moving out of it is safe
    // (pop() only shuffles elements, never reads the payload).
    sim::Event e = std::move(const_cast<sim::Event&>(heap_.top()));
    heap_.pop();
    return e;
  }

 private:
  struct Later {
    bool operator()(const sim::Event& a, const sim::Event& b) const noexcept {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };
  std::priority_queue<sim::Event, std::vector<sim::Event>, Later> heap_;
  std::uint64_t next_seq_ = 0;
};

struct QueueResult {
  double push_ns = 0.0;        ///< Mean push cost while filling to depth.
  double pop_ns = 0.0;         ///< Mean pop cost while draining.
  double events_per_sec = 0.0; ///< Steady-state pop+reschedule throughput.
  std::uint64_t checksum = 0;  ///< Order-sensitive digest of popped events.
};

template <class Queue>
QueueResult measure_queue_once(std::size_t depth, std::uint64_t events,
                               std::uint64_t seed) {
  QueueResult res;
  // Gaps are pre-drawn into a ring so the timed loops measure the queue, not
  // the random-number generator; the ring fits in L2 and is read in order.
  constexpr std::size_t kRing = 1u << 16;
  static_assert((kRing & (kRing - 1)) == 0);
  std::vector<iba::Cycle> deltas(kRing);
  {
    util::Xoshiro256 rng(seed);
    for (auto& d : deltas) d = fig4_delta(rng);
  }
  std::size_t ring = 0;
  const auto next_delta = [&] { return deltas[ring++ & (kRing - 1)]; };
  Queue q;
  iba::Cycle now = 0;

  const auto make_event = [&](iba::Cycle t) {
    sim::Event e;
    e.time = t;
    e.type = sim::EventType::kLinkDeliver;
    e.aux = static_cast<std::uint32_t>(t);
    return e;
  };

  auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < depth; ++i) q.push(make_event(now + next_delta()));
  res.push_ns = seconds_since(t0) * 1e9 / static_cast<double>(depth);

  // Steady state: pop the earliest event and schedule a successor, the
  // hold-and-regenerate pattern every simulated packet follows.
  t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < events; ++i) {
    const sim::Event e = q.pop();
    now = e.time;
    res.checksum = res.checksum * 1099511628211ull + (e.time ^ e.seq);
    q.push(make_event(now + next_delta()));
  }
  res.events_per_sec = static_cast<double>(events) / seconds_since(t0);

  t0 = std::chrono::steady_clock::now();
  while (!q.empty()) {
    const sim::Event e = q.pop();
    res.checksum = res.checksum * 1099511628211ull + (e.time ^ e.seq);
  }
  res.pop_ns = seconds_since(t0) * 1e9 / static_cast<double>(depth);
  return res;
}

/// Best of `reps` runs: wall-clock microbenchmarks are noisy downward only
/// (scheduling, frequency ramps), so the fastest run is the least-disturbed
/// estimate. The pop-order checksum must agree across every run.
template <class Queue>
QueueResult measure_queue(std::size_t depth, std::uint64_t events,
                          std::uint64_t seed, unsigned reps) {
  QueueResult best = measure_queue_once<Queue>(depth, events, seed);
  for (unsigned r = 1; r < reps; ++r) {
    const QueueResult run = measure_queue_once<Queue>(depth, events, seed);
    if (run.checksum != best.checksum) {
      std::cerr << "error: queue replay checksum varies across runs\n";
      std::exit(2);
    }
    best.events_per_sec = std::max(best.events_per_sec, run.events_per_sec);
    best.push_ns = std::min(best.push_ns, run.push_ns);
    best.pop_ns = std::min(best.pop_ns, run.pop_ns);
  }
  return best;
}

double measure_arbiter(const iba::VlArbitrationTable& t,
                       const iba::ReadyBytes& ready, std::uint64_t decisions) {
  iba::VlArbiter arb(t);
  std::uint64_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < decisions; ++i) {
    const auto d = arb.arbitrate(ready);
    sink += d ? d->vl : 0;
  }
  const double secs = seconds_since(t0);
  // Keep the loop observable without google-benchmark's DoNotOptimize.
  volatile std::uint64_t keep = sink;
  (void)keep;
  return static_cast<double>(decisions) / secs;
}

struct SeriesBenchResult {
  double deliveries_per_sec = 0.0;  ///< record_delivery + commit throughput.
  double samples_per_sec = 0.0;     ///< Committed window boundaries per sec.
  std::uint64_t boundaries = 0;     ///< Boundaries driven through the run.
  std::uint64_t decimations = 0;    ///< Ring-halvings the run triggered.
};

/// Drives a standalone SeriesRecorder the way the simulator does: synthetic
/// delivery times sweep [0, sample_every*boundaries), advancing the window
/// clock before each record. `boundaries` below the ring capacity (512)
/// measures the plain sampling path; far above it, the decimation path.
SeriesBenchResult measure_series(std::uint64_t deliveries,
                                 std::uint64_t sample_every,
                                 std::uint64_t boundaries) {
  obs::TelemetryRegistry reg;
  auto& injected = reg.counter("micro.injected");
  obs::SeriesRecorder::Config sc;
  sc.sample_every = sample_every;
  obs::SeriesRecorder rec(reg, sc);
  constexpr std::uint32_t kConns = 8;
  for (std::uint32_t c = 0; c < kConns; ++c)
    rec.note_connection(c, static_cast<iba::ServiceLevel>(c % 10),
                        /*qos=*/true, /*deadline=*/5000);

  const iba::Cycle end = sample_every * boundaries;
  std::uint64_t ring = 0;
  constexpr std::size_t kRing = 1u << 12;
  std::vector<iba::Cycle> delays(kRing);
  {
    util::Xoshiro256 rng(29);
    for (auto& d : delays) d = rng.between(100, 6000);
  }

  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < deliveries; ++i) {
    const iba::Cycle t = i * end / deliveries;
    if (t > rec.next_due()) rec.advance_to(t);
    injected.inc();
    rec.record_delivery(static_cast<std::uint32_t>(i % kConns),
                        static_cast<iba::ServiceLevel>(i % 10),
                        delays[ring++ & (kRing - 1)], /*contracted=*/5000);
  }
  const auto data = rec.finalize(end);
  const double secs = seconds_since(t0);

  SeriesBenchResult res;
  res.deliveries_per_sec = static_cast<double>(deliveries) / secs;
  res.samples_per_sec = static_cast<double>(boundaries) / secs;
  res.boundaries = boundaries;
  res.decimations = data.decimations;
  return res;
}

struct SnapshotBenchResult {
  std::uint64_t connections = 0;   ///< Live connections actually admitted.
  std::uint64_t bytes = 0;         ///< Sealed snapshot size.
  double save_ms = 0.0;            ///< save_world: serialize + CRC + seal.
  double restore_ms = 0.0;         ///< restore_world: parse, apply, audit,
                                   ///< re-serialize bit-exactness proof.
  double audit_ms = 0.0;           ///< One standalone audit_full pass.
};

/// Cost of a crash-consistent control-plane snapshot at a given live
/// population: a 64-host star fabric is filled with `target` tiny guaranteed
/// connections (round-robin pairs spread the per-port load), then the
/// save_world / restore_world / audit_full wall costs are measured.
SnapshotBenchResult measure_snapshot_roundtrip(std::uint64_t target) {
  constexpr unsigned kHosts = 64;
  network::FabricGraph graph;
  const iba::Link link{iba::LinkRate::k4x, 2};
  const auto sw = graph.add_switch(kHosts);
  for (unsigned h = 0; h < kHosts; ++h) {
    const auto host = graph.add_host();
    graph.connect(host, 0, sw, static_cast<iba::PortIndex>(h), link);
  }
  subnet::SubnetManager sm(graph);
  qos::AdmissionControl::Config ac;
  ac.seed = 41;
  qos::AdmissionControl admission(graph, sm.routes(), qos::paper_catalogue(),
                                  ac);

  const auto hosts = graph.hosts();
  // Distance-64 SLs: one table entry per sequence and weight-1 sharing, so
  // six-figure live populations fit the 64-entry tables.
  constexpr iba::ServiceLevel kSls[] = {6, 7, 8, 9};
  SnapshotBenchResult res;
  for (std::uint64_t i = 0; res.connections < target; ++i) {
    if (i > target * 2) break;  // table space exhausted: report what fits
    qos::ConnectionRequest req;
    req.src_host = hosts[i % kHosts];
    req.dst_host = hosts[(i + 1 + i / kHosts) % kHosts];
    if (req.src_host == req.dst_host) continue;
    req.sl = kSls[i % std::size(kSls)];
    req.max_distance =
        qos::find_sl(admission.catalogue(), req.sl)->max_distance;
    req.wire_mbps = 0.05;  // weight-1 requirements: sharing packs densely
    if (admission.request(req)) ++res.connections;
  }

  const control::World world{&admission, nullptr, nullptr, nullptr};
  auto t0 = std::chrono::steady_clock::now();
  const auto blob = control::save_world(/*now=*/0, /*run_seed=*/41, world);
  res.save_ms = seconds_since(t0) * 1e3;
  res.bytes = blob.size();

  qos::AdmissionControl loaded(graph, sm.routes(), qos::paper_catalogue(),
                               ac);
  const control::World fresh{&loaded, nullptr, nullptr, nullptr};
  t0 = std::chrono::steady_clock::now();
  (void)control::restore_world(blob, /*run_seed=*/41, fresh);
  res.restore_ms = seconds_since(t0) * 1e3;

  t0 = std::chrono::steady_clock::now();
  std::string why;
  if (!loaded.audit_full(&why)) {
    std::cerr << "error: snapshot bench audit failed: " << why << "\n";
    std::exit(2);
  }
  res.audit_ms = seconds_since(t0) * 1e3;
  return res;
}

int run_json_harness(const util::Cli& cli) {
  (void)cli.get_bool("json", true);  // consumed; routing happened in main()
  const std::string out_path = cli.get("out", "BENCH_micro.json");
  const auto depth =
      static_cast<std::size_t>(cli.get_int("queue-depth", 20000));
  const auto queue_events =
      static_cast<std::uint64_t>(cli.get_int("queue-events", 2'000'000));
  const auto queue_reps =
      static_cast<unsigned>(cli.get_int("queue-reps", 3));
  const auto arb_decisions =
      static_cast<std::uint64_t>(cli.get_int("arb-decisions", 2'000'000));
  const auto series_deliveries = static_cast<std::uint64_t>(
      cli.get_int("series-deliveries", 2'000'000));
  const auto snapshot_small = static_cast<std::uint64_t>(
      cli.get_int("snapshot-small", 1'000));
  const auto snapshot_large = static_cast<std::uint64_t>(
      cli.get_int("snapshot-large", 100'000));
  cli.warn_unused(std::cerr);

  std::cerr << "[bench_micro] queue replay (depth " << depth << ", "
            << queue_events << " events, best of " << queue_reps
            << "), wheel and heap baseline...\n";
  const QueueResult wheel = measure_queue<sim::EventQueue>(
      depth, queue_events, /*seed=*/2027, queue_reps);
  const QueueResult heap = measure_queue<HeapQueue>(
      depth, queue_events, /*seed=*/2027, queue_reps);
  const bool order_match = wheel.checksum == heap.checksum;

  std::cerr << "[bench_micro] arbiter decision rates...\n";
  iba::VlArbitrationTable dense;
  for (unsigned i = 0; i < iba::kArbTableEntries; ++i)
    dense.set_high_entry(
        i, iba::ArbTableEntry{static_cast<iba::VirtualLane>(i % 10),
                              static_cast<std::uint8_t>(100 + i % 50)});
  iba::ReadyBytes dense_ready{};
  for (unsigned vl = 0; vl < 10; vl += 2) dense_ready[vl] = 282;

  iba::VlArbitrationTable sparse;
  for (unsigned i = 0; i < iba::kArbTableEntries; i += 16)
    sparse.set_high_entry(i, iba::ArbTableEntry{3, 10});
  iba::ReadyBytes sparse_ready{};
  sparse_ready[3] = 4122;

  const double dense_rate = measure_arbiter(dense, dense_ready, arb_decisions);
  const double sparse_rate =
      measure_arbiter(sparse, sparse_ready, arb_decisions);

  std::cerr << "[bench_micro] series recorder (" << series_deliveries
            << " deliveries) x2 regimes...\n";
  // 256 boundaries stay under the 512-window ring: the pure sampling path.
  const SeriesBenchResult series_flat =
      measure_series(series_deliveries, /*sample_every=*/4096,
                     /*boundaries=*/256);
  // 16384 boundaries force ~5 decimation passes over a full ring.
  const SeriesBenchResult series_decim =
      measure_series(series_deliveries, /*sample_every=*/4096,
                     /*boundaries=*/16384);

  std::cerr << "[bench_micro] snapshot round-trip at " << snapshot_small
            << " and " << snapshot_large << " live connections...\n";
  const SnapshotBenchResult snap_small =
      measure_snapshot_roundtrip(snapshot_small);
  const SnapshotBenchResult snap_large =
      measure_snapshot_roundtrip(snapshot_large);

  obs::Report report("bench_micro");
  report.config("queue_depth", static_cast<std::uint64_t>(depth));
  report.config("queue_events", queue_events);
  report.config("queue_reps", static_cast<std::uint64_t>(queue_reps));
  report.config("arb_decisions", arb_decisions);
  report.figure("queue", [&](util::JsonWriter& w) {
    const auto queue_obj = [&w](const QueueResult& r) {
      w.begin_object();
      w.kv("events_per_sec", r.events_per_sec);
      w.kv("push_ns", r.push_ns);
      w.kv("pop_ns", r.pop_ns);
      w.end_object();
    };
    w.begin_object();
    w.kv("workload", "fig4-shaped event stream");
    w.kv("depth", static_cast<std::uint64_t>(depth));
    w.kv("events", queue_events);
    w.key("wheel");
    queue_obj(wheel);
    w.key("heap");
    queue_obj(heap);
    w.kv("speedup", wheel.events_per_sec / heap.events_per_sec);
    w.kv("pop_order_identical", order_match);
    w.end_object();
  });
  report.figure("arbiter", [&](util::JsonWriter& w) {
    w.begin_object();
    w.kv("dense_decisions_per_sec", dense_rate);
    w.kv("sparse_decisions_per_sec", sparse_rate);
    w.end_object();
  });
  report.figure("series", [&](util::JsonWriter& w) {
    const auto series_obj = [&w](const SeriesBenchResult& r) {
      w.begin_object();
      w.kv("deliveries_per_sec", r.deliveries_per_sec);
      w.kv("samples_per_sec", r.samples_per_sec);
      w.kv("boundaries", r.boundaries);
      w.kv("decimations", r.decimations);
      w.end_object();
    };
    w.begin_object();
    w.kv("deliveries", series_deliveries);
    w.key("flat");
    series_obj(series_flat);
    w.key("decimating");
    series_obj(series_decim);
    // >1 means the decimation path costs measurable per-delivery overhead.
    w.kv("decimation_slowdown",
         series_flat.deliveries_per_sec / series_decim.deliveries_per_sec);
    w.end_object();
  });
  report.figure("snapshot_roundtrip", [&](util::JsonWriter& w) {
    const auto snap_obj = [&w](const SnapshotBenchResult& r) {
      w.begin_object();
      w.kv("connections", r.connections);
      w.kv("bytes", r.bytes);
      w.kv("save_ms", r.save_ms);
      w.kv("restore_ms", r.restore_ms);
      w.kv("audit_ms", r.audit_ms);
      w.end_object();
    };
    w.begin_object();
    w.key("small");
    snap_obj(snap_small);
    w.key("large");
    snap_obj(snap_large);
    w.end_object();
  });

  if (out_path == "-") {
    report.write(std::cout, /*pretty=*/true);
  } else {
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      std::cerr << "error: cannot write " << out_path << "\n";
      return 1;
    }
    report.write(out, /*pretty=*/true);
    std::cout << "wrote " << out_path << "\n";
  }

  std::cout << "queue   wheel " << wheel.events_per_sec / 1e6 << " Mev/s, heap "
            << heap.events_per_sec / 1e6
            << " Mev/s, speedup " << wheel.events_per_sec / heap.events_per_sec
            << "x, order " << (order_match ? "identical" : "DIVERGED") << "\n";
  std::cout << "arbiter dense " << dense_rate / 1e6 << " Mdec/s, sparse "
            << sparse_rate / 1e6 << " Mdec/s\n";
  std::cout << "series  flat " << series_flat.deliveries_per_sec / 1e6
            << " Mdlv/s, decimating "
            << series_decim.deliveries_per_sec / 1e6 << " Mdlv/s ("
            << series_decim.decimations << " decimations)\n";
  std::cout << "snapshot " << snap_small.connections << " conns "
            << snap_small.bytes / 1024 << " KiB save " << snap_small.save_ms
            << " ms restore " << snap_small.restore_ms << " ms; "
            << snap_large.connections << " conns "
            << snap_large.bytes / 1024 << " KiB save " << snap_large.save_ms
            << " ms restore " << snap_large.restore_ms << " ms\n";
  return order_match ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::string_view(argv[i]) == "--json")
      return util::run_main(argc, argv, run_json_harness);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
