#include "qos/admission.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>

namespace ibarb::qos {

namespace {

std::uint64_t port_key(const network::PortRef& port) {
  return static_cast<std::uint64_t>(port.node) * 256 + port.port;
}

std::string port_name(iba::NodeId node, unsigned port) {
  return "node " + std::to_string(node) + " port " + std::to_string(port);
}

/// Shedding order of a traffic class: CH first, then BE, then PBE. The
/// guaranteed classes (DBTS, DB) are never shed and rank -1.
int shed_rank(TrafficCategory c) {
  switch (c) {
    case TrafficCategory::kCh: return 0;
    case TrafficCategory::kBe: return 1;
    case TrafficCategory::kPbe: return 2;
    case TrafficCategory::kDbts:
    case TrafficCategory::kDb: return -1;
  }
  return -1;
}

}  // namespace

AdmissionControl::AdmissionControl(const network::FabricGraph& graph,
                                   const network::Routes& routes,
                                   std::vector<SlProfile> catalogue,
                                   Config cfg)
    : graph_(graph), routes_(routes), catalogue_(std::move(catalogue)),
      cfg_(cfg) {
  // A manager for every wired output port, so program() gives all ports
  // their low-priority (best-effort) configuration even before any
  // reservation lands on them. The first pass sizes the port vector
  // exactly; the second fills it in (node, port) order.
  const auto ports_of = [this](iba::NodeId node) {
    return graph_.is_switch(node) ? graph_.port_count(node) : 1u;
  };
  std::uint32_t slots = 0;
  std::size_t wired = 0;
  node_first_slot_.reserve(graph_.node_count() + 1);
  for (iba::NodeId node = 0; node < graph_.node_count(); ++node) {
    node_first_slot_.push_back(slots);
    for (unsigned p = 0; p < ports_of(node); ++p)
      if (graph_.peer(node, static_cast<iba::PortIndex>(p))) ++wired;
    slots += ports_of(node);
  }
  node_first_slot_.push_back(slots);
  port_slots_.assign(slots, kUnwired);
  ports_.reserve(wired);

  const auto low = low_priority_config(catalogue_);
  for (iba::NodeId node = 0; node < graph_.node_count(); ++node) {
    for (unsigned p = 0; p < ports_of(node); ++p) {
      const network::PortRef port{node, static_cast<iba::PortIndex>(p)};
      if (!graph_.peer(port.node, port.port)) continue;
      arbtable::TableManager::Config mc;
      mc.link_data_mbps =
          iba::link_mbps(graph_.link(port.node, port.port).rate);
      mc.reservable_fraction = cfg_.reservable_fraction;
      mc.policy = cfg_.policy;
      mc.defrag_on_release = cfg_.defrag_on_release;
      mc.seed = cfg_.seed ^ port_key(port);
      port_slots_[node_first_slot_[node] + p] =
          static_cast<std::uint32_t>(ports_.size());
      auto& state =
          ports_.emplace_back(PortState{port, arbtable::TableManager(mc), {}});
      // Every port serves the best-effort family from its low table and
      // applies the configured high-priority limit.
      state.manager.configure_low_priority(low);
      state.manager.set_limit_of_high_priority(cfg_.limit_of_high_priority);
    }
  }
}

std::uint32_t AdmissionControl::port_index(iba::NodeId node,
                                           unsigned port) const noexcept {
  if (node >= graph_.node_count()) return kUnwired;
  const auto first = node_first_slot_[node];
  if (port >= node_first_slot_[node + 1] - first) return kUnwired;
  return port_slots_[first + port];
}

const arbtable::TableManager& AdmissionControl::port_manager(
    iba::NodeId node, iba::PortIndex port) const {
  const auto at = port_index(node, port);
  if (at == kUnwired)
    throw std::out_of_range(port_name(node, port) +
                            " is unwired: it has no arbitration table");
  return ports_[at].manager;
}

ConnectionId AdmissionControl::commit(const ConnectionRequest& req,
                                      const SlProfile& profile,
                                      iba::Cycle deadline) {
  Connection conn;
  conn.id = next_id_++;
  conn.request = req;
  conn.hops.assign(attempt_.begin(), attempt_.end());
  conn.live = true;
  conn.category = profile.category;
  conn.deadline = deadline;
  const auto& stored =
      connections_.emplace_hint(connections_.end(), conn.id, std::move(conn))
          ->second;
  index_sheddable(stored);
  ++accepted_;
  return stored.id;
}

void AdmissionControl::release_hops(const std::vector<HopReservation>& hops) {
  for (const auto& hop : hops) {
    auto& manager = state_at(hop.port).manager;
    if (hop.low_table) {
      manager.remove_low_weight(hop.vl, hop.requirement.total_weight,
                                hop.mbps);
    } else {
      manager.release(hop.handle, hop.requirement, hop.mbps);
    }
  }
}

void AdmissionControl::index_sheddable(const Connection& conn) {
  const int rank = shed_rank(conn.category);
  if (rank < 0) return;
  for (const auto& hop : conn.hops) {
    auto& ids = state_at(hop.port).sheddable[static_cast<std::size_t>(rank)];
    // A new id is the largest yet, so this appends; the search keeps a
    // restored list sorted whatever order the snapshot lists ids in.
    const auto at = std::lower_bound(ids.begin(), ids.end(), conn.id);
    if (at == ids.end() || *at != conn.id) ids.insert(at, conn.id);
  }
}

void AdmissionControl::unindex_sheddable(const Connection& conn) {
  const int rank = shed_rank(conn.category);
  if (rank < 0) return;
  for (const auto& hop : conn.hops) {
    auto& ids = state_at(hop.port).sheddable[static_cast<std::size_t>(rank)];
    const auto at = std::lower_bound(ids.begin(), ids.end(), conn.id);
    if (at != ids.end() && *at == conn.id) ids.erase(at);
  }
}

std::optional<ConnectionId> AdmissionControl::request(
    const ConnectionRequest& req) {
  const SlProfile* profile = find_sl(catalogue_, req.sl);
  if (profile == nullptr || profile->max_distance == 0)
    throw std::invalid_argument("SL is not a guaranteed-traffic class");

  const bool legacy_db = cfg_.scheme == Scheme::kLegacy &&
                         profile->category == TrafficCategory::kDb;

  attempt_.clear();
  const bool ok = routes_.for_each_port(
      req.src_host, req.dst_host, [&](const network::PortRef& port) {
        auto& manager = state_at(port).manager;
        const auto requirement = arbtable::compute_requirement(
            req.wire_mbps, manager.config().link_data_mbps, req.max_distance);
        if (!requirement) return false;
        HopReservation hop;
        hop.port = port;
        hop.requirement = *requirement;
        hop.mbps = req.wire_mbps;
        hop.vl = profile->vl;
        if (legacy_db) {
          // Prior-work scheme: DB gets only accumulated low-table weight
          // (latency structure irrelevant — no guarantee is possible there).
          hop.low_table = true;
          if (!manager.add_low_weight(profile->vl, requirement->total_weight,
                                      req.wire_mbps))
            return false;
        } else {
          const auto handle =
              manager.allocate(profile->vl, *requirement, req.wire_mbps);
          if (!handle) return false;
          hop.handle = *handle;
        }
        attempt_.push_back(hop);
        return true;
      });

  if (!ok) {
    // Roll back the hops already reserved.
    release_hops(attempt_);
    ++rejected_;
    return std::nullopt;
  }
  return commit(req, *profile,
                end_to_end_guarantee(req.max_distance,
                                     static_cast<unsigned>(attempt_.size()),
                                     cfg_.max_packet_wire_bytes));
}

std::optional<ConnectionId> AdmissionControl::request_best_effort(
    const ConnectionRequest& req) {
  const SlProfile* profile = find_sl(catalogue_, req.sl);
  if (profile == nullptr || profile->max_distance != 0)
    throw std::invalid_argument("SL is not a best-effort class");

  attempt_.clear();
  const bool ok = routes_.for_each_port(
      req.src_host, req.dst_host, [&](const network::PortRef& port) {
        auto& manager = state_at(port).manager;
        // Distance is irrelevant for the low table: the requirement only
        // shapes the accumulated weight and the bandwidth accounting.
        const auto requirement = arbtable::compute_requirement(
            req.wire_mbps, manager.config().link_data_mbps,
            iba::kArbTableEntries);
        if (!requirement ||
            !manager.add_low_weight(profile->vl, requirement->total_weight,
                                    req.wire_mbps))
          return false;
        HopReservation hop;
        hop.port = port;
        hop.requirement = *requirement;
        hop.mbps = req.wire_mbps;
        hop.vl = profile->vl;
        hop.low_table = true;
        attempt_.push_back(hop);
        return true;
      });

  if (!ok) {
    release_hops(attempt_);
    ++rejected_;
    return std::nullopt;
  }
  return commit(req, *profile, 0);  // no latency guarantee
}

std::optional<ConnectionId> AdmissionControl::shedding_victim(
    const ConnectionRequest& req) const {
  // The most sheddable connection sharing a port with the path: lowest
  // class rank, then newest id. Each port's index is sorted by id, so its
  // best candidate is the last id of its lowest non-empty rank.
  std::optional<ConnectionId> victim;
  std::size_t victim_rank = kShedRanks;
  routes_.for_each_port(
      req.src_host, req.dst_host, [&](const network::PortRef& port) {
        const auto& index = state_at(port).sheddable;
        for (std::size_t rank = 0; rank < kShedRanks && rank <= victim_rank;
             ++rank) {
          if (index[rank].empty()) continue;
          const auto newest = index[rank].back();
          if (rank < victim_rank || newest > *victim) {
            victim = newest;
            victim_rank = rank;
          }
          break;
        }
        return true;
      });
  return victim;
}

AdmissionControl::DegradeResult AdmissionControl::request_degrading(
    const ConnectionRequest& req) {
  DegradeResult result;
  result.id = request(req);
  while (!result.id) {
    const auto victim = shedding_victim(req);
    if (!victim) break;  // nothing sheddable left: genuine refusal
    release(*victim);
    result.shed.push_back(*victim);
    result.id = request(req);
  }
  return result;
}

void AdmissionControl::forget(ConnectionId id) {
  const auto it = connections_.find(id);
  if (it == connections_.end())
    throw std::invalid_argument("forget: unknown connection");
  if (it->second.live)
    throw std::invalid_argument("forget: connection is still live");
  connections_.erase(it);
}

bool AdmissionControl::can_admit_path(const ConnectionRequest& req) const {
  const SlProfile* profile = find_sl(catalogue_, req.sl);
  if (profile == nullptr || profile->max_distance == 0)
    throw std::invalid_argument("SL is not a guaranteed-traffic class");
  if (cfg_.scheme == Scheme::kLegacy &&
      profile->category == TrafficCategory::kDb)
    return false;  // the low-table path has no Theorem-1 guarantee to audit

  return routes_.for_each_port(
      req.src_host, req.dst_host, [&](const network::PortRef& port) {
        const auto& manager = state_at(port).manager;
        const auto requirement = arbtable::compute_requirement(
            req.wire_mbps, manager.config().link_data_mbps, req.max_distance);
        return requirement &&
               manager.can_admit(profile->vl, *requirement, req.wire_mbps);
      });
}

std::uint64_t AdmissionControl::live_count() const noexcept {
  std::uint64_t n = 0;
  for (const auto& [id, conn] : connections_)
    if (conn.live) ++n;
  return n;
}

void AdmissionControl::release(ConnectionId id) {
  const auto it = connections_.find(id);
  if (it == connections_.end() || !it->second.live)
    throw std::invalid_argument("unknown or already-released connection");
  auto& conn = it->second;
  release_hops(conn.hops);
  unindex_sheddable(conn);
  conn.live = false;
  conn.hops.clear();
}

void AdmissionControl::program(sim::Simulator& sim) const {
  for (const auto& state : ports_) {
    sim.set_output_arbitration(state.port.node, state.port.port,
                               state.manager.table());
    sim.set_port_reserved_mbps(state.port.node, state.port.port,
                               state.manager.reserved_mbps());
  }
}

bool AdmissionControl::check_all_invariants(std::string* why) const {
  for (const auto& state : ports_)
    if (!state.manager.check_invariants(why)) return false;
  return true;
}

bool AdmissionControl::audit_tables(std::string* why) const {
  if (!check_all_invariants(why)) return false;
  for (const auto& state : ports_) {
    if (!state.manager.table().cache_in_sync()) {
      if (why != nullptr)
        *why = "arbiter aggregate cache out of sync on " +
               port_name(state.port.node, state.port.port);
      return false;
    }
  }
  return true;
}

bool AdmissionControl::audit_shedding_index(std::string* why) const {
  const auto fail = [why](std::string msg) {
    if (why != nullptr) *why = std::move(msg);
    return false;
  };
  // Every live sheddable connection is indexed on each of its hop ports...
  std::size_t expected = 0;
  for (const auto& [id, conn] : connections_) {
    const int rank = shed_rank(conn.category);
    if (!conn.live || rank < 0) continue;
    for (auto hop = conn.hops.begin(); hop != conn.hops.end(); ++hop) {
      const auto& ids =
          state_at(hop->port).sheddable[static_cast<std::size_t>(rank)];
      if (!std::binary_search(ids.begin(), ids.end(), id))
        return fail("live sheddable connection " + std::to_string(id) +
                    " is missing from the shedding index on " +
                    port_name(hop->port.node, hop->port.port));
      const auto same_port = [&](const HopReservation& h) {
        return h.port == hop->port;
      };
      if (std::none_of(conn.hops.begin(), hop, same_port)) ++expected;
    }
  }
  // ...and on no other: the lists are strictly ascending and hold exactly
  // those entries.
  std::size_t indexed = 0;
  for (const auto& state : ports_) {
    for (const auto& ids : state.sheddable) {
      if (std::adjacent_find(ids.begin(), ids.end(),
                             std::greater_equal<>()) != ids.end())
        return fail("shedding index on " +
                    port_name(state.port.node, state.port.port) +
                    " is not strictly ascending");
      indexed += ids.size();
    }
  }
  if (indexed == expected) return true;
  for (const auto& state : ports_) {
    for (std::size_t rank = 0; rank < kShedRanks; ++rank) {
      for (const auto id : state.sheddable[rank]) {
        const auto it = connections_.find(id);
        const bool ok =
            it != connections_.end() && it->second.live &&
            shed_rank(it->second.category) == static_cast<int>(rank) &&
            std::any_of(it->second.hops.begin(), it->second.hops.end(),
                        [&](const HopReservation& h) {
                          return h.port == state.port;
                        });
        if (!ok)
          return fail("shedding index on " +
                      port_name(state.port.node, state.port.port) +
                      " lists connection " + std::to_string(id) +
                      ", which has no live hop of that shed rank there");
      }
    }
  }
  return fail("shedding index holds " + std::to_string(indexed) +
              " entries for " + std::to_string(expected) +
              " live sheddable hops");
}

bool AdmissionControl::audit_full(std::string* why) const {
  if (!audit_tables(why)) return false;
  for (const auto& state : ports_) {
    if (!state.manager.audit_free_set_optimality(why)) {
      if (why != nullptr)
        *why += " (" + port_name(state.port.node, state.port.port) + ")";
      return false;
    }
  }
  return audit_shedding_index(why);
}

void AdmissionControl::attach_telemetry(obs::TelemetryRegistry& registry) {
  if (telemetry_attached_)
    throw std::logic_error("admission telemetry attached twice");
  telemetry_attached_ = true;
  registry.add_probe([this](obs::Snapshot& snap) {
    arbtable::TableManager::Stats sum;
    double reserved = 0.0;
    std::uint64_t live_seqs = 0;
    std::uint64_t free = 0;
    for (const auto& state : ports_) {
      const auto& manager = state.manager;
      const auto& s = manager.stats();
      sum.allocations += s.allocations;
      sum.shares += s.shares;
      sum.reject_bandwidth += s.reject_bandwidth;
      sum.reject_entries += s.reject_entries;
      sum.releases += s.releases;
      sum.defrag_runs += s.defrag_runs;
      sum.defrag_moves += s.defrag_moves;
      reserved += manager.reserved_mbps();
      live_seqs += manager.live_sequences();
      free += manager.free_entries();
    }
    snap.add_counter("tm.allocations", sum.allocations);
    snap.add_counter("tm.shares", sum.shares);
    snap.add_counter("tm.reject_bandwidth", sum.reject_bandwidth);
    snap.add_counter("tm.reject_entries", sum.reject_entries);
    snap.add_counter("tm.releases", sum.releases);
    snap.add_counter("tm.defrag_runs", sum.defrag_runs);
    snap.add_counter("tm.defrag_moves", sum.defrag_moves);
    snap.add_counter("tm.accepted", accepted_);
    snap.add_counter("tm.rejected", rejected_);
    snap.merge_gauge("tm.live_sequences", static_cast<double>(live_seqs));
    snap.merge_gauge("tm.free_entries", static_cast<double>(free));
    snap.merge_gauge("tm.reserved_mbps", reserved);
  });
}

void AdmissionControl::save_state(util::BinWriter& w) const {
  w.put_u64(ports_.size());
  for (const auto& state : ports_) {
    w.put_u64(port_key(state.port));
    state.manager.save_state(w);
  }
  w.put_u64(live_count());
  for (const auto& [id, conn] : connections_) {
    if (!conn.live) continue;
    w.put_u32(conn.id);
    w.put_u32(conn.request.src_host);
    w.put_u32(conn.request.dst_host);
    w.put_u8(conn.request.sl);
    w.put_u32(conn.request.max_distance);
    w.put_double(conn.request.wire_mbps);
    w.put_u64(conn.hops.size());
    for (const auto& hop : conn.hops) {
      w.put_u32(hop.port.node);
      w.put_u8(hop.port.port);
      w.put_u32(hop.handle);
      w.put_u32(hop.requirement.distance);
      w.put_u32(hop.requirement.entries);
      w.put_u32(hop.requirement.weight_per_entry);
      w.put_u32(hop.requirement.total_weight);
      w.put_double(hop.mbps);
      w.put_bool(hop.low_table);
      w.put_u8(hop.vl);
    }
    w.put_u64(conn.deadline);
    w.put_u8(static_cast<std::uint8_t>(conn.category));
  }
  w.put_u32(next_id_);
  w.put_u64(accepted_);
  w.put_u64(rejected_);
}

void AdmissionControl::load_state(util::BinReader& r) {
  const auto manager_count = r.get_u64();
  if (manager_count != ports_.size())
    throw std::runtime_error("snapshot port-manager count mismatch");
  // Keys must be strictly ascending wired ports; with the count matching,
  // that makes them exactly this fabric's ports, each loaded once.
  for (std::uint64_t i = 0; i < manager_count; ++i) {
    const auto key = r.get_u64();
    if (i > 0 && key <= port_key(ports_[i - 1].port))
      throw std::runtime_error("snapshot port-manager key " +
                               std::to_string(key) +
                               " is not strictly ascending");
    const auto node = key / 256;
    const auto port = static_cast<unsigned>(key % 256);
    if (node >= graph_.node_count())
      throw std::runtime_error("snapshot port-manager key " +
                               std::to_string(key) + " names node " +
                               std::to_string(node) + " of a " +
                               std::to_string(graph_.node_count()) +
                               "-node fabric");
    const auto at = port_index(static_cast<iba::NodeId>(node), port);
    if (at == kUnwired)
      throw std::runtime_error("snapshot port-manager key " +
                               std::to_string(key) + " names " +
                               port_name(static_cast<iba::NodeId>(node), port) +
                               ", which is unwired");
    ports_[at].manager.load_state(r);
  }
  connections_.clear();
  for (auto& state : ports_)
    for (auto& ids : state.sheddable) ids.clear();
  const auto live = r.get_length();
  for (std::size_t i = 0; i < live; ++i) {
    Connection conn;
    conn.id = r.get_u32();
    conn.request.src_host = r.get_u32();
    conn.request.dst_host = r.get_u32();
    conn.request.sl = r.get_u8();
    conn.request.max_distance = r.get_u32();
    conn.request.wire_mbps = r.get_double();
    conn.hops.resize(r.get_length());
    for (auto& hop : conn.hops) {
      hop.port.node = r.get_u32();
      hop.port.port = r.get_u8();
      hop.handle = r.get_u32();
      hop.requirement.distance = r.get_u32();
      hop.requirement.entries = r.get_u32();
      hop.requirement.weight_per_entry = r.get_u32();
      hop.requirement.total_weight = r.get_u32();
      hop.mbps = r.get_double();
      hop.low_table = r.get_bool();
      hop.vl = r.get_u8();
      const auto at = port_index(hop.port.node, hop.port.port);
      if (at == kUnwired)
        throw std::runtime_error(
            "snapshot connection " + std::to_string(conn.id) +
            " has a hop on " + port_name(hop.port.node, hop.port.port) +
            ", which is unwired");
      if (!hop.low_table && !ports_[at].manager.live_handle(hop.handle))
        throw std::runtime_error(
            "snapshot connection " + std::to_string(conn.id) +
            " names sequence handle " + std::to_string(hop.handle) +
            ", which is not a live sequence of " +
            port_name(hop.port.node, hop.port.port));
    }
    conn.deadline = r.get_u64();
    conn.category = static_cast<TrafficCategory>(r.get_u8());
    conn.live = true;
    const auto id = conn.id;
    const auto [it, inserted] = connections_.emplace(id, std::move(conn));
    if (!inserted)
      throw std::runtime_error("snapshot has a duplicate connection id");
    index_sheddable(it->second);
  }
  next_id_ = r.get_u32();
  if (!connections_.empty() && connections_.rbegin()->first >= next_id_)
    throw std::runtime_error(
        "snapshot connection id " +
        std::to_string(connections_.rbegin()->first) +
        " is not below its next id " + std::to_string(next_id_));
  accepted_ = r.get_u64();
  rejected_ = r.get_u64();
}

}  // namespace ibarb::qos
