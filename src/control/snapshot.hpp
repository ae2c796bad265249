// Crash-consistent world snapshots for the churn service.
//
// A snapshot is a sealed binary envelope:
//
//   magic u64 | version u32 | payload_len u64 | crc32 u32 | payload ...
//
// The CRC is the link layer's ICRC generator (iba/crc.hpp) over the
// payload, so truncation or bit damage is detected before a single field
// is applied; open_envelope throws on any mismatch. The payload composes
// the save_state streams of every stateful control-plane component:
//
//   snap_time | run_seed | AdmissionControl | RecoveryCoordinator tracked
//   set + stats | FaultInjector stats | ChurnEngine
//
// Restore protocol (restore_world): the caller builds a FRESH world —
// same graph, routes, catalogue, configs and seeds — arms the fault
// plan's tail (events with at > snap_time) on the new injector, and only
// then calls restore_world. Arming first matters: event-queue ties break
// by insertion order, and the snapshotted world armed its fault events
// before any engine tick was scheduled, so the restored world must too.
// After restore_world the caller reprograms the fabric
// (SubnetManager::configure_fabric) and resumes run_until; the replay is
// byte-identical to the uninterrupted run.
//
// Every restore is audited: AdmissionControl::audit_full must pass and a
// re-serialization of the restored state must equal the original payload
// bit for bit (proving save/load is a true inverse pair), or
// restore_world throws.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "control/churn_engine.hpp"
#include "faults/fault_injector.hpp"
#include "faults/recovery.hpp"
#include "qos/admission.hpp"
#include "util/binary.hpp"

namespace ibarb::control {

inline constexpr std::uint64_t kSnapshotMagic = 0x49424152'42534e50ull;
inline constexpr std::uint32_t kSnapshotVersion = 1;

/// The stateful components one snapshot covers. injector/coordinator/
/// engine may be null (and must then be null on restore too).
struct World {
  qos::AdmissionControl* admission = nullptr;
  faults::FaultInjector* injector = nullptr;
  faults::RecoveryCoordinator* coordinator = nullptr;
  ChurnEngine* engine = nullptr;
};

/// Wraps a payload in the magic/version/length/CRC envelope.
std::vector<std::uint8_t> seal_envelope(
    const std::vector<std::uint8_t>& payload);

/// Validates the envelope and returns the payload. Throws
/// std::runtime_error naming the failure (magic, version, length, CRC).
std::vector<std::uint8_t> open_envelope(
    const std::vector<std::uint8_t>& blob);

/// Serializes the world at simulation time `now` into a sealed envelope.
/// Call only at a quiescent instant (ChurnEngine::arm_snapshot arranges
/// one); `run_seed` is stored as a restore-time guard.
std::vector<std::uint8_t> save_world(iba::Cycle now, std::uint64_t run_seed,
                                     const World& w);

/// Applies a snapshot to a freshly built world (see the restore protocol
/// above) and returns the snapshot time. Throws std::runtime_error on a
/// damaged envelope, a mismatched run seed or world shape, a failed
/// post-restore audit, or a round-trip re-serialization mismatch.
iba::Cycle restore_world(const std::vector<std::uint8_t>& blob,
                         std::uint64_t run_seed, const World& w);

/// Writes a snapshot blob to `path` so that a failure never costs the
/// previous file: the bytes go to `<path>.tmp`, are flushed and synced, and
/// only then is the temporary renamed over `path` (atomic on POSIX). Throws
/// std::runtime_error naming the path and the failing step; on failure the
/// temporary is removed and `path` is untouched.
void write_snapshot_file(const std::string& path,
                         const std::vector<std::uint8_t>& blob);

/// Reads a whole snapshot file. Throws std::runtime_error naming the path.
std::vector<std::uint8_t> read_snapshot_file(const std::string& path);

/// Validates the envelope and returns only the snapshot time — needed
/// before restore_world, because the caller must first arm the fault
/// plan's tail (events after this instant) on the fresh world.
iba::Cycle peek_snapshot_time(const std::vector<std::uint8_t>& blob);

}  // namespace ibarb::control
