// The paper's filling algorithm (§3.3) and the alternative scan orders used
// as ablation baselines.
//
// For a request of distance d = 2^i, candidate sets E_{i,j} are inspected in
// bit-reversal order of j and the first fully free one is taken. The paper's
// key theorem (proved in the companion TR and verified exhaustively by this
// repo's property tests): under this policy — and provided releases are
// followed by defragmentation — a request succeeds *iff* the table has at
// least 64/d free entries.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "arbtable/entry_set.hpp"
#include "iba/vl_arbitration.hpp"
#include "util/rng.hpp"

namespace ibarb::arbtable {

/// Scan-order policy for choosing among the free E_{i,j}.
enum class FillPolicy : std::uint8_t {
  kBitReversal,  ///< The paper's proposal.
  kSequential,   ///< Baseline: j = 0, 1, 2, ... (naive).
  kRandom,       ///< Baseline: random permutation of offsets per request.
  kScattered,    ///< Baseline: first n free entries anywhere — ignores the
                 ///< distance requirement entirely (prior-work strawman;
                 ///< breaks latency guarantees, useful for the ablation).
};

const char* to_string(FillPolicy policy);

/// Room for the longest scan order (distance 64).
using ScanBuffer = std::array<unsigned, kMaxDistance>;

/// Offsets of E_{i,j} candidates in the order a policy inspects them,
/// without allocating: bit-reversal orders are views of a static table,
/// sequential and random orders are written into `buf`. kRandom draws from
/// `rng` (one Fisher-Yates shuffle per call). For kScattered the concept
/// does not apply (empty result).
std::span<const unsigned> scan_order(unsigned distance, FillPolicy policy,
                                     util::Xoshiro256* rng, ScanBuffer& buf);

/// Finds the first free set of the given distance under `policy`.
/// `rng` is only consulted by kRandom. Returns std::nullopt when no free set
/// exists (for kScattered: when fewer than 64/distance entries are free).
std::optional<EntrySet> find_free_set(const iba::ArbTable& table,
                                      unsigned distance, FillPolicy policy,
                                      util::Xoshiro256* rng = nullptr);

/// For kScattered: the first `count` free positions in table order.
std::optional<std::vector<std::uint8_t>> find_scattered(
    const iba::ArbTable& table, unsigned count);

}  // namespace ibarb::arbtable
