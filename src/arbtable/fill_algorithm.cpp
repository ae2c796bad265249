#include "arbtable/fill_algorithm.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace ibarb::arbtable {

const char* to_string(FillPolicy policy) {
  switch (policy) {
    case FillPolicy::kBitReversal: return "bit-reversal";
    case FillPolicy::kSequential: return "sequential";
    case FillPolicy::kRandom: return "random";
    case FillPolicy::kScattered: return "scattered";
  }
  return "?";
}

namespace {

/// Every bit-reversal order, distance d at [d - 1, 2d - 1).
constexpr auto kBitReversalOrders = [] {
  std::array<unsigned, 2 * kMaxDistance - 1> orders{};
  for (unsigned d = 1; d <= kMaxDistance; d *= 2)
    for (unsigned j = 0; j < d; ++j)
      orders[d - 1 + j] = reverse_bits(j, log2_pow2(d));
  return orders;
}();

}  // namespace

std::span<const unsigned> scan_order(unsigned distance, FillPolicy policy,
                                     util::Xoshiro256* rng, ScanBuffer& buf) {
  assert(is_pow2(distance) && distance <= kMaxDistance);
  const auto order = std::span<unsigned>(buf).first(distance);
  switch (policy) {
    case FillPolicy::kBitReversal:
      return std::span<const unsigned>(kBitReversalOrders)
          .subspan(distance - 1, distance);
    case FillPolicy::kSequential:
      std::iota(order.begin(), order.end(), 0u);
      return order;
    case FillPolicy::kRandom:
      std::iota(order.begin(), order.end(), 0u);
      assert(rng != nullptr);
      for (unsigned j = distance; j > 1; --j)
        std::swap(order[j - 1], order[rng->below(j)]);
      return order;
    case FillPolicy::kScattered:
      break;
  }
  return {};
}

std::optional<EntrySet> find_free_set(const iba::ArbTable& table,
                                      unsigned distance, FillPolicy policy,
                                      util::Xoshiro256* rng) {
  assert(is_pow2(distance) && distance <= kMaxDistance);
  if (policy == FillPolicy::kScattered) {
    // No spaced structure; the caller should use find_scattered instead.
    return std::nullopt;
  }
  ScanBuffer buf;
  for (const unsigned j : scan_order(distance, policy, rng, buf)) {
    const EntrySet candidate{distance, j};
    if (set_is_free(table, candidate)) return candidate;
  }
  return std::nullopt;
}

std::optional<std::vector<std::uint8_t>> find_scattered(
    const iba::ArbTable& table, unsigned count) {
  std::vector<std::uint8_t> picks;
  picks.reserve(count);
  for (unsigned p = 0; p < iba::kArbTableEntries && picks.size() < count; ++p)
    if (!table[p].active()) picks.push_back(static_cast<std::uint8_t>(p));
  if (picks.size() < count) return std::nullopt;
  return picks;
}

}  // namespace ibarb::arbtable
