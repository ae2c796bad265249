#include "arbtable/fill_algorithm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace ibarb::arbtable {
namespace {

void occupy(iba::ArbTable& table, const EntrySet& set) {
  for (const auto p : set.positions()) table[p] = iba::ArbTableEntry{0, 1};
}

std::vector<unsigned> order_of(unsigned distance, FillPolicy policy,
                               util::Xoshiro256* rng = nullptr) {
  ScanBuffer buf;
  const auto order = scan_order(distance, policy, rng, buf);
  return {order.begin(), order.end()};
}

TEST(ScanOrder, BitReversalMatchesPaper) {
  const auto order = order_of(8, FillPolicy::kBitReversal);
  const std::vector<unsigned> expected{0, 4, 2, 6, 1, 5, 3, 7};
  EXPECT_EQ(order, expected);
}

TEST(ScanOrder, BitReversalTableMatchesReverseBits) {
  for (unsigned d = 1; d <= kMaxDistance; d *= 2) {
    const auto order = order_of(d, FillPolicy::kBitReversal);
    ASSERT_EQ(order.size(), d);
    for (unsigned j = 0; j < d; ++j)
      EXPECT_EQ(order[j], reverse_bits(j, log2_pow2(d))) << d << " " << j;
  }
}

TEST(ScanOrder, SequentialIsIota) {
  const auto order = order_of(4, FillPolicy::kSequential);
  const std::vector<unsigned> expected{0, 1, 2, 3};
  EXPECT_EQ(order, expected);
}

TEST(ScanOrder, RandomIsAPermutation) {
  util::Xoshiro256 rng(5);
  const auto order = order_of(16, FillPolicy::kRandom, &rng);
  std::set<unsigned> seen(order.begin(), order.end());
  EXPECT_EQ(seen.size(), 16u);
  EXPECT_EQ(*seen.rbegin(), 15u);
}

TEST(ScanOrder, RandomDrawsOneFisherYatesShufflePerCall) {
  // The shuffle the order has always used: kRandom tables replay only if
  // each scan consumes the RNG exactly like this.
  util::Xoshiro256 rng(9);
  util::Xoshiro256 shadow(9);
  for (const unsigned d : {2u, 16u, 64u, 8u}) {
    std::vector<unsigned> expected(d);
    for (unsigned j = 0; j < d; ++j) expected[j] = j;
    for (unsigned j = d; j > 1; --j)
      std::swap(expected[j - 1], expected[shadow.below(j)]);
    EXPECT_EQ(order_of(d, FillPolicy::kRandom, &rng), expected);
  }
  EXPECT_EQ(rng.state(), shadow.state());
}

TEST(ScanOrder, ScatteredHasNoOrder) {
  EXPECT_TRUE(order_of(8, FillPolicy::kScattered).empty());
}

TEST(FindFreeSet, EmptyTableGivesOffsetZero) {
  iba::ArbTable table{};
  for (unsigned d = 1; d <= 64; d *= 2) {
    const auto set = find_free_set(table, d, FillPolicy::kBitReversal);
    ASSERT_TRUE(set.has_value());
    EXPECT_EQ(set->offset, 0u);
    EXPECT_EQ(set->distance, d);
  }
}

TEST(FindFreeSet, SkipsOccupiedSets) {
  iba::ArbTable table{};
  occupy(table, EntrySet{8, 0});
  occupy(table, EntrySet{8, 4});
  const auto set = find_free_set(table, 8, FillPolicy::kBitReversal);
  ASSERT_TRUE(set.has_value());
  EXPECT_EQ(set->offset, 2u);  // next in bit-reversal order after 0, 4
}

TEST(FindFreeSet, FullTableGivesNothing) {
  iba::ArbTable table{};
  for (auto& e : table) e = iba::ArbTableEntry{0, 1};
  for (unsigned d = 1; d <= 64; d *= 2)
    EXPECT_FALSE(find_free_set(table, d, FillPolicy::kBitReversal));
}

TEST(FindFreeSet, BitReversalPreservesDistance2Capability) {
  // Fill two distance-4 sequences; a distance-2 request must still fit —
  // the core §3.3 property. The sequential baseline fails the same setup.
  iba::ArbTable bitrev{};
  iba::ArbTable seq{};
  for (int k = 0; k < 2; ++k) {
    const auto a = find_free_set(bitrev, 4, FillPolicy::kBitReversal);
    ASSERT_TRUE(a.has_value());
    occupy(bitrev, *a);
    const auto b = find_free_set(seq, 4, FillPolicy::kSequential);
    ASSERT_TRUE(b.has_value());
    occupy(seq, *b);
  }
  // 32 of 64 entries used in both tables.
  EXPECT_EQ(free_entries(bitrev), 32u);
  EXPECT_EQ(free_entries(seq), 32u);
  // Bit-reversal filled offsets 0 and 2 (both even): odd slots stay free and
  // E_{1,1} (distance 2) is available.
  EXPECT_TRUE(find_free_set(bitrev, 2, FillPolicy::kBitReversal).has_value());
  // Sequential filled offsets 0 and 1: every distance-2 set now collides.
  EXPECT_FALSE(find_free_set(seq, 2, FillPolicy::kSequential).has_value());
}

TEST(FindFreeSet, ReturnedSetIsActuallyFree) {
  util::Xoshiro256 rng(99);
  iba::ArbTable table{};
  // Randomly occupy ~half the table.
  for (unsigned p = 0; p < iba::kArbTableEntries; ++p)
    if (rng.chance(0.5)) table[p] = iba::ArbTableEntry{0, 1};
  for (unsigned d = 1; d <= 64; d *= 2) {
    for (const auto policy :
         {FillPolicy::kBitReversal, FillPolicy::kSequential}) {
      if (const auto set = find_free_set(table, d, policy)) {
        EXPECT_TRUE(set_is_free(table, *set));
      }
    }
  }
}

TEST(FindScattered, PicksFirstFreeSlots) {
  iba::ArbTable table{};
  table[0] = iba::ArbTableEntry{0, 1};
  table[2] = iba::ArbTableEntry{0, 1};
  const auto picks = find_scattered(table, 3);
  ASSERT_TRUE(picks.has_value());
  const std::vector<std::uint8_t> expected{1, 3, 4};
  EXPECT_EQ(*picks, expected);
}

TEST(FindScattered, FailsWhenNotEnoughFree) {
  iba::ArbTable table{};
  for (unsigned p = 0; p < 62; ++p) table[p] = iba::ArbTableEntry{0, 1};
  EXPECT_TRUE(find_scattered(table, 2).has_value());
  EXPECT_FALSE(find_scattered(table, 3).has_value());
}

TEST(PolicyNames, AreDistinct) {
  std::set<std::string> names;
  for (const auto p : {FillPolicy::kBitReversal, FillPolicy::kSequential,
                       FillPolicy::kRandom, FillPolicy::kScattered})
    names.insert(to_string(p));
  EXPECT_EQ(names.size(), 4u);
}

}  // namespace
}  // namespace ibarb::arbtable
