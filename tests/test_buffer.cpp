#include "sim/buffer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "util/rng.hpp"

namespace ibarb::sim {
namespace {

iba::Packet pkt(std::uint32_t payload, std::uint64_t id = 0) {
  iba::Packet p;
  p.id = id;
  p.payload_bytes = payload;
  return p;
}

TEST(VlFifo, FifoOrder) {
  VlFifo f;
  f.push(pkt(100, 1));
  f.push(pkt(100, 2));
  EXPECT_EQ(f.pop().id, 1u);
  EXPECT_EQ(f.pop().id, 2u);
}

TEST(VlFifo, ByteAccounting) {
  VlFifo f;
  f.set_capacity(1000);
  f.push(pkt(100));  // wire 126
  EXPECT_EQ(f.used_bytes(), 126u);
  EXPECT_TRUE(f.can_accept(874));
  EXPECT_FALSE(f.can_accept(875));
  f.pop();
  EXPECT_EQ(f.used_bytes(), 0u);
}

TEST(VlFifo, UnboundedByDefault) {
  VlFifo f;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(f.can_accept(1u << 20));
    f.push(pkt(1u << 20));
  }
  EXPECT_EQ(f.size(), 100u);
}

TEST(PortBuffers, OccupancyMaskTracksVls) {
  PortBuffers b;
  EXPECT_TRUE(b.all_empty());
  b.push(3, pkt(10));
  b.push(7, pkt(10));
  EXPECT_EQ(b.occupancy(), (1u << 3) | (1u << 7));
  b.pop(3);
  EXPECT_EQ(b.occupancy(), 1u << 7);
  b.pop(7);
  EXPECT_TRUE(b.all_empty());
}

TEST(PortBuffers, OccupancyStaysSetWhileNonEmpty) {
  PortBuffers b;
  b.push(2, pkt(10, 1));
  b.push(2, pkt(10, 2));
  b.pop(2);
  EXPECT_EQ(b.occupancy(), 1u << 2);
  b.pop(2);
  EXPECT_EQ(b.occupancy(), 0u);
}

TEST(PortBuffers, PerVlIsolation) {
  PortBuffers b;
  b.set_capacity_all(200);
  b.push(0, pkt(150));  // wire 176 on VL0
  EXPECT_FALSE(b.can_accept(0, 176));
  EXPECT_TRUE(b.can_accept(1, 176));  // VL1 space untouched
}

TEST(PortBuffers, TotalPackets) {
  PortBuffers b;
  b.push(0, pkt(1));
  b.push(5, pkt(1));
  b.push(5, pkt(1));
  EXPECT_EQ(b.total_packets(), 3u);
}

TEST(PortBuffers, FrontPeeksWithoutRemoving) {
  PortBuffers b;
  b.push(4, pkt(10, 42));
  EXPECT_EQ(b.front(4).id, 42u);
  EXPECT_EQ(b.total_packets(), 1u);
}

iba::Packet conn_pkt(std::uint32_t conn, std::uint64_t id) {
  iba::Packet p;
  p.payload_bytes = 100;
  p.connection = conn;
  p.id = id;
  return p;
}

TEST(VlFifo, ExtractConnectionRemovesOnlyThatFlowInOrder) {
  VlFifo f;
  f.push(conn_pkt(1, 10));
  f.push(conn_pkt(2, 11));
  f.push(conn_pkt(1, 12));
  const auto bytes_before = f.used_bytes();
  auto out = f.extract_connection(1);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 10u);
  EXPECT_EQ(out[1].id, 12u);
  EXPECT_EQ(f.size(), 1u);
  EXPECT_EQ(f.used_bytes(), bytes_before - out[0].wire_bytes() -
                                out[1].wire_bytes());
  EXPECT_EQ(f.pop().id, 11u);
}

TEST(VlFifo, ExtractConnectionNoMatchLeavesQueueIntact) {
  VlFifo f;
  f.push(conn_pkt(1, 10));
  EXPECT_TRUE(f.extract_connection(9).empty());
  EXPECT_EQ(f.size(), 1u);
}

TEST(PortBuffers, ExtractConnectionClearsOccupancyWhenVlDrains) {
  PortBuffers b;
  b.push(2, conn_pkt(5, 1));
  b.push(2, conn_pkt(6, 2));
  EXPECT_EQ(b.extract_connection(2, 5).size(), 1u);
  EXPECT_EQ(b.occupancy(), 1u << 2) << "other flow still queued";
  EXPECT_EQ(b.extract_connection(2, 6).size(), 1u);
  EXPECT_TRUE(b.all_empty()) << "occupancy bit must clear with the VL";
}

TEST(VlFifo, RingMatchesDequeReferenceAcrossGrowthAndWrap) {
  // Differential: the ring against a std::deque model under random push,
  // pop and extract_connection, long enough to grow the ring several times
  // and to wrap its head around many times at every size.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Xoshiro256 rng(seed);
    VlFifo f;
    std::deque<iba::Packet> ref;
    std::uint32_t ref_bytes = 0;
    std::uint32_t ref_peak_bytes = 0;
    std::size_t ref_peak_packets = 0;
    std::uint64_t next_id = 1;
    // Phases bias towards growth, then churn at a plateau, then drain, so
    // the head wraps at every ring size the FIFO passes through.
    for (unsigned step = 0; step < 4000; ++step) {
      const unsigned phase = (step / 500) % 4;
      const double push_odds = phase == 0 ? 0.75 : phase == 3 ? 0.3 : 0.5;
      const double r = rng.uniform();
      if (r < 0.03) {
        const auto conn = static_cast<std::uint32_t>(rng.uniform(0, 4));
        const auto out = f.extract_connection(conn);
        std::vector<iba::Packet> want;
        std::deque<iba::Packet> keep;
        for (const auto& p : ref) {
          if (p.connection == conn) {
            want.push_back(p);
            ref_bytes -= p.wire_bytes();
          } else {
            keep.push_back(p);
          }
        }
        ref.swap(keep);
        ASSERT_EQ(out.size(), want.size()) << "seed " << seed;
        for (std::size_t i = 0; i < out.size(); ++i)
          ASSERT_EQ(out[i].id, want[i].id) << "seed " << seed;
      } else if (r < 0.03 + push_odds || ref.empty()) {
        iba::Packet p;
        p.id = next_id++;
        p.connection = static_cast<std::uint32_t>(rng.uniform(0, 4));
        p.payload_bytes = static_cast<std::uint32_t>(rng.uniform(0, 4097));
        ref_bytes += p.wire_bytes();
        ref_peak_bytes = std::max(ref_peak_bytes, ref_bytes);
        ref.push_back(p);
        ref_peak_packets = std::max(ref_peak_packets, ref.size());
        f.push(p);
      } else {
        ASSERT_EQ(f.front().id, ref.front().id) << "seed " << seed;
        ASSERT_EQ(f.pop().id, ref.front().id) << "seed " << seed;
        ref_bytes -= ref.front().wire_bytes();
        ref.pop_front();
      }
      ASSERT_EQ(f.size(), ref.size()) << "seed " << seed << " step " << step;
      ASSERT_EQ(f.empty(), ref.empty());
      ASSERT_EQ(f.used_bytes(), ref_bytes);
      ASSERT_EQ(f.peak_bytes(), ref_peak_bytes);
      ASSERT_EQ(f.peak_packets(), ref_peak_packets);
      if (!ref.empty()) {
        ASSERT_EQ(f.front().id, ref.front().id);
      }
    }
    EXPECT_GT(ref_peak_packets, 16u) << "the ring must have grown";
    // Drain: the remaining order must match exactly.
    while (!ref.empty()) {
      ASSERT_EQ(f.pop().id, ref.front().id);
      ref.pop_front();
    }
    EXPECT_TRUE(f.empty());
    EXPECT_EQ(f.used_bytes(), 0u);
  }
}

TEST(VlFifo, ExtractConnectionAcrossTheWrapPoint) {
  // Head near the end of the ring, tail wrapped to its start: survivors
  // keep their order and the ring stays usable afterwards.
  VlFifo f;
  for (std::uint64_t id = 1; id <= 4; ++id) f.push(conn_pkt(0, id));
  f.pop();
  f.pop();
  f.pop();  // head at slot 3 of 4
  f.push(conn_pkt(1, 5));
  f.push(conn_pkt(0, 6));
  f.push(conn_pkt(1, 7));  // slots 3, 0, 1, 2 hold ids 4..7
  const auto out = f.extract_connection(1);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 5u);
  EXPECT_EQ(out[1].id, 7u);
  f.push(conn_pkt(2, 8));
  EXPECT_EQ(f.pop().id, 4u);
  EXPECT_EQ(f.pop().id, 6u);
  EXPECT_EQ(f.pop().id, 8u);
  EXPECT_TRUE(f.empty());
}

}  // namespace
}  // namespace ibarb::sim
