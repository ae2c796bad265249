// Discrete-event core: a deterministic time-ordered queue.
//
// Ties at the same cycle are served in insertion order (monotonic sequence
// number), which makes every simulation bit-reproducible for a given seed.
//
// Events live in one slab pool (moved in on push and moved out on pop —
// never copied; the structures themselves only shuffle 4-byte pool indices)
// and are ordered by a bucketed timing wheel of 2^16 one-cycle buckets
// covering the sliding window [base, base + 2^16). Every bucket is a FIFO of
// pool indices; because the window is no wider than the wheel, a bucket holds
// at most one distinct timestamp at a time, so FIFO order *is* sequence
// order. A hierarchical three-level occupancy bitmap finds the next non-empty
// bucket in O(1). Events beyond the horizon (or, defensively, behind `base`)
// overflow into a binary min-heap ordered by (time, seq); pop is a two-way
// merge of the wheel head and the heap head under the exact (time, seq) key,
// so the global order is identical to a single totally-ordered queue. See
// docs/PERF.md for the determinism argument.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "iba/packet.hpp"
#include "iba/types.hpp"

namespace ibarb::sim {

enum class EventType : std::uint8_t {
  kGenerate,      ///< A flow emits its next packet (aux = flow index).
  kLinkDeliver,   ///< Packet fully received at (node, port) input.
  kTxComplete,    ///< (node, port) finished serializing onto the link.
  kXferComplete,  ///< Crossbar transfer into (node, port) output finished.
  kProbe,         ///< Periodic bookkeeping (phase control).
  kControl,       ///< Simulator::call_at callback (aux = callback id).
};

struct Event {
  iba::Cycle time = 0;
  std::uint64_t seq = 0;  ///< Tie-breaker; assigned by the queue.
  EventType type = EventType::kProbe;
  iba::NodeId node = iba::kInvalidNode;
  iba::PortIndex port = 0;
  iba::VirtualLane vl = 0;
  std::uint32_t aux = 0;  ///< Flow index (kGenerate) / input port (kXfer).
  iba::Packet packet;     ///< Payload for kLinkDeliver / kXferComplete.
};

class EventQueue {
 public:
  /// Always-on plain counters published to obs::TelemetryRegistry by the
  /// simulator's snapshot probe. A handful of uint64 increments per
  /// operation keeps the hot path free of any registry indirection.
  static constexpr std::size_t kResidencyBins = 18;
  struct Stats {
    std::uint64_t pushes = 0;
    std::uint64_t pops = 0;
    /// Events pushed beyond the 2^16-cycle horizon.
    std::uint64_t overflow_pushes = 0;
    /// Bin i counts pushes whose distance-to-window-start had bit_width i
    /// (bin 0 = "due now", last bin = saturated).
    std::array<std::uint64_t, kResidencyBins> residency_log2{};
  };

  EventQueue()
      : buckets_(kWheelBuckets),
        bits0_(kWheelBuckets / 64, 0),
        bits1_(kWheelBuckets / (64 * 64), 0) {}

  void push(Event e) {
    e.seq = next_seq_++;
    ++stats_.pushes;
    const iba::Cycle t = e.time;
    const std::uint64_t seq = e.seq;
    const std::uint32_t idx = alloc_slot(std::move(e));
    if (t >= base_ && t - base_ < kWheelBuckets) {
      const auto b = static_cast<std::uint32_t>(t & kWheelMask);
      const auto bin = static_cast<std::size_t>(std::bit_width(t - base_));
      ++stats_.residency_log2[bin < kResidencyBins ? bin : kResidencyBins - 1];
      Bucket& bk = buckets_[b];
      if (bk.head == kNull) {
        bk.head = idx;
        set_bit(b);
      } else {
        next_[bk.tail] = idx;
      }
      bk.tail = idx;
      ++wheel_count_;
    } else {
      ++stats_.overflow_pushes;
      ++stats_.residency_log2[kResidencyBins - 1];
      overflow_.push_back(HeapNode{t, seq, idx});
      sift_up(overflow_.size() - 1);
    }
    peek_valid_ = false;
    ++size_;
  }

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  const Event& top() const { return pool_[peek().idx]; }

  const Stats& stats() const noexcept { return stats_; }

  Event pop() {
    ++stats_.pops;
    const Peek p = peek();
    peek_valid_ = false;
    if (p.from_wheel) {
      Bucket& bk = buckets_[p.bucket];
      bk.head = next_[p.idx];
      if (bk.head == kNull) clear_bit(p.bucket);
      --wheel_count_;
      // Nothing in either structure precedes this event, so the window may
      // slide up to it; pushes behind it would go to the overflow heap.
      base_ = pool_[p.idx].time;
    } else {
      heap_pop_root();
      if (pool_[p.idx].time > base_) base_ = pool_[p.idx].time;
    }
    --size_;
    Event out = std::move(pool_[p.idx]);
    free_.push_back(p.idx);
    return out;
  }

 private:
  // --- Slab pool -----------------------------------------------------------

  static constexpr std::uint32_t kNull = 0xFFFF'FFFFu;

  std::uint32_t alloc_slot(Event&& e) {
    if (free_.empty()) {
      pool_.push_back(std::move(e));
      next_.push_back(kNull);
      return static_cast<std::uint32_t>(pool_.size() - 1);
    }
    const std::uint32_t idx = free_.back();
    free_.pop_back();
    pool_[idx] = std::move(e);
    next_[idx] = kNull;
    return idx;
  }

  // --- Overflow binary heap over (time, seq, pool index) -------------------

  struct HeapNode {
    iba::Cycle time;
    std::uint64_t seq;
    std::uint32_t idx;

    bool before(const HeapNode& o) const noexcept {
      return time != o.time ? time < o.time : seq < o.seq;
    }
  };

  void sift_up(std::size_t i) {
    HeapNode n = overflow_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!n.before(overflow_[parent])) break;
      overflow_[i] = overflow_[parent];
      i = parent;
    }
    overflow_[i] = n;
  }

  void heap_pop_root() {
    HeapNode last = overflow_.back();
    overflow_.pop_back();
    if (overflow_.empty()) return;
    std::size_t i = 0;
    const std::size_t n = overflow_.size();
    while (true) {
      const std::size_t l = 2 * i + 1;
      if (l >= n) break;
      const std::size_t r = l + 1;
      const std::size_t child =
          (r < n && overflow_[r].before(overflow_[l])) ? r : l;
      if (!overflow_[child].before(last)) break;
      overflow_[i] = overflow_[child];
      i = child;
    }
    overflow_[i] = last;
  }

  // --- Timing wheel --------------------------------------------------------

  static constexpr std::uint32_t kWheelBuckets = 1u << 16;
  static constexpr std::uint64_t kWheelMask = kWheelBuckets - 1;

  /// Intrusive FIFO of pool indices chained through next_; 8 bytes per bucket
  /// keeps the whole wheel at 512 KiB and one pointer chase per operation.
  struct Bucket {
    std::uint32_t head = kNull;
    std::uint32_t tail = kNull;
  };

  /// Called only for a previously-empty bucket, so the upper levels need
  /// updating only when their word was all-zero too.
  void set_bit(std::uint32_t b) {
    std::uint64_t& w0 = bits0_[b >> 6];
    if (w0 == 0) {
      std::uint64_t& w1 = bits1_[b >> 12];
      if (w1 == 0) bits2_ |= 1ull << (b >> 12);
      w1 |= 1ull << ((b >> 6) & 63);
    }
    w0 |= 1ull << (b & 63);
  }

  void clear_bit(std::uint32_t b) {
    if ((bits0_[b >> 6] &= ~(1ull << (b & 63))) != 0) return;
    if ((bits1_[b >> 12] &= ~(1ull << ((b >> 6) & 63))) != 0) return;
    bits2_ &= ~(1ull << (b >> 12));
  }

  /// Bits strictly above position k of a 64-bit word.
  static constexpr std::uint64_t above(unsigned k) noexcept {
    return k == 63 ? 0 : ~0ull << (k + 1);
  }

  /// First occupied bucket with index >= b, or -1. O(1): at most one probe
  /// per bitmap level.
  int find_from(std::uint32_t b) const {
    std::uint32_t w = b >> 6;
    if (const auto m = bits0_[w] & (~0ull << (b & 63)))
      return static_cast<int>((w << 6) | std::countr_zero(m));
    std::uint32_t s = w >> 6;
    if (const auto m1 = bits1_[s] & above(w & 63)) {
      w = (s << 6) | static_cast<std::uint32_t>(std::countr_zero(m1));
      return static_cast<int>((w << 6) | std::countr_zero(bits0_[w]));
    }
    const auto m2 = bits2_ & above(s);
    if (m2 == 0) return -1;
    s = static_cast<std::uint32_t>(std::countr_zero(m2));
    w = (s << 6) | static_cast<std::uint32_t>(std::countr_zero(bits1_[s]));
    return static_cast<int>((w << 6) | std::countr_zero(bits0_[w]));
  }

  /// First occupied bucket at or cyclically after b (the window start).
  std::uint32_t find_next(std::uint32_t b) const {
    int r = find_from(b);
    if (r < 0) r = find_from(0);
    assert(r >= 0 && "wheel_count_ > 0 but no bucket bit set");
    return static_cast<std::uint32_t>(r);
  }

  // --- Two-way (time, seq) merge of wheel head and heap head ---------------

  struct Peek {
    std::uint32_t idx = 0;
    bool from_wheel = false;
    std::uint32_t bucket = 0;
  };

  /// Memoizes the merge so the usual top()-then-pop() pattern pays for one
  /// bitmap search per event, not two. Invalidated by push and pop.
  const Peek& peek() const {
    if (!peek_valid_) {
      cached_peek_ = find_peek();
      peek_valid_ = true;
    }
    return cached_peek_;
  }

  Peek find_peek() const {
    assert(size_ > 0 && "peek/pop on an empty EventQueue");
    if (wheel_count_ == 0) return Peek{overflow_.front().idx, false, 0};
    const std::uint32_t b =
        find_next(static_cast<std::uint32_t>(base_ & kWheelMask));
    const std::uint32_t wi = buckets_[b].head;
    if (!overflow_.empty()) {
      const Event& w = pool_[wi];
      const HeapNode& h = overflow_.front();
      if (h.time < w.time || (h.time == w.time && h.seq < w.seq))
        return Peek{h.idx, false, 0};
    }
    return Peek{wi, true, b};
  }

  std::vector<Event> pool_;
  std::vector<std::uint32_t> next_;  ///< Per-slot intrusive bucket link.
  std::vector<std::uint32_t> free_;
  std::vector<HeapNode> overflow_;  ///< Far-future/past events.

  std::vector<Bucket> buckets_;
  std::vector<std::uint64_t> bits0_; ///< One bit per bucket.
  std::vector<std::uint64_t> bits1_; ///< One bit per bits0_ word.
  std::uint64_t bits2_ = 0;          ///< One bit per bits1_ word.
  iba::Cycle base_ = 0;              ///< Window start; never decreases.
  std::size_t wheel_count_ = 0;
  mutable Peek cached_peek_{};
  mutable bool peek_valid_ = false;

  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
  Stats stats_;
};

}  // namespace ibarb::sim
