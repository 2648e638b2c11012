#pragma once

#include <algorithm>
#include <bit>
#include <coroutine>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/frame_pool.hpp"
#include "sim/time.hpp"
#include "util/assert.hpp"

namespace rdmasem::sim {

// Out-of-line storage for a scheduled callable. Callables are rare on the
// hot path (fault edges, home-lane sync routing, channel wakes; everything
// else resumes a coroutine), so they live in a box from the thread-local
// FramePool instead of widening every Event. `op(box, true)` invokes the
// callable and frees the box; `op(box, false)` only frees it (an event
// dropped at teardown). Either way the box is gone afterwards.
struct CallBox {
  void (*op)(CallBox* box, bool invoke);

  template <typename F>
  static CallBox* make(F&& fn);
};

namespace detail {

template <typename D>
struct CallBoxOf final : CallBox {
  D fn;

  template <typename F>
  explicit CallBoxOf(F&& f) : CallBox{&run}, fn(std::forward<F>(f)) {}

  static void run(CallBox* box, bool invoke) {
    auto* self = static_cast<CallBoxOf*>(box);
    if (invoke) self->fn();
    self->~CallBoxOf();
    FramePool::deallocate(self, sizeof(CallBoxOf));
  }
};

}  // namespace detail

template <typename F>
CallBox* CallBox::make(F&& fn) {
  using Box = detail::CallBoxOf<std::decay_t<F>>;
  static_assert(alignof(Box) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "FramePool blocks are only default-new aligned");
  return ::new (FramePool::allocate(sizeof(Box))) Box(std::forward<F>(fn));
}

// One scheduled engine event: 32 bytes, trivially copyable, so bucket
// appends, cursor-bucket sorts and overflow-heap sifts move half a cache
// line. (at, seq) is the total dispatch order: earlier time first, then
// seq. The engine packs seq as (origin_lane << 48) | per_lane_seq, so the
// order is a pure function of which lane scheduled the event and in what
// per-lane order. `exec_lane` is the lane the event runs on (differs from
// the origin lane only for cross-lane hops/wakes).
//
// `target` is a coroutine frame address (resume), or a CallBox pointer
// with the low bit set (invoke). Frames and boxes both come from
// operator new, so the bit is always free. A callable event OWNS its box
// until fire() or drop(); copies share it, so every holder that never
// fires an event must drop it exactly once (EventQueue::clear at engine
// teardown).
struct Event {
  static constexpr std::uintptr_t kCallTag = 1;

  Time at = 0;
  std::uint64_t seq = 0;
  std::uintptr_t target = 0;
  std::uint32_t exec_lane = 0;
  // 4 bytes of tail padding: free for a future per-event tag.

  static std::uintptr_t resume_target(std::coroutine_handle<> h) {
    return reinterpret_cast<std::uintptr_t>(h.address());
  }
  static std::uintptr_t call_target(CallBox* box) {
    return reinterpret_cast<std::uintptr_t>(box) | kCallTag;
  }

  // Runs the event: resumes the coroutine or invokes (and frees) the box.
  void fire() const {
    if (target & kCallTag) [[unlikely]] {
      CallBox* box = reinterpret_cast<CallBox*>(target & ~kCallTag);
      box->op(box, true);
    } else {
      std::coroutine_handle<>::from_address(reinterpret_cast<void*>(target))
          .resume();
    }
  }
  // Frees an unfired callable's box; coroutine frames are not owned here.
  void drop() const {
    if (target & kCallTag) {
      CallBox* box = reinterpret_cast<CallBox*>(target & ~kCallTag);
      box->op(box, false);
    }
  }
};
static_assert(sizeof(Event) == 32, "Event must stay 32 bytes");

inline bool event_before(const Event& a, const Event& b) {
  return a.at != b.at ? a.at < b.at : a.seq < b.seq;
}
// std::*_heap comparator for a min-heap on (at, seq).
inline bool event_after(const Event& a, const Event& b) {
  return event_before(b, a);
}

// EventQueue — a two-level calendar queue tuned for discrete-event
// simulation of RNIC/fabric traffic, replacing the seed's global binary
// heap (O(log n) per op, one std::function heap allocation per event).
//
// Two tiers, by distance from the dispatch cursor:
//
//   * near ring: kBuckets time buckets of kSlotWidth each (~2 us horizon
//     total), covering the short-horizon delays that dominate the verb
//     pipeline (EU/DMA/wire/DRAM service times) as well as same-timestamp
//     wakeups, which land in the cursor bucket. Future buckets are
//     unsorted vectors (O(1) append); a bucket is sorted once, when the
//     cursor reaches it, and consumed through a head index, so dispatch
//     is O(1) per event. Pushes into the cursor bucket insert in key
//     order — an append when the key is past the bucket maximum (the
//     common monotone case: per-lane seq counters only grow), a binary
//     search + small memmove otherwise (buckets hold few events).
//   * overflow: a (at, seq) min-heap for events past the ring horizon
//     (retransmit timers, fault windows, app-level timeouts) or behind
//     the cursor (pushes after run_until parked the clock). When the ring drains, the window re-anchors at the
//     overflow minimum and one horizon's worth of events migrates into
//     the ring (each event migrates at most once).
//
// The seed engine's separate same-timestamp FIFO ring is gone: with
// lane-packed seq keys, push order at one timestamp is no longer key
// order (a later push from a lower lane sorts first), so immediates are
// ordered through the cursor-bucket heap like everything else.
//
// Determinism: pop() always returns the global (at, seq) minimum across
// the tiers regardless of push order — pushes do NOT need increasing seq
// (asserted by the fuzz differential in tests/fuzz_test.cpp).
//
// Storage is pooled by construction: bucket vectors and the overflow
// heap keep their capacity across cycles, so a warmed-up queue schedules
// and dispatches without allocating.
class EventQueue {
 public:
  // 256 buckets x 8.192 ns = ~2.1 us near horizon.
  static constexpr std::uint32_t kBucketBits = 8;
  static constexpr std::uint32_t kBuckets = 1u << kBucketBits;
  static constexpr std::uint32_t kIndexMask = kBuckets - 1;
  static constexpr std::uint32_t kSlotShift = 13;  // 2^13 ps per bucket

  // Buckets start with room for a handful of coexisting events so the
  // steady state really is allocation-free: without the reserve, every
  // first-time collision of k events in one 8 ns bucket (the phase of a
  // pipeline drifts across buckets over time) grows that bucket's vector
  // 0->1->2->..., which shows up as rare-but-unbounded-tail allocations
  // in the selfbench datapath probe. 256 x 8 x sizeof(Event) = 64 KB per
  // queue, paid once at construction.
  static constexpr std::size_t kInitialBucketCap = 8;
  // Bucket size up to which open_bucket() sorts by insertion.
  static constexpr std::size_t kInsertionSortMax = 16;

  EventQueue() {
    for (auto& b : buckets_) b.reserve(kInitialBucketCap);
    overflow_.reserve(64);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  // High-water mark of size() since construction / clear() /
  // reset_max_size(). One predicted compare per push; the engine profiler
  // (RDMASEM_PROF) reads it per drain window as the peak queue depth.
  std::size_t max_size() const { return max_size_; }
  void reset_max_size() { max_size_ = size_; }

  // `ev.seq` must be unique among coexisting events; no push-order
  // constraint beyond that.
  void push(const Event& ev) {
    ++size_;
    if (size_ > max_size_) max_size_ = size_;
    const std::uint64_t slot = ev.at >> kSlotShift;
    if (slot >= cur_slot_ && slot - cur_slot_ < kBuckets) {
      auto& b = buckets_[slot & kIndexMask];
      mark_occupied(static_cast<std::uint32_t>(slot & kIndexMask));
      ++ring_count_;
      if (slot != cur_slot_ || b.empty() || event_before(b.back(), ev)) {
        b.push_back(ev);
      } else {
        // The cursor bucket is kept sorted from head_ (pop reads its
        // minimum at head_); keep the live region ordered.
        b.insert(std::upper_bound(b.begin() + head_, b.end(), ev,
                                  event_before),
                 ev);
      }
      return;
    }
    // Past the horizon — or (rarely) behind the cursor, which happens
    // only after run_until() parked the clock below the next event: the
    // overflow heap handles both, and pop() considers its top directly.
    overflow_.push_back(ev);
    std::push_heap(overflow_.begin(), overflow_.end(), event_after);
  }

  // Removes and returns the (at, seq)-minimum event. Requires !empty().
  Event pop() {
    RDMASEM_CHECK_MSG(size_ > 0, "pop on empty event queue");
    --size_;
    prepare();
    return ring_wins() ? pop_ring() : pop_overflow();
  }

  // Timestamp of the next event in dispatch order. Requires !empty().
  Time next_time() {
    RDMASEM_CHECK_MSG(size_ > 0, "next_time on empty event queue");
    prepare();
    return peek_best()->at;
  }

  // (at, seq) key of the next event in dispatch order. Requires !empty().
  // The engine's inline fast path compares a would-be wakeup against it.
  std::pair<Time, std::uint64_t> peek() {
    RDMASEM_CHECK_MSG(size_ > 0, "peek on empty event queue");
    prepare();
    const Event* best = peek_best();
    return {best->at, best->seq};
  }

  // Drops every queued event (engine teardown), freeing callable boxes.
  // Capacities are kept.
  void clear() {
    for (std::uint32_t i = 0; i < kBuckets; ++i) {
      auto& b = buckets_[i];
      // The cursor bucket's [0, head_) was popped (copied out, and fired
      // or handed on by the popper) but still holds the targets.
      const std::size_t live_from = i == cur_index() ? head_ : 0;
      for (std::size_t k = live_from; k < b.size(); ++k) b[k].drop();
      b.clear();
    }
    for (const Event& ev : overflow_) ev.drop();
    for (auto& w : occupied_) w = 0;
    overflow_.clear();
    size_ = 0;
    max_size_ = 0;
    ring_count_ = 0;
    cur_slot_ = 0;
    head_ = 0;
  }

 private:
  std::uint32_t cur_index() const {
    return static_cast<std::uint32_t>(cur_slot_ & kIndexMask);
  }

  const Event* ring_top() const {
    return ring_count_ > 0 && !buckets_[cur_index()].empty()
               ? &buckets_[cur_index()][head_]
               : nullptr;
  }
  bool ring_wins() const {
    const Event* rt = ring_top();
    return rt != nullptr &&
           (overflow_.empty() || event_before(*rt, overflow_.front()));
  }
  // Pointer to the (at, seq)-minimum event; call prepare() first.
  const Event* peek_best() const {
    return ring_wins() ? ring_top() : &overflow_.front();
  }

  void mark_occupied(std::uint32_t idx) {
    occupied_[idx >> 6] |= 1ull << (idx & 63);
  }
  void mark_empty(std::uint32_t idx) {
    occupied_[idx >> 6] &= ~(1ull << (idx & 63));
  }

  // Sorts the bucket the cursor just reached and resets the consumption
  // head. Done exactly once per bucket per window pass. Buckets hold about
  // two events on average in cluster runs; a plain insertion sort skips
  // std::sort's introsort setup and its per-shift memmove calls there.
  void open_bucket() {
    auto& b = buckets_[cur_index()];
    if (b.size() <= kInsertionSortMax) {
      for (std::size_t i = 1; i < b.size(); ++i) {
        const Event ev = b[i];
        std::size_t j = i;
        for (; j > 0 && event_before(ev, b[j - 1]); --j) b[j] = b[j - 1];
        b[j] = ev;
      }
    } else {
      std::sort(b.begin(), b.end(), event_before);
    }
    head_ = 0;
  }

  // Makes the cursor bucket hold the ring minimum: re-anchors an empty
  // ring at the overflow front (bulk refill, each event migrates once)
  // and walks the cursor to the next occupied bucket.
  void prepare() {
    if (ring_count_ == 0) {
      if (overflow_.empty()) return;
      // Re-anchor the window at the earliest overflow event and pull in
      // one horizon's worth. Safe precisely because the ring is empty.
      cur_slot_ = overflow_.front().at >> kSlotShift;
      while (!overflow_.empty() &&
             (overflow_.front().at >> kSlotShift) - cur_slot_ < kBuckets) {
        std::pop_heap(overflow_.begin(), overflow_.end(), event_after);
        const Event ev = overflow_.back();
        overflow_.pop_back();
        const auto slot = ev.at >> kSlotShift;
        buckets_[slot & kIndexMask].push_back(ev);
        mark_occupied(static_cast<std::uint32_t>(slot & kIndexMask));
        ++ring_count_;
      }
      open_bucket();
      return;
    }
    if (!buckets_[cur_index()].empty()) return;
    // Advance to the next occupied bucket (bitmap scan, word at a time).
    const std::uint32_t ci = cur_index();
    std::uint32_t pos = (ci + 1) & kIndexMask;
    std::uint32_t remaining = kBuckets - 1;
    while (remaining > 0) {
      const std::uint32_t word = pos >> 6;
      const std::uint32_t off = pos & 63;
      const std::uint32_t span = std::min(remaining, 64 - off);
      std::uint64_t bits = occupied_[word] >> off;
      if (span < 64) bits &= (1ull << span) - 1;
      if (bits != 0) {
        const std::uint32_t hit = pos + static_cast<std::uint32_t>(
                                            std::countr_zero(bits));
        const std::uint32_t dist = (hit - ci) & kIndexMask;
        cur_slot_ += dist;
        open_bucket();
        return;
      }
      pos = (pos + span) & kIndexMask;
      remaining -= span;
    }
    RDMASEM_CHECK_MSG(false, "ring_count_ > 0 but no occupied bucket");
  }

  Event pop_ring() {
    auto& b = buckets_[cur_index()];
    const Event ev = b[head_];
    if (++head_ == b.size()) {
      b.clear();
      head_ = 0;
      mark_empty(cur_index());
    }
    --ring_count_;
    return ev;
  }

  Event pop_overflow() {
    std::pop_heap(overflow_.begin(), overflow_.end(), event_after);
    const Event ev = overflow_.back();
    overflow_.pop_back();
    return ev;
  }

  std::vector<Event> buckets_[kBuckets];
  std::uint64_t occupied_[kBuckets / 64] = {};
  std::vector<Event> overflow_;  // min-heap on (at, seq)
  std::uint64_t cur_slot_ = 0;   // absolute slot of the cursor bucket
  // Next live element of the cursor bucket; [0, head_) is consumed. Only
  // ever non-zero for the cursor bucket (fully-consumed buckets clear).
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::size_t max_size_ = 0;
  std::size_t ring_count_ = 0;
};

}  // namespace rdmasem::sim
