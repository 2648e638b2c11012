#pragma once

#include <array>
#include <coroutine>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/size_class_pool.hpp"
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

// A non-owning event target for hand-written awaitables: a phase state
// machine embeds a Step and has the engine call `fn(step)` at the event's
// time, on the event's lane, instead of resuming a coroutine frame. The
// owner keeps the Step alive until it fires (it lives in the awaiting
// coroutine's frame); nothing frees it, so dropping the event is a no-op.
struct Step {
  void (*fn)(Step* self);
};

// One scheduled engine event: 32 bytes, trivially copyable, so bucket
// appends, cursor-bucket sorts and overflow-heap sifts move half a cache
// line. (at, seq) is the total dispatch order: earlier time first, then
// seq. The engine packs seq as (origin_lane << 48) | per_lane_seq, so the
// order is a pure function of which lane scheduled the event and in what
// per-lane order. `exec_lane` is the lane the event runs on (differs from
// the origin lane only for cross-lane hops/wakes).
//
// `target` is one of three kinds, told apart by its low bits: a
// coroutine frame address (resume), a CallBox pointer with bit 0 set
// (invoke), or a Step pointer with bit 1 set (call step->fn). Frames and
// boxes come from operator new and Steps are pointer-aligned, so both
// bits are always free. A callable event OWNS its box until fire() or
// drop(); copies share it, so every holder that never fires an event must
// drop it exactly once (EventQueue::clear at engine teardown). Frames and
// Steps are not owned by the event.
struct Event {
  static constexpr std::uintptr_t kCallTag = 1;
  static constexpr std::uintptr_t kStepTag = 2;

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
  static std::uintptr_t step_target(Step* step) {
    return reinterpret_cast<std::uintptr_t>(step) | kStepTag;
  }

  // Runs the event: resumes the coroutine, calls the step, or invokes
  // (and frees) the box.
  void fire() const {
    if (target & kStepTag) {
      Step* step = reinterpret_cast<Step*>(target & ~kStepTag);
      step->fn(step);
    } else if (target & kCallTag) {
      CallBox* box = reinterpret_cast<CallBox*>(target & ~kCallTag);
      box->op(box, true);
    } else {
      std::coroutine_handle<>::from_address(reinterpret_cast<void*>(target))
          .resume();
    }
  }
  // Frees an unfired callable's box; frames and steps are not owned here.
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
//   * near ring: kBuckets time buckets of 2^kSlotShift ps each (~2 us
//     horizon total), covering the short-horizon delays that dominate the
//     verb pipeline (EU/DMA/wire/DRAM service times) as well as
//     same-timestamp wakeups, which land in the cursor bucket. All buckets
//     share one slab of kBuckets x kBucketCap events with a count per
//     bucket. Future buckets are unsorted (O(1) append); a bucket is
//     insertion-sorted once, when the cursor reaches it, and consumed
//     through a head index, so dispatch is O(1) per event. Pushes into
//     the cursor bucket insert in key order — an append when the key is
//     past the bucket maximum (the common monotone case: per-lane seq
//     counters only grow), a short shift otherwise. Pushes BEHIND the
//     cursor (earlier than its bucket) insert there too, at the front:
//     the cursor bucket is the one sorted run pop() reads, and anything
//     earlier than its slot still precedes every later bucket. Such
//     pushes follow a peek() that walked the cursor past the clock's
//     empty bucket (the engine's inline check peeks between pops) or a
//     run_until() that parked the clock below the next event.
//   * overflow: a (at, seq) min-heap for events past the ring horizon
//     (retransmit timers, lease timers, fault windows) and for pushes
//     into a full bucket. When the ring drains, the window re-anchors at
//     the overflow minimum and one horizon's worth of events migrates
//     into the ring (each event migrates at most once; a full bucket ends
//     the migration early).
//
// pop() returns the smaller of the cursor-bucket head and the heap front,
// so an event may sit in either tier. The header-inline fast paths —
// push's append to a future bucket with room, and pop/peek's read of the
// cursor-bucket head — skip the heap compare when the head is strictly
// earlier than the cached heap-front time; everything else (cursor
// insert, spill, bucket advance and open, re-anchor) is out of line.
//
// Determinism: pop() always returns the global (at, seq) minimum across
// the tiers regardless of push order — pushes do NOT need increasing seq
// (asserted by the fuzz differential in tests/fuzz_test.cpp).
//
// Storage is allocated once: the slab at construction, and the overflow
// heap keeps its capacity across cycles, so a warmed-up queue schedules
// and dispatches without allocating.
class EventQueue {
 public:
  // 256 buckets x 8.192 ns = ~2.1 us near horizon.
  static constexpr std::uint32_t kBucketBits = 8;
  static constexpr std::uint32_t kBuckets = 1u << kBucketBits;
  static constexpr std::uint32_t kIndexMask = kBuckets - 1;
  static constexpr std::uint32_t kSlotShift = 13;  // 2^13 ps per bucket
  // Events one bucket holds. Cluster runs average about two per bucket;
  // a push into a full bucket goes to the overflow heap. 256 x 16 x 32 B
  // = 128 KB per queue.
  static constexpr std::uint32_t kBucketCap = 16;

  EventQueue();

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
    // Unsigned wrap: true only for slots 1..kBuckets-1 past the cursor.
    if (slot - cur_slot_ - 1 < kBuckets - 1) {
      const auto idx = static_cast<std::uint32_t>(slot & kIndexMask);
      std::uint32_t& n = count_[idx];
      if (n < kBucketCap) {
        slab_[idx * kBucketCap + n] = ev;
        ++n;
        mark_occupied(idx);
        return;
      }
    }
    push_slow(ev);
  }

  // Removes and returns the (at, seq)-minimum event. Requires !empty().
  Event pop() {
    RDMASEM_CHECK_MSG(size_ > 0, "pop on empty event queue");
    --size_;
    const std::uint32_t ci = cur_index();
    if (head_ < count_[ci] &&
        slab_[ci * kBucketCap + head_].at < overflow_at_)
      return take_head(ci);
    return pop_slow();
  }

  // Timestamp of the next event in dispatch order. Requires !empty().
  Time next_time() {
    RDMASEM_CHECK_MSG(size_ > 0, "next_time on empty event queue");
    return front().at;
  }

  // (at, seq) key of the next event in dispatch order. Requires !empty().
  // The engine's inline fast path compares a would-be wakeup against it.
  std::pair<Time, std::uint64_t> peek() {
    RDMASEM_CHECK_MSG(size_ > 0, "peek on empty event queue");
    const Event& best = front();
    return {best.at, best.seq};
  }

  // Pushes that took the overflow heap, by reason, since construction /
  // clear() / reset_overflow_pushes(). Counted on the slow path only; the
  // engine profiler (RDMASEM_PROF) reports them per drain window.
  struct OverflowPushes {
    std::uint64_t spill = 0;   // at or past the cursor, into a full bucket
    std::uint64_t far = 0;     // past the ring's horizon
    std::uint64_t behind = 0;  // behind the cursor, its bucket full
  };
  const OverflowPushes& overflow_pushes() const { return overflow_pushes_; }
  void reset_overflow_pushes() { overflow_pushes_ = {}; }

  // Drops every queued event (engine teardown), freeing callable boxes.
  // The slab and the heap's capacity are kept.
  void clear();

 private:
  static constexpr Time kNoOverflow = ~Time{0};

  std::uint32_t cur_index() const {
    return static_cast<std::uint32_t>(cur_slot_ & kIndexMask);
  }
  void mark_occupied(std::uint32_t idx) {
    occupied_[idx >> 6] |= 1ull << (idx & 63);
  }

  // The (at, seq)-minimum event, left in place.
  const Event& front() {
    const std::uint32_t ci = cur_index();
    if (head_ < count_[ci]) {
      const Event& head = slab_[ci * kBucketCap + head_];
      if (head.at < overflow_at_) return head;
    }
    return front_slow();
  }

  // Consumes the cursor bucket's head; the bucket must be non-empty.
  Event take_head(std::uint32_t ci) {
    const Event ev = slab_[ci * kBucketCap + head_];
    if (++head_ == count_[ci]) {
      count_[ci] = 0;
      head_ = 0;
      occupied_[ci >> 6] &= ~(1ull << (ci & 63));
    }
    return ev;
  }

  void push_slow(const Event& ev);
  bool insert_cursor(const Event& ev);
  void push_overflow(const Event& ev);
  // After prepare(): whether the cursor-bucket head precedes the heap
  // front (both tiers may hold events).
  bool ring_wins() const;
  Event pop_slow();
  Event pop_overflow();
  const Event& front_slow();
  void prepare();
  void reanchor();
  void open_bucket();

  // Bucket i holds slab_[i * kBucketCap, i * kBucketCap + count_[i]).
  std::vector<Event> slab_;
  std::array<std::uint32_t, kBuckets> count_{};
  std::array<std::uint64_t, kBuckets / 64> occupied_{};
  std::vector<Event> overflow_;  // min-heap on (at, seq)
  // overflow_.front().at, or kNoOverflow while the heap is empty.
  Time overflow_at_ = kNoOverflow;
  std::uint64_t cur_slot_ = 0;  // absolute slot of the cursor bucket
  // Next live element of the cursor bucket; [0, head_) is consumed. Only
  // ever non-zero for the cursor bucket (a fully consumed bucket resets).
  std::uint32_t head_ = 0;
  std::size_t size_ = 0;
  std::size_t max_size_ = 0;
  OverflowPushes overflow_pushes_;
};

}  // namespace rdmasem::sim
