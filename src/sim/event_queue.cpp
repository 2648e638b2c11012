#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>

namespace rdmasem::sim {

EventQueue::EventQueue() : slab_(std::size_t{kBuckets} * kBucketCap) {
  overflow_.reserve(64);
}

void EventQueue::clear() {
  const std::uint32_t ci = cur_index();
  for (std::uint32_t i = 0; i < kBuckets; ++i) {
    // The cursor bucket's [0, head_) was popped (copied out, and fired
    // or handed on by the popper) but still holds the targets.
    for (std::uint32_t k = i == ci ? head_ : 0; k < count_[i]; ++k)
      slab_[i * kBucketCap + k].drop();
    count_[i] = 0;
  }
  for (const Event& ev : overflow_) ev.drop();
  occupied_.fill(0);
  overflow_.clear();
  overflow_at_ = kNoOverflow;
  size_ = 0;
  max_size_ = 0;
  overflow_pushes_ = {};
  cur_slot_ = 0;
  head_ = 0;
}

void EventQueue::push_slow(const Event& ev) {
  // At or behind the cursor: the cursor bucket, if it has room. Otherwise
  // a full bucket or past the horizon — the overflow heap takes those,
  // and pop() compares its front with the ring's.
  const std::uint64_t slot = ev.at >> kSlotShift;
  if (slot <= cur_slot_) {
    if (insert_cursor(ev)) return;
    ++(slot == cur_slot_ ? overflow_pushes_.spill : overflow_pushes_.behind);
  } else if (slot - cur_slot_ >= kBuckets) {
    ++overflow_pushes_.far;
  } else {
    ++overflow_pushes_.spill;
  }
  push_overflow(ev);
}

// Inserts into the cursor bucket, which pop reads from head_ and so is
// kept sorted there; an event behind the cursor sorts to the front. A
// full bucket first drops its consumed prefix. Returns false when the
// bucket is full of live events.
bool EventQueue::insert_cursor(const Event& ev) {
  const std::uint32_t ci = cur_index();
  const std::uint32_t base = ci * kBucketCap;
  std::uint32_t n = count_[ci];
  if (n == kBucketCap && head_ > 0) {
    for (std::uint32_t k = head_; k < n; ++k)
      slab_[base + k - head_] = slab_[base + k];
    n -= head_;
    count_[ci] = n;
    head_ = 0;
  }
  if (n == kBucketCap) return false;
  std::uint32_t pos = n;
  for (; pos > head_ && event_before(ev, slab_[base + pos - 1]); --pos)
    slab_[base + pos] = slab_[base + pos - 1];
  slab_[base + pos] = ev;
  count_[ci] = n + 1;
  mark_occupied(ci);
  return true;
}

void EventQueue::push_overflow(const Event& ev) {
  overflow_.push_back(ev);
  std::push_heap(overflow_.begin(), overflow_.end(), event_after);
  overflow_at_ = overflow_.front().at;
}

Event EventQueue::pop_overflow() {
  std::pop_heap(overflow_.begin(), overflow_.end(), event_after);
  const Event ev = overflow_.back();
  overflow_.pop_back();
  overflow_at_ = overflow_.empty() ? kNoOverflow : overflow_.front().at;
  return ev;
}

bool EventQueue::ring_wins() const {
  const std::uint32_t ci = cur_index();
  return head_ < count_[ci] &&
         (overflow_.empty() ||
          event_before(slab_[ci * kBucketCap + head_], overflow_.front()));
}

Event EventQueue::pop_slow() {
  prepare();
  return ring_wins() ? take_head(cur_index()) : pop_overflow();
}

const Event& EventQueue::front_slow() {
  prepare();
  return ring_wins() ? slab_[cur_index() * kBucketCap + head_]
                     : overflow_.front();
}

// Makes the cursor bucket hold the ring minimum: walks the cursor to the
// next occupied bucket (bitmap scan, a word at a time) or, when the ring
// is empty, re-anchors it at the overflow front.
void EventQueue::prepare() {
  const std::uint32_t ci = cur_index();
  if (head_ < count_[ci]) return;
  std::uint32_t pos = (ci + 1) & kIndexMask;
  std::uint32_t remaining = kBuckets - 1;
  while (remaining > 0) {
    const std::uint32_t off = pos & 63;
    const std::uint32_t span = std::min(remaining, 64 - off);
    std::uint64_t bits = occupied_[pos >> 6] >> off;
    if (span < 64) bits &= (1ull << span) - 1;
    if (bits != 0) {
      const std::uint32_t hit =
          pos + static_cast<std::uint32_t>(std::countr_zero(bits));
      cur_slot_ += (hit - ci) & kIndexMask;
      open_bucket();
      return;
    }
    pos = (pos + span) & kIndexMask;
    remaining -= span;
  }
  reanchor();
}

// Re-anchors the empty ring's window at the earliest overflow event and
// pulls in one horizon's worth, until an event falls past the window or
// into a full bucket. Safe precisely because the ring is empty.
void EventQueue::reanchor() {
  if (overflow_.empty()) return;
  cur_slot_ = overflow_.front().at >> kSlotShift;
  while (!overflow_.empty()) {
    const std::uint64_t slot = overflow_.front().at >> kSlotShift;
    if (slot - cur_slot_ >= kBuckets) break;
    const auto idx = static_cast<std::uint32_t>(slot & kIndexMask);
    if (count_[idx] == kBucketCap) break;
    slab_[idx * kBucketCap + count_[idx]++] = pop_overflow();
    mark_occupied(idx);
  }
  open_bucket();
}

// Insertion-sorts the bucket the cursor just reached. Done exactly once
// per bucket per window pass; buckets hold about two events on average.
void EventQueue::open_bucket() {
  const std::uint32_t ci = cur_index();
  const std::uint32_t base = ci * kBucketCap;
  for (std::uint32_t i = 1; i < count_[ci]; ++i) {
    const Event ev = slab_[base + i];
    std::uint32_t j = i;
    for (; j > 0 && event_before(ev, slab_[base + j - 1]); --j)
      slab_[base + j] = slab_[base + j - 1];
    slab_[base + j] = ev;
  }
  head_ = 0;
}

}  // namespace rdmasem::sim
