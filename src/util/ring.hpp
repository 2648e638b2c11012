#pragma once

#include <cstddef>
#include <new>
#include <utility>

#include "util/assert.hpp"

namespace rdmasem::util {

// Ring<T, N> — a FIFO queue in one circular buffer, with inline room for
// the first N elements.
//
// The one FIFO container in src: the engine's rendezvous queues (channel
// items, channel, semaphore and latch waiters), the QP and SRQ receive
// queues and the local spinlock's parked spinners. A std::deque
// allocates on construction and per node, which put several allocations
// on every proxied request (its reply channel, its 352 B inbox entry). A
// Ring never allocates when constructed, grows by doubling past N and
// keeps its capacity, so a warmed-up queue never touches the heap.
// pop_front() destroys the element, releasing what it holds at pop time
// as a deque does.
template <typename T, std::size_t N>
class Ring {
  static_assert(N > 0 && (N & (N - 1)) == 0, "N must be a power of two");
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                "heap slots are only default-new aligned");

 public:
  Ring() = default;
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;
  ~Ring() {
    while (size_ > 0) pop_front();
    if (heap_ != nullptr) ::operator delete(static_cast<void*>(heap_));
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return cap_; }

  T& front() { return slot(head_); }

  void push_back(T v) {
    if (size_ == cap_) grow();
    ::new (static_cast<void*>(&slot(head_ + size_))) T(std::move(v));
    ++size_;
  }

  void pop_front() {
    RDMASEM_CHECK_MSG(size_ > 0, "pop_front on empty ring");
    slot(head_).~T();
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
  }

 private:
  T& slot(std::size_t i) {
    T* base = heap_ != nullptr ? heap_ : reinterpret_cast<T*>(inline_);
    return base[i & (cap_ - 1)];
  }

  // Doubles the capacity and unwraps the live elements to [0, size).
  void grow() {
    const std::size_t cap = cap_ * 2;
    T* fresh = static_cast<T*>(::operator new(cap * sizeof(T)));
    for (std::size_t i = 0; i < size_; ++i) {
      T& old = slot(head_ + i);
      ::new (static_cast<void*>(fresh + i)) T(std::move(old));
      old.~T();
    }
    if (heap_ != nullptr) ::operator delete(static_cast<void*>(heap_));
    heap_ = fresh;
    cap_ = cap;
    head_ = 0;
  }

  alignas(T) std::byte inline_[N * sizeof(T)];
  T* heap_ = nullptr;
  std::size_t cap_ = N;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace rdmasem::util
