#pragma once

#include <cstddef>
#include <initializer_list>
#include <type_traits>
#include <utility>

#include "util/assert.hpp"

namespace rdmasem::util {

// SmallVec<T, N, Alloc> — a vector with inline storage for the first N
// elements.
//
// Motivated by verbs::WorkRequest::sg_list: almost every WR carries a
// single SGE (the paper's workloads are single-buffer writes/reads), yet a
// std::vector puts even that one element on the heap — one allocation and
// one free per posted WR, which dominates the datapath once frames and
// staging buffers are pooled. With inline storage the common shapes
// (1..N SGEs) never touch the allocator. Longer lists (an SGL batch
// gathers up to rnic_max_sge pieces) spill to a block from `Alloc`, a
// class with static `allocate(bytes)` and `deallocate(p, bytes)`, such as
// a size-class pool whose recycled blocks make the spill allocation-free.
//
// Only the slice of the vector API the WR plumbing uses is provided:
// trivially-copyable T, brace-init assignment, reserve/push_back, random
// access and iteration. Growth keeps amortized O(1) doubling.
template <typename T, std::size_t N, typename Alloc>
class SmallVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVec is restricted to trivially-copyable elements");

 public:
  SmallVec() = default;
  SmallVec(std::initializer_list<T> init) { assign(init.begin(), init.size()); }
  SmallVec(const SmallVec& o) { assign(o.data(), o.size_); }
  SmallVec(SmallVec&& o) noexcept { steal(std::move(o)); }
  SmallVec& operator=(const SmallVec& o) {
    if (this != &o) assign(o.data(), o.size_);
    return *this;
  }
  SmallVec& operator=(SmallVec&& o) noexcept {
    if (this != &o) {
      release();
      steal(std::move(o));
    }
    return *this;
  }
  SmallVec& operator=(std::initializer_list<T> init) {
    assign(init.begin(), init.size());
    return *this;
  }
  ~SmallVec() { release(); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return cap_; }

  T* data() { return heap_ != nullptr ? heap_ : inline_ptr(); }
  const T* data() const { return heap_ != nullptr ? heap_ : inline_ptr(); }

  T& operator[](std::size_t i) { return data()[i]; }
  const T& operator[](std::size_t i) const { return data()[i]; }
  T& front() { return data()[0]; }
  const T& front() const { return data()[0]; }
  T& back() { return data()[size_ - 1]; }
  const T& back() const { return data()[size_ - 1]; }

  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }

  void clear() { size_ = 0; }

  void reserve(std::size_t n) {
    if (n > cap_) grow(n);
  }

  void push_back(const T& v) {
    if (size_ == cap_) grow(cap_ * 2);
    data()[size_++] = v;
  }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == cap_) grow(cap_ * 2);
    T* slot = data() + size_++;
    *slot = T{std::forward<Args>(args)...};
    return *slot;
  }

  void resize(std::size_t n) {
    reserve(n);
    for (std::size_t i = size_; i < n; ++i) data()[i] = T{};
    size_ = n;
  }

 private:
  T* inline_ptr() { return reinterpret_cast<T*>(inline_); }
  const T* inline_ptr() const { return reinterpret_cast<const T*>(inline_); }

  void assign(const T* src, std::size_t n) {
    reserve(n);
    T* dst = data();
    for (std::size_t i = 0; i < n; ++i) dst[i] = src[i];
    size_ = n;
  }

  // Move: adopt a heap buffer outright; inline contents are copied (they
  // are at most N trivially-copyable elements).
  void steal(SmallVec&& o) noexcept {
    if (o.heap_ != nullptr) {
      heap_ = o.heap_;
      cap_ = o.cap_;
      size_ = o.size_;
      o.heap_ = nullptr;
      o.cap_ = N;
      o.size_ = 0;
    } else {
      heap_ = nullptr;
      cap_ = N;
      assign(o.inline_ptr(), o.size_);
      o.size_ = 0;
    }
  }

  void grow(std::size_t want) {
    std::size_t cap = cap_;
    while (cap < want) cap *= 2;
    T* fresh = static_cast<T*>(Alloc::allocate(cap * sizeof(T)));
    const T* src = data();
    for (std::size_t i = 0; i < size_; ++i) fresh[i] = src[i];
    release();
    heap_ = fresh;
    cap_ = cap;
  }

  void release() {
    if (heap_ != nullptr) {
      Alloc::deallocate(heap_, cap_ * sizeof(T));
      heap_ = nullptr;
      cap_ = N;
    }
  }

  alignas(T) std::byte inline_[N * sizeof(T)];
  T* heap_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cap_ = N;
};

}  // namespace rdmasem::util
