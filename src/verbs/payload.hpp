#pragma once

#include <cstddef>
#include <cstdint>

namespace rdmasem::verbs {

// PayloadPool — size-classed free lists for WR payload staging buffers,
// the FramePool pattern applied to data bytes. The per-WR pipeline stages
// at most one payload per work request; payload sizes repeat heavily
// (workloads sweep a few fixed transfer sizes), so a recycled buffer is
// almost always a perfect fit and the steady-state datapath performs no
// heap allocations. Thread-local for the same reason as FramePool: one
// engine per thread, no locks, no cross-engine mixing. A buffer acquired
// on one lane's thread may be released on another (a READ snapshot is
// staged on the responder's lane and freed on the requester's); that is
// safe — the block just retires into the releasing thread's free list.
//
// Under ASan the pool degrades to plain new/delete so the sanitizer keeps
// seeing every staging-buffer lifetime.
class PayloadPool {
 public:
  static constexpr std::size_t kGranule = 256;  // size-class width, bytes
  static constexpr std::size_t kClasses = 256;  // pooled up to 64 KB

  static std::byte* acquire(std::size_t bytes);
  static void release(std::byte* p, std::size_t bytes) noexcept;

  struct Stats {
    std::uint64_t reused = 0;    // acquisitions served from a free list
    std::uint64_t fresh = 0;     // pool-classed acquisitions that hit new
    std::uint64_t oversize = 0;  // beyond kClasses, passed through
    std::uint64_t cached = 0;    // buffers currently parked in free lists
  };
  static Stats stats();

  // Releases every cached buffer back to the allocator (tests, memory
  // pressure). Outstanding buffers are unaffected.
  static void trim() noexcept;
};

// PayloadBuf — the staging slot in a WR pipeline's coroutine frame. One
// per work request; holds the payload between the gather on the
// requester's lane and the landing on the responder's (the frame is the
// only state both lanes touch, strictly before/after the wire hop). Three
// storage routes, cheapest first:
//
//   * borrowed  — no bytes move until landing: a view into the source MR
//                 (zero-copy single-SGE WRITE/SEND);
//   * inline    — payloads up to kInlineBytes live in the frame itself
//                 (mirrors the RNIC's max_inline arm);
//   * staged    — PayloadPool buffer, or plain heap when the payload
//                 exceeds the pooled range.
//
// Staging is a simulation artifact: it models no hardware buffer and has
// zero timing cost (docs/MODEL.md).
class PayloadBuf {
 public:
  static constexpr std::size_t kInlineBytes = 256;  // == rnic_max_inline

  enum class Route : std::uint8_t {
    kNone = 0,
    kBorrowed,
    kInline,
    kPooled,
    kHeap,
  };

  PayloadBuf() = default;
  ~PayloadBuf() { reset(); }
  PayloadBuf(const PayloadBuf&) = delete;
  PayloadBuf& operator=(const PayloadBuf&) = delete;

  // Adopts a read-only view; the caller guarantees the bytes outlive the
  // WR (MemoryRegions outlive every WR posted against them).
  void borrow(const std::byte* src) {
    reset();
    view_ = src;
    route_ = Route::kBorrowed;
  }

  // Provisions `n` writable bytes (previous contents discarded) and
  // returns the staging cursor. Pool-classed sizes come from PayloadPool,
  // oversize payloads from plain heap.
  std::byte* stage(std::size_t n);

  const std::byte* data() const {
    return route_ == Route::kBorrowed ? view_ : buf_;
  }
  Route route() const { return route_; }
  // Whether this staging route is pool-accelerated (inline arm or pooled
  // size class) — a pure predicate of the size, independent of pool
  // state, which is what the obs counters require.
  bool pool_hit() const { return route_ == Route::kInline || route_ == Route::kPooled; }

  void reset() noexcept;

 private:
  const std::byte* view_ = nullptr;
  std::byte* buf_ = nullptr;
  std::size_t bytes_ = 0;  // staged size (release needs it for the class)
  Route route_ = Route::kNone;
  alignas(8) std::byte inline_[kInlineBytes];
};

}  // namespace rdmasem::verbs
