#pragma once

#include <cstddef>
#include <cstdint>

namespace rdmasem::sim {

// SizeClassPool — size-classed free lists for blocks whose sizes repeat.
// Class c holds blocks of (c + 1) * Granule bytes, up to kMaxBytes; larger
// requests pass straight through to operator new. A recycled block of the
// same class is a perfect fit, so after warm-up a steady workload performs
// no heap allocations at all.
//
// Two instantiations exist, both explicit in size_class_pool.cpp:
// sim::FramePool for coroutine frames and scheduled-callable boxes, and
// verbs::PayloadPool for WR payload staging. Each keeps one arena per
// thread, built on first use: an engine and everything it runs stay on one
// thread, so engines on different threads never contend or mix blocks.
// allocate/deallocate are out of line; the hot path is one call plus a
// thread-local access.
//
// Under ASan the pool degrades to plain new/delete so the sanitizer keeps
// seeing every block lifetime (use-after-free fidelity over speed).
template <std::size_t Granule, std::size_t Classes>
class SizeClassPool {
 public:
  static constexpr std::size_t kGranule = Granule;  // size-class width, bytes
  static constexpr std::size_t kClasses = Classes;
  static constexpr std::size_t kMaxBytes = Granule * Classes;  // largest pooled

  static void* allocate(std::size_t bytes);
  static void deallocate(void* p, std::size_t bytes) noexcept;

  struct Stats {
    std::uint64_t reused = 0;    // allocations served from a free list
    std::uint64_t fresh = 0;     // pool-classed allocations that hit new
    std::uint64_t oversize = 0;  // beyond kMaxBytes, passed through
    std::uint64_t cached = 0;    // blocks currently parked in free lists
  };
  static Stats stats();

  // Releases every cached block back to the allocator (tests, memory
  // pressure). Outstanding blocks are unaffected.
  static void trim() noexcept;
};

// FramePool — recycles coroutine frames, pooled up to 8 KB. Every
// simulated activity is a TaskT<> coroutine; a posted WR allocates and
// frees exactly one frame, its verbs::QueuePair::run_wr pipeline (the
// fabric legs, post() and wait() are frame-less awaitables), and frames
// of one coroutine function always have the same size. The engine's
// scheduled-callable boxes (sim::CallBox) share the pool.
using FramePool = SizeClassPool<64, 128>;

}  // namespace rdmasem::sim
