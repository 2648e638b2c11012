#pragma once

#include <cstddef>
#include <cstdint>

namespace rdmasem::sim {

// FramePool — size-classed free lists for coroutine frames.
//
// Every simulated activity is a TaskT<> coroutine; the per-WR pipeline
// (verbs::QueuePair::run_wr and the fabric/RNIC legs it awaits) allocates
// and frees one frame per work request. Frames of the same coroutine
// function always have the same size, so a recycled frame is a perfect
// fit: after warm-up the WR hot path performs no frame allocations at
// all. The engine's scheduled-callable boxes (sim::CallBox) share the
// pool. The simulator is single-threaded per engine; the pool is
// thread-local so concurrent engines (e.g. parallel ctest binaries in
// one process) never contend or mix.
//
// Under ASan the pool degrades to plain new/delete so the sanitizer keeps
// seeing every frame lifetime (use-after-free fidelity over speed).
class FramePool {
 public:
  static constexpr std::size_t kGranule = 64;  // size-class width, bytes
  static constexpr std::size_t kClasses = 128;  // pooled up to 8 KB

  static void* allocate(std::size_t bytes);
  static void deallocate(void* p, std::size_t bytes) noexcept;

  struct Stats {
    std::uint64_t reused = 0;    // allocations served from a free list
    std::uint64_t fresh = 0;     // pool-classed allocations that hit new
    std::uint64_t oversize = 0;  // beyond kClasses, passed through
    std::uint64_t cached = 0;    // frames currently parked in free lists
  };
  static Stats stats();

  // Releases every cached frame back to the allocator (tests, memory
  // pressure). Outstanding frames are unaffected.
  static void trim() noexcept;
};

}  // namespace rdmasem::sim
