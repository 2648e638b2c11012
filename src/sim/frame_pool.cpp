#include "sim/frame_pool.hpp"

#include <new>

#include "util/sanitizer.hpp"

// Pass frames straight through to the global allocator under ASan so the
// sanitizer tracks every coroutine-frame lifetime (poisoning/quarantine
// would be defeated by recycling).

namespace rdmasem::sim {

namespace {

struct FreeNode {
  FreeNode* next;
};

struct Arena {
  FreeNode* lists[FramePool::kClasses] = {};
  FramePool::Stats stats;

  ~Arena() { release_all(); }

  void release_all() noexcept {
    for (auto*& head : lists) {
      while (head != nullptr) {
        FreeNode* n = head;
        head = n->next;
        ::operator delete(static_cast<void*>(n));
      }
    }
    stats.cached = 0;
  }
};

// Function-local so the arena is constructed on first use and outlives
// every engine created after it on this thread.
Arena& arena() {
  thread_local Arena a;
  return a;
}

// Size class for `bytes` (bytes > 0), or kClasses if beyond the pooled
// range. Class c holds blocks of (c + 1) * kGranule bytes.
std::size_t class_of(std::size_t bytes) {
  return (bytes - 1) / FramePool::kGranule;
}

}  // namespace

void* FramePool::allocate(std::size_t bytes) {
  if (bytes == 0) bytes = 1;
#if RDMASEM_ASAN
  return ::operator new(bytes);
#else
  Arena& a = arena();
  const std::size_t cls = class_of(bytes);
  if (cls >= kClasses) {
    ++a.stats.oversize;
    return ::operator new(bytes);
  }
  if (FreeNode* n = a.lists[cls]; n != nullptr) {
    a.lists[cls] = n->next;
    ++a.stats.reused;
    --a.stats.cached;
    return static_cast<void*>(n);
  }
  ++a.stats.fresh;
  return ::operator new((cls + 1) * kGranule);
#endif
}

void FramePool::deallocate(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
  if (bytes == 0) bytes = 1;
#if RDMASEM_ASAN
  ::operator delete(p);
#else
  Arena& a = arena();
  const std::size_t cls = class_of(bytes);
  if (cls >= kClasses) {
    ::operator delete(p);
    return;
  }
  auto* n = static_cast<FreeNode*>(p);
  n->next = a.lists[cls];
  a.lists[cls] = n;
  ++a.stats.cached;
#endif
}

FramePool::Stats FramePool::stats() { return arena().stats; }

void FramePool::trim() noexcept { arena().release_all(); }

}  // namespace rdmasem::sim
