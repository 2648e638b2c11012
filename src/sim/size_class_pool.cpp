#include "sim/size_class_pool.hpp"

#include <new>

#include "util/sanitizer.hpp"

// Pass blocks straight through to the global allocator under ASan so the
// sanitizer tracks every lifetime (poisoning/quarantine would be defeated
// by recycling).

namespace rdmasem::sim {

namespace {

struct FreeNode {
  FreeNode* next;
};

template <typename Pool>
struct Arena {
  FreeNode* lists[Pool::kClasses] = {};
  typename Pool::Stats stats;

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
template <typename Pool>
Arena<Pool>& arena() {
  thread_local Arena<Pool> a;
  return a;
}

}  // namespace

template <std::size_t G, std::size_t C>
void* SizeClassPool<G, C>::allocate(std::size_t bytes) {
  if (bytes == 0) bytes = 1;
#if RDMASEM_ASAN
  return ::operator new(bytes);
#else
  auto& a = arena<SizeClassPool>();
  const std::size_t cls = (bytes - 1) / G;  // holds blocks of (cls + 1) * G
  if (cls >= C) {
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
  return ::operator new((cls + 1) * G);
#endif
}

template <std::size_t G, std::size_t C>
void SizeClassPool<G, C>::deallocate(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
  if (bytes == 0) bytes = 1;
#if RDMASEM_ASAN
  ::operator delete(p);
#else
  auto& a = arena<SizeClassPool>();
  const std::size_t cls = (bytes - 1) / G;
  if (cls >= C) {
    ::operator delete(p);
    return;
  }
  auto* n = static_cast<FreeNode*>(p);
  n->next = a.lists[cls];
  a.lists[cls] = n;
  ++a.stats.cached;
#endif
}

template <std::size_t G, std::size_t C>
typename SizeClassPool<G, C>::Stats SizeClassPool<G, C>::stats() {
  return arena<SizeClassPool>().stats;
}

template <std::size_t G, std::size_t C>
void SizeClassPool<G, C>::trim() noexcept {
  arena<SizeClassPool>().release_all();
}

template class SizeClassPool<64, 128>;   // sim::FramePool
template class SizeClassPool<256, 256>;  // verbs::PayloadPool

}  // namespace rdmasem::sim
