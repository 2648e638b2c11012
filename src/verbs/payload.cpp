#include "verbs/payload.hpp"

#include <new>

#include "hw/params.hpp"
#include "util/sanitizer.hpp"

// Pass staging buffers straight through to the global allocator under
// ASan so the sanitizer tracks every buffer lifetime (poisoning would be
// defeated by recycling). Mirrors FramePool.

namespace rdmasem::verbs {

// Inline-eligible payloads (<= rnic_max_inline) must also stage without
// touching the allocator, so the in-frame arm tracks the NIC default.
static_assert(PayloadBuf::kInlineBytes == hw::kMaxInlineDefault,
              "PayloadBuf inline arm must match the NIC inline ceiling");

namespace {

struct FreeNode {
  FreeNode* next;
};

struct Arena {
  FreeNode* lists[PayloadPool::kClasses] = {};
  PayloadPool::Stats stats;

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

Arena& arena() {
  thread_local Arena a;
  return a;
}

// Size class for `bytes` (bytes > 0), or >= kClasses when beyond the
// pooled range. Class c holds blocks of (c + 1) * kGranule bytes.
std::size_t class_of(std::size_t bytes) {
  return (bytes - 1) / PayloadPool::kGranule;
}

}  // namespace

std::byte* PayloadPool::acquire(std::size_t bytes) {
  if (bytes == 0) bytes = 1;
#if RDMASEM_ASAN
  return static_cast<std::byte*>(::operator new(bytes));
#else
  Arena& a = arena();
  const std::size_t cls = class_of(bytes);
  if (cls >= kClasses) {
    ++a.stats.oversize;
    return static_cast<std::byte*>(::operator new(bytes));
  }
  if (FreeNode* n = a.lists[cls]; n != nullptr) {
    a.lists[cls] = n->next;
    ++a.stats.reused;
    --a.stats.cached;
    return static_cast<std::byte*>(static_cast<void*>(n));
  }
  ++a.stats.fresh;
  return static_cast<std::byte*>(::operator new((cls + 1) * kGranule));
#endif
}

void PayloadPool::release(std::byte* p, std::size_t bytes) noexcept {
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
  auto* n = static_cast<FreeNode*>(static_cast<void*>(p));
  n->next = a.lists[cls];
  a.lists[cls] = n;
  ++a.stats.cached;
#endif
}

PayloadPool::Stats PayloadPool::stats() { return arena().stats; }

void PayloadPool::trim() noexcept { arena().release_all(); }

std::byte* PayloadBuf::stage(std::size_t n) {
  reset();
  bytes_ = n;
  if (n <= kInlineBytes) {
    route_ = Route::kInline;
    buf_ = inline_;
  } else if (class_of(n) < PayloadPool::kClasses) {
    route_ = Route::kPooled;
    buf_ = PayloadPool::acquire(n);
  } else {
    route_ = Route::kHeap;
    buf_ = static_cast<std::byte*>(::operator new(n));
  }
  return buf_;
}

void PayloadBuf::reset() noexcept {
  switch (route_) {
    case Route::kPooled:
      PayloadPool::release(buf_, bytes_);
      break;
    case Route::kHeap:
      ::operator delete(static_cast<void*>(buf_));
      break;
    default:
      break;
  }
  view_ = nullptr;
  buf_ = nullptr;
  bytes_ = 0;
  route_ = Route::kNone;
}

}  // namespace rdmasem::verbs
