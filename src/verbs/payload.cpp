#include "verbs/payload.hpp"

#include <new>

#include "hw/params.hpp"

namespace rdmasem::verbs {

// Inline-eligible payloads (<= rnic_max_inline) must also stage without
// touching the allocator, so the in-frame arm tracks the NIC default.
static_assert(PayloadBuf::kInlineBytes == hw::kMaxInlineDefault,
              "PayloadBuf inline arm must match the NIC inline ceiling");

std::byte* PayloadBuf::stage(std::size_t n) {
  reset();
  bytes_ = n;
  if (n <= kInlineBytes) {
    route_ = Route::kInline;
    buf_ = inline_;
  } else if (n <= PayloadPool::kMaxBytes) {
    route_ = Route::kPooled;
    buf_ = static_cast<std::byte*>(PayloadPool::allocate(n));
  } else {
    route_ = Route::kHeap;
    buf_ = static_cast<std::byte*>(::operator new(n));
  }
  return buf_;
}

void PayloadBuf::reset() noexcept {
  switch (route_) {
    case Route::kPooled:
      PayloadPool::deallocate(buf_, bytes_);
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
