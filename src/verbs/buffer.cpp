#include "verbs/buffer.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "util/sanitizer.hpp"

#ifndef MADV_POPULATE_WRITE
#define MADV_POPULATE_WRITE 23  // Linux 5.14 UAPI value
#endif

namespace rdmasem::verbs {

namespace {

std::size_t page_size() {
  static const std::size_t page =
      static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

// Maps `len` (a page multiple) bytes of anonymous memory starting on an
// `alignment` boundary: over-maps by the slack alignment needs, then
// unmaps it on both sides. The kernel zero-fills each page on first
// touch; untouched pages are never resident.
std::byte* map_aligned(std::size_t len, std::size_t alignment) {
  const std::size_t span = len + alignment - page_size();
  void* p = ::mmap(nullptr, span, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  RDMASEM_CHECK_MSG(p != MAP_FAILED, "buffer mapping failed");
  auto* base = static_cast<std::byte*>(p);
  const std::size_t head =
      -reinterpret_cast<std::uintptr_t>(base) & (alignment - 1);
  const std::size_t tail = span - head - len;
  if (head != 0) RDMASEM_CHECK(::munmap(base, head) == 0);
  if (tail != 0) RDMASEM_CHECK(::munmap(base + head + len, tail) == 0);
  return base + head;
}

// Has the kernel fault in [p, p + len) now, on 2 MiB pages where the range
// allows, so neither a zeroing pass nor first-touch faults land in the
// simulation. Kernels before 5.14 reject MADV_POPULATE_WRITE with EINVAL;
// writing one byte per page faults the range in the same way.
void prefault_huge(std::byte* p, std::size_t len) {
  ::madvise(p, len, MADV_HUGEPAGE);  // advisory: THP may be disabled
  if (::madvise(p, len, MADV_POPULATE_WRITE) == 0) return;
  RDMASEM_CHECK_MSG(errno == EINVAL, "buffer pre-fault failed");
  volatile std::byte* v = p;
  for (std::size_t off = 0; off < len; off += page_size())
    v[off] = std::byte{0};
}

}  // namespace

Buffer::Buffer(std::size_t size) : size_(size) {
  if (size == 0) return;
  // aligned_alloc wants the size to be a multiple of the alignment.
  const std::size_t rounded = (size + kAlignment - 1) / kAlignment * kAlignment;
  if (RDMASEM_ASAN || size < kHugePage) {
    data_ = static_cast<std::byte*>(std::aligned_alloc(kAlignment, rounded));
    RDMASEM_CHECK_MSG(data_ != nullptr, "buffer allocation failed");
    std::memset(data_, 0, rounded);
  } else {
    const std::size_t page = page_size();
    const bool prefault = size <= kPrefaultLimit;
    mapped_ = (rounded + page - 1) / page * page;
    data_ = map_aligned(mapped_, prefault ? kHugePage : kAlignment);
    if (prefault) prefault_huge(data_, mapped_);
  }
}

void Buffer::release() noexcept {
  if (mapped_ != 0)
    RDMASEM_CHECK(::munmap(data_, mapped_) == 0);
  else
    std::free(data_);
  data_ = nullptr;
  mapped_ = 0;
}

}  // namespace rdmasem::verbs
