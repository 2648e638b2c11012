#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

#include "util/assert.hpp"

namespace rdmasem::verbs {

// Base of the simulated RDMA address space (see Buffer::addr). Sits at
// 1<<46, far from the host heap/mmap regions, so raw-pointer MR
// registrations can never alias a simulated address.
inline constexpr std::uint64_t kSimVaBase = 1ull << 46;

// Buffer — zero-filled, aligned host memory suitable for registration as
// a memory region.
//
// Host memory comes from one of three tiers chosen by size
// (docs/PERF.md, "Host memory for registered regions"):
//   * below kHugePage: the heap (aligned_alloc, then zero-filled);
//   * kHugePage up to kPrefaultLimit: an anonymous mapping on 2 MiB
//     pages, pre-faulted by the kernel before the simulation runs;
//   * above kPrefaultLimit: an anonymous mapping left lazy, so pages the
//     simulation never touches never become resident.
// Residency is host cost only: the model charges translation in
// hw::MetadataCache and never reads where the bytes live. Under ASan every
// size takes the heap tier so redzones cover registered memory.
//
// The address handed to the RDMA layer (addr()) is NOT the host pointer:
// it comes from a deterministic, monotonically-growing simulated address
// space. The translation cache keys on page numbers and the DRAM model on
// row numbers, so address identity is model-visible state — deriving it
// from the host heap would leak the allocator's reuse pattern (and ASLR)
// into simulation results. Simulated addresses are never recycled, every
// buffer is row (8 KB) aligned, and consecutive buffers are separated by
// a guard row, so distinct buffers never share a page, row or cache line.
class Buffer {
 public:
  static constexpr std::size_t kHugePage = std::size_t{2} << 20;
  static constexpr std::size_t kPrefaultLimit = std::size_t{16} << 20;

  Buffer() = default;
  explicit Buffer(std::size_t size, std::size_t alignment = 8192);
  Buffer(Buffer&& o) noexcept
      : data_(std::exchange(o.data_, nullptr)),
        size_(std::exchange(o.size_, 0)),
        mapped_(std::exchange(o.mapped_, 0)),
        sim_addr_(std::exchange(o.sim_addr_, 0)) {}
  Buffer& operator=(Buffer&& o) noexcept {
    if (this != &o) {
      release();
      data_ = std::exchange(o.data_, nullptr);
      size_ = std::exchange(o.size_, 0);
      mapped_ = std::exchange(o.mapped_, 0);
      sim_addr_ = std::exchange(o.sim_addr_, 0);
    }
    return *this;
  }
  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;
  ~Buffer() { release(); }

  std::byte* data() { return data_; }
  const std::byte* data() const { return data_; }
  std::size_t size() const { return size_; }
  std::uint64_t addr() const { return sim_addr_; }
  std::span<std::byte> span() { return {data_, size_}; }
  std::span<const std::byte> span() const { return {data_, size_}; }

  template <typename T>
  T* as(std::size_t byte_offset = 0) {
    RDMASEM_CHECK(byte_offset + sizeof(T) <= size_);
    return reinterpret_cast<T*>(data_ + byte_offset);
  }

 private:
  // Process-wide bump allocator for the simulated address space.
  static std::uint64_t take_sim_va(std::size_t rounded, std::size_t alignment);
  void release() noexcept;

  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t mapped_ = 0;  // length of the mapping; 0 for a heap block
  std::uint64_t sim_addr_ = 0;
};

}  // namespace rdmasem::verbs
