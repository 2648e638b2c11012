#pragma once

#include <cstddef>
#include <span>
#include <utility>

#include "util/assert.hpp"

namespace rdmasem::verbs {

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
// A Buffer is host memory only. The RDMA address of a region registered
// over it comes from the cluster at registration (Context::register_buffer,
// Cluster::next_mr_addr), so where the bytes live never reaches the model.
class Buffer {
 public:
  static constexpr std::size_t kHugePage = std::size_t{2} << 20;
  static constexpr std::size_t kPrefaultLimit = std::size_t{16} << 20;
  static constexpr std::size_t kAlignment = 8192;  // of data(), every tier

  Buffer() = default;
  explicit Buffer(std::size_t size);
  Buffer(Buffer&& o) noexcept
      : data_(std::exchange(o.data_, nullptr)),
        size_(std::exchange(o.size_, 0)),
        mapped_(std::exchange(o.mapped_, 0)) {}
  Buffer& operator=(Buffer&& o) noexcept {
    if (this != &o) {
      release();
      data_ = std::exchange(o.data_, nullptr);
      size_ = std::exchange(o.size_, 0);
      mapped_ = std::exchange(o.mapped_, 0);
    }
    return *this;
  }
  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;
  ~Buffer() { release(); }

  std::byte* data() { return data_; }
  const std::byte* data() const { return data_; }
  std::size_t size() const { return size_; }
  std::span<std::byte> span() { return {data_, size_}; }
  std::span<const std::byte> span() const { return {data_, size_}; }

  template <typename T>
  T* as(std::size_t byte_offset = 0) {
    RDMASEM_CHECK(byte_offset + sizeof(T) <= size_);
    return reinterpret_cast<T*>(data_ + byte_offset);
  }

 private:
  void release() noexcept;

  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t mapped_ = 0;  // length of the mapping; 0 for a heap block
};

}  // namespace rdmasem::verbs
