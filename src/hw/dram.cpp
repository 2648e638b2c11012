#include "hw/dram.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace rdmasem::hw {

DramModel::DramModel(const ModelParams& p) : p_(p) {
  RDMASEM_CHECK(p_.dram_banks >= 1);
  open_.reserve(p_.dram_banks);
}

void DramModel::reset() {
  open_.clear();
  last_line_ = ~std::uint64_t{0};
  row_hits_ = 0;
  row_misses_ = 0;
}

sim::Duration DramModel::access(std::uint64_t addr, std::size_t size, Op op,
                                bool from_same_socket) {
  const std::uint64_t first_line = addr / p_.dram_line_bytes;
  const std::uint64_t last = (addr + (size ? size - 1 : 0)) / p_.dram_line_bytes;

  sim::Duration total = 0;
  std::uint32_t pending_misses = 0;
  for (std::uint64_t line = first_line; line <= last; ++line) {
    if (line == last_line_) {
      total += p_.dram_line_hit;
      continue;
    }
    const std::uint64_t byte = line * p_.dram_line_bytes;
    const std::uint64_t row = byte / p_.dram_row_bytes;
    const auto it = std::find(open_.begin(), open_.end(), row);
    if (it != open_.end()) {
      ++row_hits_;
      std::copy_backward(open_.begin(), it, it + 1);
      open_.front() = row;
      total += p_.dram_row_hit;
    } else {
      ++row_misses_;
      if (open_.size() >= p_.dram_banks) open_.pop_back();
      open_.insert(open_.begin(), row);
      // Independent row misses overlap up to the MLP width.
      if (++pending_misses % p_.dram_mlp == 1 || p_.dram_mlp == 1)
        total += p_.dram_row_miss;
      else
        total += p_.dram_row_hit;
    }
  }
  last_line_ = last;

  // Writes retire through the store buffer: cheaper than demand reads.
  if (op == Op::kWrite) total = total * 3 / 4;

  // NUMA: remote-socket accesses add the latency delta once per request
  // and scale by the bandwidth ratio.
  if (!from_same_socket) {
    total += p_.mem_remote_socket_latency - p_.mem_local_latency;
    total = static_cast<sim::Duration>(
        static_cast<double>(total) *
        (p_.mem_local_gbps / p_.mem_remote_socket_gbps));
  }

  // Bandwidth floor for bulk sizes.
  const double gbps =
      from_same_socket ? p_.mem_local_gbps : p_.mem_remote_socket_gbps;
  total = std::max(total, ModelParams::ser_time(size, gbps));
  return total;
}

sim::Duration DramModel::stream(std::size_t size, bool from_same_socket) const {
  const double gbps =
      from_same_socket ? p_.mem_local_gbps : p_.mem_remote_socket_gbps;
  const sim::Duration lat =
      from_same_socket ? p_.mem_local_latency : p_.mem_remote_socket_latency;
  // Pipelined streaming hides most of the first-access latency; charge a
  // quarter of it as ramp-up plus pure serialization.
  return lat / 4 + ModelParams::ser_time(size, gbps);
}

sim::Duration DramModel::idle_latency(bool from_same_socket) const {
  return from_same_socket ? p_.mem_local_latency
                          : p_.mem_remote_socket_latency;
}

}  // namespace rdmasem::hw
