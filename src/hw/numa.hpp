#pragma once

#include <cstdint>

#include "hw/params.hpp"

namespace rdmasem::hw {

// SocketId / MachineId — plain typed ids used across the stack.
using SocketId = std::uint32_t;
using MachineId = std::uint32_t;

// NumaTopology — static placement facts for one machine: how many sockets,
// where the RNIC hangs, and the inter-socket cost deltas. The dynamic
// side (memory channel bandwidth as a shared Resource) lives in
// cluster::Machine; this class only answers placement questions.
class NumaTopology {
 public:
  explicit NumaTopology(const ModelParams& p) : p_(p) {}

  std::uint32_t sockets() const { return p_.sockets_per_machine; }
  SocketId rnic_socket() const { return p_.rnic_socket; }

  // Extra latency a CPU on `core_socket` pays to reach memory on
  // `mem_socket` (0 if local).
  sim::Duration cpu_mem_penalty(SocketId core_socket,
                                SocketId mem_socket) const {
    return core_socket == mem_socket
               ? 0
               : p_.mem_remote_socket_latency - p_.mem_local_latency;
  }

  // Extra latency a DMA from the RNIC on `port_socket` pays to reach host
  // memory on `mem_socket`.
  sim::Duration dma_mem_penalty(SocketId port_socket,
                                SocketId mem_socket) const {
    return port_socket == mem_socket ? 0 : p_.pcie_dma_alt_socket;
  }

  // Extra MMIO cost for a core on `core_socket` ringing a doorbell on an
  // RNIC port attached to `port_socket`.
  sim::Duration mmio_penalty(SocketId core_socket,
                             SocketId port_socket) const {
    return core_socket == port_socket ? 0 : p_.cpu_mmio_alt_socket;
  }

  // In the multi-port configuration of §III-D each port is bound to one
  // socket: port i -> socket i % sockets.
  SocketId port_socket(std::uint32_t port) const {
    return port % p_.sockets_per_machine;
  }

 private:
  const ModelParams& p_;
};

}  // namespace rdmasem::hw
