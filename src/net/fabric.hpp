#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fault/fault.hpp"
#include "hw/params.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/task.hpp"

namespace rdmasem::net {

using MachineId = std::uint32_t;
using PortId = std::uint32_t;

// Fabric — the InfiniBand network: every (machine, port) has a full-duplex
// link to one central switch (the paper's 18-port InfiniScale-IV).
//
// A message transit models:
//   tx serialization  (sender link, FIFO resource at link_gbps)
//   propagation + one switch hop (pure latency)
//   rx serialization  (receiver link resource)
//
// Bandwidth contention on a host link therefore emerges when several QPs
// mapped to the same port transmit simultaneously.
//
// Transit is also where execution migrates between lanes: tx
// serialization runs on the sender machine's lane, the propagation+switch
// hop is a sim::hop() onto the receiver's lane, and rx serialization runs
// there.
class Fabric {
 public:
  Fabric(sim::Engine& engine, const hw::ModelParams& params,
         std::uint32_t machines, std::uint32_t ports_per_machine);

  // Moves `payload_bytes` (plus header overhead) from (src,sport) to
  // (dst,dport). Resumes the caller when the last byte lands at the
  // receiver's link. Loopback (same machine+port) is free of wire costs
  // but still pays switch-less local turnaround.
  sim::TaskT<void> transit(MachineId src, PortId sport, MachineId dst,
                           PortId dport, std::size_t payload_bytes);

  // Loss decision for a message that just transited src -> dst. Consults
  // the per-link fault state first (loss bursts, dead links, partitions,
  // crashed endpoints), then the global `net_loss_prob` calibration knob.
  // Draws the calling lane's RNG only when the effective probability is
  // positive, so lossless runs stay trace-identical to the pre-fault
  // simulator. Must be called on the receiver's lane (qp.cpp does).
  bool dropped(MachineId src, PortId sport, MachineId dst, PortId dport);

  // Attaches the cluster's fault domain; nullptr = lossless-lab behavior.
  // Each lane consults only its own replica (FaultDomain::current).
  void set_faults(const fault::FaultDomain* f) { faults_ = f; }
  const fault::FaultDomain* faults() const { return faults_; }

  sim::Resource& tx_link(MachineId m, PortId p) { return *tx_[index(m, p)]; }
  sim::Resource& rx_link(MachineId m, PortId p) { return *rx_[index(m, p)]; }

  std::uint64_t messages() const { return messages_; }
  std::uint64_t bytes() const { return bytes_; }
  std::uint64_t drops() const { return drops_; }
  // Drops attributed to the (m, p) -> switch uplink (the sender side of
  // the lost transit). Sums to drops() across all links.
  std::uint64_t link_drops(MachineId m, PortId p) const {
    return link_drops_[index(m, p)];
  }

 private:
  std::size_t index(MachineId m, PortId p) const {
    return static_cast<std::size_t>(m) * ports_ + p;
  }

  sim::Engine& engine_;
  const hw::ModelParams& p_;
  std::uint32_t ports_;
  std::vector<std::unique_ptr<sim::Resource>> tx_;
  std::vector<std::unique_ptr<sim::Resource>> rx_;
  const fault::FaultDomain* faults_ = nullptr;
  std::uint64_t messages_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t drops_ = 0;
  std::vector<std::uint64_t> link_drops_;  // indexed like tx_
};

}  // namespace rdmasem::net
