#include "net/fabric.hpp"

namespace rdmasem::net {

Fabric::Fabric(sim::Engine& engine, const hw::ModelParams& params,
               std::uint32_t machines, std::uint32_t ports_per_machine)
    : engine_(engine), p_(params), ports_(ports_per_machine) {
  const std::size_t n = static_cast<std::size_t>(machines) * ports_;
  tx_.reserve(n);
  rx_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    tx_.push_back(std::make_unique<sim::Resource>(engine_, 1, "link_tx"));
    rx_.push_back(std::make_unique<sim::Resource>(engine_, 1, "link_rx"));
  }
  link_drops_.assign(n, 0);
}

Leg Fabric::transit(MachineId src, PortId sport, MachineId dst, PortId dport,
                    std::size_t payload_bytes) {
  ++messages_;
  bytes_ += payload_bytes;
  if (src == dst && sport == dport) {
    // RNIC-internal loopback: no switch, no cable; just the port turnaround.
    return {0, p_.net_switch_hop, 0, true};
  }
  Leg leg;
  leg.wire = p_.wire_time(payload_bytes);
  leg.hop = p_.hop_latency(src, dst);
  if (faults_ != nullptr && faults_->active())
    leg.hop += faults_->extra_latency(src, sport, dst, dport);
  // On a bare engine (no cluster lanes) the destination lane collapses to
  // lane 0 and the hop is a plain delay there.
  leg.dst_lane = dst + 1 < engine_.lanes() ? dst + 1 : 0;
  return leg;
}

bool Fabric::dropped(MachineId src, PortId sport, MachineId dst, PortId dport) {
  double prob = p_.net_loss_prob;
  if (faults_ != nullptr && faults_->active()) {
    if (faults_->blocked(src, sport, dst, dport)) {
      ++drops_;
      ++link_drops_[index(src, sport)];
      return true;  // no path: crashed node, dead link or partition
    }
    const double burst = faults_->loss_override(src, sport, dst, dport);
    if (burst >= 0.0) prob = burst;
  }
  if (prob <= 0.0) return false;
  const bool lost = engine_.rng().chance(prob);
  if (lost) {
    ++drops_;
    ++link_drops_[index(src, sport)];
  }
  return lost;
}

}  // namespace rdmasem::net
