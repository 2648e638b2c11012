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

sim::TaskT<void> Fabric::transit(MachineId src, PortId sport, MachineId dst,
                                 PortId dport, std::size_t payload_bytes) {
  ++messages_;
  bytes_ += payload_bytes;
  const sim::Duration wire = p_.wire_time(payload_bytes);
  if (src == dst && sport == dport) {
    // RNIC-internal loopback: no switch, no cable; just the port turnaround.
    co_await sim::delay(engine_, p_.net_switch_hop);
    co_return;
  }
  sim::Duration hop = p_.hop_latency(src, dst);
  // Congestion / rerouting faults show up as extra propagation latency;
  // read on the sender's lane, before the hop.
  if (faults_ != nullptr && faults_->current().active())
    hop += faults_->current().extra_latency(src, sport, dst, dport);
  co_await tx_link(src, sport).use(wire);
  // Propagation + switching carries execution from the sender's lane to
  // the receiver's. On a bare engine (no cluster lanes) the destination
  // lane collapses to the current one and this is a plain delay.
  const std::uint32_t dst_lane = dst + 1 < engine_.lanes() ? dst + 1 : 0;
  co_await sim::hop(engine_, dst_lane, hop);
  co_await rx_link(dst, dport).use(wire);
}

bool Fabric::dropped(MachineId src, PortId sport, MachineId dst, PortId dport) {
  double prob = p_.net_loss_prob;
  if (faults_ != nullptr && faults_->current().active()) {
    const fault::FaultState& st = faults_->current();
    if (st.blocked(src, sport, dst, dport)) {
      ++drops_;
      ++link_drops_[index(src, sport)];
      return true;  // no path: crashed node, dead link or partition
    }
    const double burst = st.loss_override(src, sport, dst, dport);
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
