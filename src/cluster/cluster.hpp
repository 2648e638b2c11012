#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "fault/injector.hpp"
#include "hw/coherence.hpp"
#include "hw/dram.hpp"
#include "hw/numa.hpp"
#include "hw/params.hpp"
#include "net/fabric.hpp"
#include "obs/hub.hpp"
#include "rnic/rnic.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"

namespace rdmasem::cluster {

using hw::MachineId;
using hw::SocketId;

// Machine — one dual-socket server of the paper's testbed: per-socket DRAM
// models + memory-channel bandwidth resources, a coherence model for local
// atomics, and one (multi-port) RNIC.
class Machine {
 public:
  Machine(sim::Engine& engine, const hw::ModelParams& params, MachineId id);
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  MachineId id() const { return id_; }
  const hw::NumaTopology& topo() const { return topo_; }
  rnic::Rnic& rnic() { return rnic_; }
  hw::DramModel& dram(SocketId s) { return *dram_.at(s); }
  sim::Resource& mem_channel(SocketId s) { return *mem_channel_.at(s); }
  hw::CoherenceModel& coherence() { return coherence_; }

  // Socket a given port's PCIe lane hangs off (multi-port NUMA binding).
  SocketId port_socket(rnic::PortId p) const { return topo_.port_socket(p); }

 private:
  MachineId id_;
  const hw::ModelParams& p_;
  hw::NumaTopology topo_;
  rnic::Rnic rnic_;
  hw::CoherenceModel coherence_;
  std::vector<std::unique_ptr<hw::DramModel>> dram_;
  std::vector<std::unique_ptr<sim::Resource>> mem_channel_;
};

// Cluster — the eight-machine testbed: machines plus the switch fabric.
// This is the root object every experiment builds first.
class Cluster {
 public:
  Cluster(sim::Engine& engine, hw::ModelParams params);

  sim::Engine& engine() { return engine_; }
  const hw::ModelParams& params() const { return p_; }
  net::Fabric& fabric() { return fabric_; }
  // Fault injection: the cluster owns the one fault state (consulted by
  // the fabric on every transit) and the injector that applies FaultPlans
  // to it. A NIC-stall listener registered at construction freezes the
  // stalled machine's RNIC pipeline resources for the stall window.
  fault::FaultState& faults() { return faults_; }
  fault::FaultInjector& injector() { return injector_; }
  // Convenience: schedule a whole plan on the virtual clock.
  void inject(const fault::FaultPlan& plan) { injector_.schedule(plan); }
  // Observability root: metrics registry (fabric/RNIC/memory gauges are
  // pre-registered at construction; layers push counters) and the per-WR
  // lifecycle tracer (off unless RDMASEM_TRACE=1 or set_enabled).
  obs::Hub& obs() { return obs_; }
  Machine& machine(MachineId m) { return *machines_.at(m); }
  std::uint32_t size() const {
    return static_cast<std::uint32_t>(machines_.size());
  }

  // Cluster-wide unique QP ids (metadata-cache keys must never alias).
  std::uint64_t next_qp_id() { return ++qp_id_; }

  // Simulated RDMA address for a new memory registration of `length`
  // bytes (docs/PERF.md, "Simulated addresses"). The translation cache
  // keys on page numbers and the DRAM model on row numbers, so addresses
  // are model state and belong to the cluster, never to the host heap.
  // A bump allocator from kSimVaBase: every region starts on a row,
  // is followed by one guard row and is never recycled, so no two
  // registrations share a page, row or cache line.
  static constexpr std::uint64_t kSimVaBase = std::uint64_t{1} << 46;
  std::uint64_t next_mr_addr(std::size_t length) {
    constexpr std::uint64_t kRow = 8192;
    const std::uint64_t addr = va_cursor_;
    va_cursor_ += (length + kRow - 1) / kRow * kRow + kRow;
    return addr;
  }

  // Visits every contended sim::Resource of the testbed in a fixed order
  // (machines: per-port EU/RX/atomic unit, RNIC DMA, per-socket memory
  // channels; then the fabric's per-(machine,port) tx/rx links). The obs
  // layer interns attribution ids against this walk at construction and
  // folds the per-resource wait tables from it at bench absorb time.
  template <typename Fn>
  void for_each_resource(Fn&& fn) {
    for (auto& mach : machines_) {
      auto& r = mach->rnic();
      for (rnic::PortId p = 0; p < r.port_count(); ++p) {
        fn(r.port(p).eu);
        fn(r.port(p).rx);
        fn(r.port(p).atomic_unit);
      }
      fn(r.dma());
      for (SocketId s = 0; s < p_.sockets_per_machine; ++s)
        fn(mach->mem_channel(s));
    }
    for (MachineId m = 0; m < size(); ++m)
      for (std::uint32_t p = 0; p < p_.rnic_ports; ++p) {
        fn(fabric_.tx_link(m, p));
        fn(fabric_.rx_link(m, p));
      }
  }

 private:
  void register_gauges();

  sim::Engine& engine_;
  hw::ModelParams p_;
  obs::Hub obs_;
  fault::FaultState faults_;
  fault::FaultInjector injector_;
  net::Fabric fabric_;
  std::vector<std::unique_ptr<Machine>> machines_;
  std::uint64_t qp_id_ = 0;
  std::uint64_t va_cursor_ = kSimVaBase;
};

}  // namespace rdmasem::cluster
