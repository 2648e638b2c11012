#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace rdmasem::fault {

// Deterministic fault model for the simulated fabric (see docs/FAULTS.md).
//
// The paper assumes a lossless lab InfiniBand network; production RDMA
// deployments do not get that luxury. This subsystem describes faults as
// data (FaultPlan), applies them on the virtual clock (FaultInjector,
// injector.hpp), and exposes the instantaneous fault picture (FaultState)
// that net::Fabric consults on every transit. Everything is a pure
// function of (plan, seed): two runs with the same plan and seed produce
// identical traces.

using MachineId = std::uint32_t;
using PortId = std::uint32_t;

enum class FaultKind : std::uint8_t {
  kLossBurst,     // per-link packet-loss override for a time window
  kLatencySpike,  // extra per-transit latency on a link for a window
  kLinkDown,      // one (machine, port) link dead for a window
  kPartition,     // all traffic between a machine pair blocked for a window
  kNicStall,      // the machine's RNIC pipeline frozen for a window
  kCrash,         // node down (all its links dead) from `at` onward...
  kRestart,       // ...until a matching restart brings its NIC back
};

const char* to_string(FaultKind k);

struct FaultEvent {
  FaultKind kind = FaultKind::kLossBurst;
  sim::Time at = 0;
  sim::Duration duration = 0;      // window faults; ignored by crash/restart
  MachineId machine = 0;           // primary endpoint
  PortId port = 0;                 // link-scoped faults
  MachineId peer = 0;              // kPartition: the second machine
  double loss_prob = 1.0;          // kLossBurst
  sim::Duration extra_latency = 0; // kLatencySpike
};

// Options for randomized chaos plans (FaultPlan::chaos).
struct ChaosOptions {
  std::uint32_t events = 16;
  double loss_prob_max = 0.5;
  sim::Duration window_max = sim::us(300);
  sim::Duration latency_max = sim::us(20);
  bool allow_crash = false;       // crash+restart pairs (heavyweight)
  MachineId spare_machine = ~0u;  // never crash/partition this machine
};

// FaultPlan — an ordered script of faults. Build it fluently:
//
//   fault::FaultPlan plan;
//   plan.loss_burst(sim::us(50), sim::us(200), /*machine=*/1, /*port=*/1, 0.3)
//       .crash(sim::ms(1), /*machine=*/0);
struct FaultPlan {
  std::vector<FaultEvent> events;

  FaultPlan& loss_burst(sim::Time at, sim::Duration dur, MachineId m, PortId p,
                        double prob);
  FaultPlan& latency_spike(sim::Time at, sim::Duration dur, MachineId m,
                           PortId p, sim::Duration extra);
  FaultPlan& link_down(sim::Time at, sim::Duration dur, MachineId m, PortId p);
  FaultPlan& partition(sim::Time at, sim::Duration dur, MachineId a,
                       MachineId b);
  FaultPlan& nic_stall(sim::Time at, sim::Duration dur, MachineId m);
  FaultPlan& crash(sim::Time at, MachineId m);
  FaultPlan& restart(sim::Time at, MachineId m);

  bool empty() const { return events.empty(); }
  std::size_t size() const { return events.size(); }

  using ChaosOptions = fault::ChaosOptions;

  // Draws `opts.events` transient faults uniformly over [0, horizon) from
  // `rng`. Deterministic: the plan is a pure function of (rng state, opts).
  static FaultPlan chaos(sim::Rng& rng, sim::Time horizon,
                         std::uint32_t machines, std::uint32_t ports,
                         const ChaosOptions& opts = {});
};

// Per-link fault overrides. `down` and the partition/crash sets are
// refcounts so overlapping windows nest correctly.
struct LinkFault {
  double loss_prob = -1.0;         // < 0: no override (use the global knob)
  sim::Duration extra_latency = 0;
  std::uint32_t down = 0;
};

// FaultState — the instantaneous fault picture, mutated only by the
// FaultInjector and read by net::Fabric on every transit. A cluster owns
// exactly one, shared by every lane: the engine is serial, and each edge
// is one engine event, so every transit at a given virtual instant sees
// the same picture. `active()` is the fast path: when no fault was ever
// injected, transit consults one counter and pays nothing else.
class FaultState {
 public:
  FaultState(std::uint32_t machines, std::uint32_t ports_per_machine);

  std::uint32_t machines() const { return machines_; }
  std::uint32_t ports() const { return ports_; }

  LinkFault& link(MachineId m, PortId p) { return links_[index(m, p)]; }
  const LinkFault& link(MachineId m, PortId p) const {
    return links_[index(m, p)];
  }

  bool machine_down(MachineId m) const { return crashed_[m] > 0; }
  void crash(MachineId m);
  void restore(MachineId m);

  void add_partition(MachineId a, MachineId b);
  void remove_partition(MachineId a, MachineId b);
  bool partitioned(MachineId a, MachineId b) const;

  // True when no path exists between the endpoints: either end crashed,
  // either link administratively down, or the pair partitioned.
  bool blocked(MachineId src, PortId sport, MachineId dst, PortId dport) const;

  // Effective extra one-way latency for a transit (both endpoint links).
  sim::Duration extra_latency(MachineId src, PortId sport, MachineId dst,
                              PortId dport) const;

  // Effective loss probability override for a transit; < 0 means "no
  // override, use ModelParams::net_loss_prob". The worse endpoint wins.
  double loss_override(MachineId src, PortId sport, MachineId dst,
                       PortId dport) const;

  // Zero-cost guard for the no-faults case.
  bool active() const { return active_ > 0; }
  void retain() { ++active_; }
  void release() { --active_; }

 private:
  std::size_t index(MachineId m, PortId p) const {
    return static_cast<std::size_t>(m) * ports_ + p;
  }

  std::uint32_t machines_;
  std::uint32_t ports_;
  std::vector<LinkFault> links_;
  std::vector<std::uint32_t> crashed_;
  // Partition refcounts keyed by the normalized (lo, hi) machine pair.
  std::unordered_map<std::uint64_t, std::uint32_t> partitions_;
  std::uint64_t active_ = 0;
};

}  // namespace rdmasem::fault
