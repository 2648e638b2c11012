#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "fault/fault.hpp"
#include "sim/engine.hpp"

namespace rdmasem::fault {

// FaultInjector — applies a FaultPlan on the virtual clock. Each event
// schedules a begin (and, for window faults, an end) engine event that
// mutates the FaultState; listeners observe both edges so higher layers
// can add effects the state alone cannot express (the cluster freezes
// RNIC pipeline resources on kNicStall, tests log transitions).
//
// Two construction modes:
//   * FaultInjector(engine, FaultState&)  — single shared state, mutated
//     on the scheduling lane. The standalone/serial mode tests use.
//   * FaultInjector(engine, FaultDomain&) — one edge event per lane, each
//     mutating that lane's replica. Listeners fire exactly once per edge,
//     on the faulted machine's lane (the lane that owns the RNIC the
//     listener touches).
//
// The injector only depends on sim + fault state: everything above net
// reacts through the state (fabric) or a listener (cluster), keeping the
// fault layer free of upward dependencies.
class FaultInjector {
 public:
  // `begin` is true at fault onset, false when a window fault lifts
  // (crash/restart are begin-only edges).
  using Listener = std::function<void(const FaultEvent&, bool begin)>;

  FaultInjector(sim::Engine& engine, FaultState& state)
      : engine_(engine), single_(&state) {}
  FaultInjector(sim::Engine& engine, FaultDomain& domain)
      : engine_(engine), domain_(&domain) {}
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  void add_listener(Listener l) { listeners_.push_back(std::move(l)); }

  // Schedules every event of `plan`. Events in the past fire at now()
  // (engine semantics). May be called multiple times; plans compose.
  void schedule(const FaultPlan& plan);

  // Immediate injection on every replica (used by tests and the schedule
  // machinery).
  void begin(const FaultEvent& ev);
  void end(const FaultEvent& ev);

  std::uint64_t injected() const { return injected_; }
  FaultState& state() {
    return single_ != nullptr ? *single_ : domain_->replica(0);
  }

 private:
  std::uint32_t lane_count() const {
    return domain_ != nullptr ? domain_->lanes() : 1;
  }
  FaultState& replica(std::uint32_t lane) {
    return single_ != nullptr ? *single_ : domain_->replica(lane);
  }
  // The lane whose replica event also notifies listeners and counts the
  // injection: the faulted machine's lane, so listener side effects run
  // where that machine's resources live.
  std::uint32_t notify_lane(const FaultEvent& ev) const {
    const std::uint32_t lane = ev.machine + 1;
    return lane < lane_count() ? lane : 0;
  }

  static void apply_begin(FaultState& st, const FaultEvent& ev);
  // Returns false for begin-only edges (crash/restart) that have no end.
  static bool apply_end(FaultState& st, const FaultEvent& ev);
  void begin_on(std::uint32_t lane, const FaultEvent& ev);
  void end_on(std::uint32_t lane, const FaultEvent& ev);
  void notify(const FaultEvent& ev, bool is_begin);

  sim::Engine& engine_;
  FaultState* single_ = nullptr;
  FaultDomain* domain_ = nullptr;
  std::vector<Listener> listeners_;
  std::uint64_t injected_ = 0;
};

}  // namespace rdmasem::fault
