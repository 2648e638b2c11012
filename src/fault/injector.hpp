#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "fault/fault.hpp"
#include "sim/engine.hpp"

namespace rdmasem::fault {

// FaultInjector — applies a FaultPlan on the virtual clock. Each event
// schedules one begin (and, for window faults, one end) engine event that
// mutates the FaultState; listeners observe both edges so higher layers
// can add effects the state alone cannot express (the cluster freezes
// RNIC pipeline resources on kNicStall, tests log transitions). Edge
// events run on the faulted machine's lane (the lane that owns the RNIC
// a listener touches), so listeners fire exactly once per edge, there.
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
      : engine_(engine), state_(state) {}
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  void add_listener(Listener l) { listeners_.push_back(std::move(l)); }

  // Schedules every event of `plan`. Events in the past fire at now()
  // (engine semantics). May be called multiple times; plans compose.
  void schedule(const FaultPlan& plan);

  // Immediate injection: applies one edge to the state and notifies the
  // listeners. The events schedule() pushes call exactly these.
  void begin(const FaultEvent& ev);
  void end(const FaultEvent& ev);

  std::uint64_t injected() const { return injected_; }
  FaultState& state() { return state_; }

 private:
  // The lane an edge event runs on: the faulted machine's lane, so
  // listener side effects run where that machine's resources live (lane 0
  // on a bare engine without machine lanes).
  std::uint32_t notify_lane(const FaultEvent& ev) const {
    const std::uint32_t lane = ev.machine + 1;
    return lane < engine_.lanes() ? lane : 0;
  }

  static void apply_begin(FaultState& st, const FaultEvent& ev);
  // Returns false for begin-only edges (crash/restart) that have no end.
  static bool apply_end(FaultState& st, const FaultEvent& ev);
  void notify(const FaultEvent& ev, bool is_begin);

  sim::Engine& engine_;
  FaultState& state_;
  std::vector<Listener> listeners_;
  std::uint64_t injected_ = 0;
};

}  // namespace rdmasem::fault
