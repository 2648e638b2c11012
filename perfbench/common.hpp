#pragma once

// Shared pieces of the benchmark program: host timers, the per-pass record
// every workload fills, and the fold that reads one finished cluster's
// public counters into it.

#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secs_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Adds the host seconds of its scope to `acc`: the benchmark wraps each call
// into a library layer in one of these, so every host-time figure is taken
// from outside the library.
class ScopedTimer {
 public:
  explicit ScopedTimer(double& acc) : acc_(acc), t0_(Clock::now()) {}
  ~ScopedTimer() { acc_ += secs_since(t0_); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  double& acc_;
  Clock::time_point t0_;
};

// FNV-1a over 64-bit words: the determinism digest of a pass's simulated
// outputs.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 1099511628211ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

// Busy time, capacity, queueing wait and request count summed over one
// class of sim::Resource (execution units, DMA engines, links, ...).
struct ResourceClass {
  std::uint64_t busy_ps = 0;
  std::uint64_t avail_ps = 0;  // servers x simulated span, active ones only
  std::uint64_t wait_ps = 0;
  std::uint64_t requests = 0;

  double busy_share() const {
    return avail_ps ? static_cast<double>(busy_ps) / avail_ps : 0.0;
  }
  double wait_ps_per_req() const {
    return requests ? static_cast<double>(wait_ps) / requests : 0.0;
  }
};

// The host-speed reference: a fixed discrete-event loop (a binary heap of
// 64k timestamped events, popped and re-pushed 200k times) that shares no
// code with the library. The host this benchmark runs on is shared, and
// other tenants slow it for tens of seconds at a time; this loop slows with
// them about as much as the simulator does. Timing it between passes lets
// the benchmark scale host times to a steady host, so a change to the
// library shows while a change in the neighbours' load does not.
//
// What one sample takes, by definition, on the steady host that scaled host
// times refer to: about its median on a 4-vCPU Xeon VM.
inline constexpr double kReferenceNominalS = 0.045;
// Runs the reference loop once and returns its host seconds.
double reference_sample();

// One pass over a workload's simulations.
struct PassStats {
  bool traced = false;
  std::vector<double> reference_s;  // reference_sample()s after the pass

  // Host seconds, each timed around the benchmark's calls into one layer.
  double cluster_setup_s = 0;  // Rig / Cluster constructor
  double mr_setup_s = 0;       // Buffer + register_buffer
  double qp_setup_s = 0;       // create_qp + connect
  double apps_setup_s = 0;     // Shuffle / DisaggHashTable / add_front_end
  double run_s = 0;            // the calls that drive Engine::run
  double verify_s = 0;         // output checks
  double fold_s = 0;           // critical-path fold of the traced spans
  std::vector<double> point_run_s;    // run_s of each simulation
  std::vector<double> point_setup_s;  // setup_s() of each simulation

  // Simulated time and counters: a pure function of the seed in the first
  // pass of a process.
  std::uint64_t sim_ps = 0;
  std::uint64_t events = 0;
  std::uint64_t inline_grants = 0;
  std::uint64_t max_queue_depth = 0;
  std::uint64_t wr_posted = 0;
  std::uint64_t wr_failed = 0;
  std::uint64_t zero_copy = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  ResourceClass eu, atomic, pcie, dram, link;
  std::uint64_t mcache_stall_ps = 0;
  std::uint64_t mcache_hits = 0;
  std::uint64_t mcache_misses = 0;
  std::uint64_t net_messages = 0;
  std::uint64_t net_bytes = 0;
  std::uint64_t cons_staged = 0;
  std::uint64_t cons_merges = 0;
  std::uint64_t cons_flushes = 0;
  std::uint64_t proxy_hops = 0;
  std::uint64_t proxy_direct = 0;
  std::uint64_t cas_attempts = 0;
  std::uint64_t cas_failures = 0;

  // Plane-2 engine profile and trace volume (traced passes only).
  std::uint64_t dispatch_ns = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t spans = 0;

  // Application operations attempted, and output checks that failed.
  std::uint64_t ops = 0;
  std::uint64_t check_failures = 0;

  Digest digest;

  double setup_s() const {
    return cluster_setup_s + mr_setup_s + qp_setup_s + apps_setup_s;
  }
};

// Turns on the lifecycle tracer and the engine's host-time profile for a
// traced pass (both through their public setters), or leaves them off.
void set_tracing(rdmasem::cluster::Cluster& c, bool on);

// Reads one finished simulation's engine profile, metrics registry,
// resources and stats report into `st`, and digests the deterministic
// part. Call once per cluster, after its last Engine::run.
void absorb(rdmasem::cluster::Cluster& c, PassStats& st);

// One workload: inputs are generated once per process from the seed, then
// the benchmark calls pass() repeatedly. Every pass builds fresh clusters, so
// the modelled caches start empty each time.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void generate(std::uint64_t seed) = 0;
  // `corrupt` flips one byte of simulated output before the check runs
  // (self-test of the output check).
  virtual void pass(PassStats& st, bool corrupt) = 0;
  // How far this workload's run time moves when the host slows, relative to
  // the host-speed reference: the slope of log(run time) on log(reference
  // time) across runs on the defining VM. Run times are scaled by
  // host_scale raised to this power.
  virtual double host_sensitivity() const { return 1.0; }
};

// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace perfbench
