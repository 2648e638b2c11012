#pragma once

#include <coroutine>
#include <cstdint>

#include "cluster/cluster.hpp"
#include "remem/outcome.hpp"
#include "sim/task.hpp"
#include "util/ring.hpp"
#include "verbs/buffer.hpp"
#include "verbs/qp.hpp"

namespace rdmasem::remem {

// Exponential backoff (Anderson-style) for contended lock acquisition
// (§III-E: "we also improve remote spinlock with exponential back-off").
struct BackoffPolicy {
  bool enabled = false;
  sim::Duration base = sim::ns(400);
  sim::Duration max = sim::us(60);
  double factor = 2.0;

  static BackoffPolicy none() { return {}; }
  static BackoffPolicy exponential() { return {true, sim::ns(400), sim::us(60), 2.0}; }

  sim::Duration delay_for(std::uint32_t attempt) const {
    if (!enabled || attempt == 0) return 0;
    double d = static_cast<double>(base);
    for (std::uint32_t i = 1; i < attempt; ++i) d *= factor;
    const auto out = static_cast<sim::Duration>(d);
    return out > max ? max : out;
  }
};

// RemoteSpinlock — a spinlock in remote memory driven by RDMA
// compare-and-swap. lock() spins with CAS(0 -> 1); unlock() writes 0.
// One instance per *client* (it owns a private scratch MR for the CAS
// result); many instances may target the same remote word.
class RemoteSpinlock {
 public:
  RemoteSpinlock(verbs::QueuePair& qp, std::uint64_t remote_addr,
                 std::uint32_t rkey, BackoffPolicy backoff = {});

  // Acquires the lock; returns the number of CAS attempts used, or the
  // failing verbs status once the QP dies (faults).
  sim::TaskT<Outcome<std::uint32_t>> lock();
  sim::TaskT<verbs::Status> unlock();

  std::uint64_t acquisitions() const { return acquisitions_; }
  std::uint64_t cas_attempts() const { return cas_attempts_; }

 private:
  verbs::QueuePair& qp_;
  std::uint64_t remote_addr_;
  std::uint32_t rkey_;
  BackoffPolicy backoff_;
  verbs::Buffer scratch_;
  verbs::MemoryRegion* scratch_mr_;
  std::uint64_t acquisitions_ = 0;
  std::uint64_t cas_attempts_ = 0;
};

// RemoteLockClient — like RemoteSpinlock but for MANY lock words: one
// scratch MR serves CAS/unlock against arbitrary remote addresses (e.g.
// the per-block locks of the disaggregated hashtable's hot area).
class RemoteLockClient {
 public:
  explicit RemoteLockClient(verbs::QueuePair& qp, BackoffPolicy backoff = {});

  sim::TaskT<Outcome<std::uint32_t>> lock(std::uint64_t remote_addr,
                                          std::uint32_t rkey);
  sim::TaskT<verbs::Status> unlock(std::uint64_t remote_addr,
                                   std::uint32_t rkey);

  std::uint64_t acquisitions() const { return acquisitions_; }
  std::uint64_t cas_attempts() const { return cas_attempts_; }

 private:
  verbs::QueuePair& qp_;
  BackoffPolicy backoff_;
  verbs::Buffer scratch_;
  verbs::MemoryRegion* scratch_mr_;
  std::uint64_t acquisitions_ = 0;
  std::uint64_t cas_attempts_ = 0;
};

// RemoteSequencer — a monotonically increasing counter in remote memory
// driven by RDMA fetch-and-add (one instance per client, like the lock).
class RemoteSequencer {
 public:
  RemoteSequencer(verbs::QueuePair& qp, std::uint64_t remote_addr,
                  std::uint32_t rkey);

  // Returns the ticket (the pre-increment value).
  sim::TaskT<Outcome<std::uint64_t>> next(std::uint64_t delta = 1);

 private:
  verbs::QueuePair& qp_;
  std::uint64_t remote_addr_;
  std::uint32_t rkey_;
  verbs::Buffer scratch_;
  verbs::MemoryRegion* scratch_mr_;
};

// LocalSpinlock — the GCC __sync_compare_and_swap baseline, timed by the
// coherence model: contended CAS cost grows with the number of spinning
// threads (cache-line ping-pong), which is what melts the local lock down
// in Fig. 10a. The lock word is identified by a line id, shared by all
// clients of the same lock.
class LocalSpinlock {
 public:
  LocalSpinlock(sim::Engine& engine, cluster::Machine& machine,
                std::uint64_t line, BackoffPolicy backoff = {});

  sim::TaskT<std::uint32_t> lock(hw::SocketId my_socket);
  sim::TaskT<void> unlock(hw::SocketId my_socket);
  bool held() const { return held_; }

 private:
  struct SpinAwaiter {
    LocalSpinlock& l;
    bool await_ready() const noexcept { return !l.held_; }
    void await_suspend(std::coroutine_handle<> h) { l.spinners_.push_back(h); }
    void await_resume() const noexcept {}
  };

  sim::Engine& engine_;
  cluster::Machine& machine_;
  std::uint64_t line_;
  BackoffPolicy backoff_;
  bool held_ = false;
  hw::SocketId home_socket_ = 0;  // socket of the last owner (line home)
  // Test-and-test-and-set spinners parked until the next release. The
  // spin-read traffic itself is local to each core's cache (shared line),
  // so parking models TTAS with the right cost and bounded events.
  util::Ring<std::coroutine_handle<>, 8> spinners_;
};

// LocalSequencer — __sync_fetch_and_add baseline on one cache line.
class LocalSequencer {
 public:
  LocalSequencer(sim::Engine& engine, cluster::Machine& machine,
                 std::uint64_t line);

  sim::TaskT<std::uint64_t> next(hw::SocketId my_socket);
  // Benchmarks register steady hammerers so the coherence model sees the
  // real contention level.
  void add_contender() { machine_.coherence().add_contender(line_); }
  void remove_contender() { machine_.coherence().remove_contender(line_); }

 private:
  sim::Engine& engine_;
  cluster::Machine& machine_;
  std::uint64_t line_;
  std::uint64_t value_ = 0;
};

}  // namespace rdmasem::remem
