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

// WordClient — one client's path to 8-byte words in remote memory: the
// READ, WRITE, CAS and FAA that the remote locks, leases and sequencers
// are built from. It owns the client's one 64 B scratch line, registered
// on the socket of the QP's port. Each op builds its WR and returns
// qp.execute()'s task: the ops are plain functions, not coroutines, so
// they cost no frame of their own.
//
// Scratch map, one slot per op kind:
//   [0, 8)    atomic result (cas / faa)
//   [8, 24)   qnode staging (write_pair)
//   [32, 40)  READ landing (read_value)
//   [40, 48)  word staging (write)
// The staging slots must stay apart from the result slot: a release
// write's payload is read at its remote landing, and a CAS issued on the
// same client meanwhile (the hashtable's async flushes overlap a lock
// with an unlock) lands its old value into the result slot. Ops of one
// kind share their slot, so writes in flight at once on one client must
// stage the same value (lock releases all write 0).
class WordClient {
 public:
  explicit WordClient(verbs::QueuePair& qp);

  verbs::QueuePair& qp() const { return qp_; }

  sim::TaskT<verbs::Completion> read(std::uint64_t raddr, std::uint32_t rkey);
  // The word the last completed read() landed.
  std::uint64_t read_value() { return *scratch_.as<std::uint64_t>(kRead); }
  sim::TaskT<verbs::Completion> write(std::uint64_t raddr, std::uint32_t rkey,
                                      std::uint64_t v);
  // Writes two adjacent words (an MCS qnode: next, locked) in one WR.
  sim::TaskT<verbs::Completion> write_pair(std::uint64_t raddr,
                                           std::uint32_t rkey,
                                           std::uint64_t first,
                                           std::uint64_t second);
  sim::TaskT<verbs::Completion> cas(std::uint64_t raddr, std::uint32_t rkey,
                                    std::uint64_t compare, std::uint64_t swap);
  sim::TaskT<verbs::Completion> faa(std::uint64_t raddr, std::uint32_t rkey,
                                    std::uint64_t delta);

 private:
  // Byte offsets of the scratch map above.
  static constexpr std::size_t kResult = 0, kQnode = 8, kRead = 32, kWord = 40;

  sim::TaskT<verbs::Completion> execute(verbs::Opcode op, std::size_t slot,
                                        std::uint32_t len, std::uint64_t raddr,
                                        std::uint32_t rkey,
                                        std::uint64_t compare = 0,
                                        std::uint64_t swap_or_add = 0);

  verbs::QueuePair& qp_;
  verbs::Buffer scratch_;
  verbs::MemoryRegion* scratch_mr_;
};

// RemoteLockClient — the paper's spinlock in remote memory driven by RDMA
// compare-and-swap: lock() spins with CAS(0 -> 1), unlock() writes 0. One
// instance per *client*; it serves any number of lock words (e.g. the
// per-block locks of the disaggregated hashtable's hot area), and many
// clients may target the same word.
class RemoteLockClient {
 public:
  explicit RemoteLockClient(verbs::QueuePair& qp, BackoffPolicy backoff = {});

  // Acquires the lock; returns the number of CAS attempts used, or the
  // failing verbs status once the QP dies (faults).
  sim::TaskT<Outcome<std::uint32_t>> lock(std::uint64_t remote_addr,
                                          std::uint32_t rkey);
  sim::TaskT<verbs::Status> unlock(std::uint64_t remote_addr,
                                   std::uint32_t rkey);

  std::uint64_t acquisitions() const { return acquisitions_; }
  std::uint64_t cas_attempts() const { return cas_attempts_; }

 private:
  WordClient words_;
  BackoffPolicy backoff_;
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
  WordClient words_;
  std::uint64_t remote_addr_;
  std::uint32_t rkey_;
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
