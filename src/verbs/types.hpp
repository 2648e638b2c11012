#pragma once

#include <cstdint>

#include "sim/size_class_pool.hpp"
#include "sim/time.hpp"
#include "util/small_vec.hpp"

namespace rdmasem::verbs {

class QueuePair;

// Memory-semantic (one-sided) and channel-semantic (two-sided) verbs.
// The paper's focus is the one-sided set; SEND/RECV exists for the
// RPC baselines it compares against.
enum class Opcode : std::uint8_t {
  kWrite,      // RDMA Write   (one-sided)
  kRead,       // RDMA Read    (one-sided)
  kCompSwap,   // RDMA Atomic: compare-and-swap (one-sided, 8 bytes)
  kFetchAdd,   // RDMA Atomic: fetch-and-add    (one-sided, 8 bytes)
  kSend,       // channel semantics
  kRecv,       // receive completion opcode
};

enum class Status : std::uint8_t {
  kSuccess = 0,
  kLocalProtectionError,   // bad lkey / SGE out of MR bounds
  kRemoteAccessError,      // bad rkey / remote range out of MR bounds
  kRemoteInvalidRequest,   // malformed (e.g. atomic not 8B-aligned)
  kRnrRetryExceeded,       // SEND retried past rnr_retry with no RECV posted
  kUnsupportedOpcode,      // opcode not allowed on this transport (§II-A)
  kRetryExceeded,          // transport retries exhausted (loss / dead peer);
                           // the QP transitions to ERROR
  kWrFlushedError,         // WR flushed because the QP is in ERROR
};

// IBV-style queue-pair state machine (docs/FAULTS.md). The simulator
// collapses INIT/RTR into the connect step: create_qp -> RESET (UD: RTS),
// Context::connect -> RTS, transport retry exhaustion -> ERROR. ERROR
// flushes the send and receive queues with kWrFlushedError; reset()
// returns the QP to RESET for reconnection.
enum class QpState : std::uint8_t {
  kReset = 0,
  kRts,
  kError,
};

const char* to_string(QpState s);

// IBV sentinel: a retry budget of 7 means "retry forever" (the value the
// hardware reserves for infinite retry). The default preserves the
// pre-fault simulator: RC never gives up on a lossy-but-alive fabric.
inline constexpr std::uint32_t kInfiniteRetry = 7;

// Completion::atomic_old on a FAILED atomic WR (flushed, retry-exhausted,
// NAKed): the remote word was never fetched, so instead of leaving the old
// default 0 — a value CAS-retry loops routinely treat as "lock free" /
// "list empty" — failed atomic completions carry this poison. Any loop
// that consumes atomic_old without checking Completion::ok() first now
// compares against a value no live protocol word ever holds and spins
// visibly instead of silently acquiring (docs/SYNC.md, stale-compare
// audit).
inline constexpr std::uint64_t kPoisonedAtomicOld = ~0ull;

// Transport types (§II-A). All support channel semantics; WRITE needs
// RC or UC; READ and atomics need RC or DC. UC/UD complete locally once
// the packet leaves the NIC — delivery is not guaranteed (loss
// injectable). DC (dynamically connected) is reliable and routes per-WR
// like UD, but its initiator context is attached to device SRAM only
// while the QP has WRs in flight and detached when the burst drains, so
// RNIC metadata-cache pressure follows ACTIVE flows rather than
// established connections (docs/SERVICE.md).
enum class Transport : std::uint8_t {
  kRC = 0,  // reliable connection
  kUC,      // unreliable connection
  kUD,      // unreliable datagram (SEND/RECV only, one QP to many peers)
  kDc,      // dynamically connected: reliable, per-WR target, attach/detach
};

const char* to_string(Transport t);

const char* to_string(Opcode op);
const char* to_string(Status s);

// Scatter/gather element: a view of registered local memory.
struct Sge {
  std::uint64_t addr = 0;
  std::uint32_t length = 0;
  std::uint32_t lkey = 0;
};

// Work request, deliberately shaped like ibv_send_wr.
struct WorkRequest {
  std::uint64_t wr_id = 0;
  Opcode opcode = Opcode::kWrite;
  // Local gather (WRITE/SEND) or scatter target (READ); result buffer
  // (atomics). Inline storage for 4 SGEs: posting the common WR shapes
  // never allocates, and longer lists (SGL batches of up to rnic_max_sge)
  // spill to recycled FramePool blocks.
  util::SmallVec<Sge, 4, sim::FramePool> sg_list;
  std::uint64_t remote_addr = 0;  // one-sided target
  std::uint32_t rkey = 0;
  std::uint64_t compare = 0;      // kCompSwap: expected value
  std::uint64_t swap_or_add = 0;  // kCompSwap: new value; kFetchAdd: delta
  bool signaled = true;           // generate a CQE on completion
  bool inline_data = false;       // payload pushed with the MMIO (<= max)
  // UD/DC only: destination of this datagram (the "address handle" /
  // DC target); UD and DC QPs have no fixed peer. Ignored on RC/UC.
  class QueuePair* ud_dest = nullptr;
  // Stamped by the QP at the doorbell, when the WR becomes visible to the
  // RNIC; drives doorbell-to-CQE latency (obs). Callers need not set it.
  sim::Time posted_at = 0;
  // Post-order sequence on the posting QP, assigned by post_send. Gives
  // the tracer a per-WR identity that stays unique when callers leave
  // wr_id 0 on fire-and-forget WRs (wr_id is app-owned and need not be
  // unique). Callers leave it 0.
  std::uint64_t trace_seq = 0;

  std::size_t total_length() const {
    std::size_t n = 0;
    for (const auto& s : sg_list) n += s.length;
    return n;
  }
};

// Receive work request (channel semantics).
struct RecvRequest {
  std::uint64_t wr_id = 0;
  Sge sge;
};

// Completion queue entry, shaped like ibv_wc.
struct Completion {
  std::uint64_t wr_id = 0;
  Status status = Status::kSuccess;
  Opcode opcode = Opcode::kWrite;
  std::uint32_t byte_len = 0;
  std::uint64_t qp_id = 0;
  sim::Time completed_at = 0;
  // For atomics: the value read from remote memory before the operation
  // (also DMA-written into sg_list[0]). On a failed atomic completion this
  // is kPoisonedAtomicOld, never a stale or default value — check ok()
  // before consuming it.
  std::uint64_t atomic_old = 0;

  bool ok() const { return status == Status::kSuccess; }
};

}  // namespace rdmasem::verbs
