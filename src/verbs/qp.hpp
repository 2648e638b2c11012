#pragma once

#include <coroutine>
#include <cstdint>
#include <vector>

#include "sim/task.hpp"
#include "util/ring.hpp"
#include "verbs/context.hpp"
#include "verbs/types.hpp"

namespace rdmasem::verbs {

// QueuePair — an RC connection endpoint. Work requests post to the send
// queue and complete through the bound CompletionQueue; the hardware-level
// cost pipeline (doorbell MMIO, WQE fetch, execution unit, PCIe DMA, wire,
// remote processing, metadata-cache stalls) runs as a coroutine per WR on
// the virtual clock, and RDMA data movement is real memcpy between the
// two machines' registered buffers.
//
// Two posting layers:
//   * post_send / post_send_batch: "hardware time" only — the WQEs become
//     visible to the RNIC now; the caller's CPU cost is NOT charged.
//     post_send_batch is a doorbell list: one MMIO for all WRs (§III-A).
//   * post / execute / execute_batch: CPU-charged forms that first charge
//     the calling task the CPU posting cost (WQE prep per WR + one MMIO +
//     NUMA MMIO penalty), then post. execute() also awaits the completion.
//     post() and wait() are awaitables, not tasks: they allocate no
//     coroutine frame and must be co_awaited in the full-expression that
//     creates them.
//
// A posted WR costs one coroutine frame (run_wr); execute() adds its own.
class QueuePair {
  struct Deliver;

 public:
  QueuePair(Context& ctx, const QpConfig& cfg, std::uint64_t id);

  std::uint64_t id() const { return id_; }
  const QpConfig& config() const { return cfg_; }
  Context& context() { return ctx_; }
  QueuePair* peer() { return peer_; }
  bool connected() const { return peer_ != nullptr; }

  // ---- state machine (RESET -> RTS -> ERROR, docs/FAULTS.md) ----------
  QpState state() const { return state_; }
  // Moves to ERROR and flushes: every queued RECV completes with
  // kWrFlushedError on the bound CQ; WRs posted from now on (and WRs
  // still in the hardware pipeline) complete with kWrFlushedError too.
  // Idempotent. Called internally on transport retry exhaustion.
  void to_error();
  // ERROR/RTS -> RESET: drops the peer binding so the QP can be
  // reconnected (Context::connect). Outstanding WRs must have drained.
  void reset();

  // ---- hardware-time posting ------------------------------------------
  void post_send(const WorkRequest& wr) { post_send(WorkRequest(wr)); }
  // rvalue form: the WR's SGE storage moves into the pipeline coroutine
  // instead of being copied, so posting never allocates.
  void post_send(WorkRequest&& wr);
  void post_send_batch(const std::vector<WorkRequest>& wrs);
  void post_send_batch(std::vector<WorkRequest>&& wrs);
  void post_recv(const RecvRequest& rr);

  // ---- CPU-charged posting ---------------------------------------------
  // Awaitable of post(): the posting cost is a sim::delay of the awaiting
  // task (granted inline when nothing else is due first), and the WR is
  // posted when it ends.
  struct PostAwaiter : sim::DelayAwaiter {
    QueuePair& qp;
    WorkRequest wr;
    sim::Time t0;
    void await_resume();
  };
  // Awaitable of wait(): resumes with the WR's completion.
  struct WaitAwaiter {
    QueuePair& qp;
    std::uint64_t wr_id;
    bool await_ready();
    void await_suspend(std::coroutine_handle<> h);
    Completion await_resume();
  };

  // CPU cost of posting `n_wrs` WRs with one doorbell.
  sim::Duration post_cost(std::size_t n_wrs, std::size_t inline_bytes = 0) const;
  PostAwaiter post(WorkRequest wr);
  sim::TaskT<Completion> execute(WorkRequest wr);
  // Posts the batch with one doorbell; the last WR is forced signaled and
  // its completion is returned (earlier WRs keep their own flags).
  sim::TaskT<Completion> execute_batch(std::vector<WorkRequest> wrs);

  // Awaits the completion of a specific wr_id. Must be registered before
  // the completion fires, i.e. call via execute()/execute_batch() or
  // register-then-post in the same simulation instant.
  WaitAwaiter wait(std::uint64_t wr_id) { return {*this, wr_id}; }

  std::uint32_t outstanding() const { return outstanding_; }
  std::uint64_t ops_completed() const { return ops_completed_; }
  std::uint64_t bytes_completed() const { return bytes_completed_; }
  std::size_t recv_queue_depth() const { return recv_queue_.size(); }
  // Failure observability: transport retransmissions performed and WRs
  // (send or recv) flushed with kWrFlushedError.
  std::uint64_t retransmits() const { return retransmits_; }
  std::uint64_t flushed_wrs() const { return flushed_wrs_; }

  // The one gather/scatter primitive for SGE-list payload movement:
  // WRITE/SEND source gather, READ response landing, and the remem
  // staging copies (SP batching). `limit` caps the total bytes scattered
  // (the SGEs may hold more than the data).
  static void gather_sges(Context& ctx, const Sge* sges, std::size_t n,
                          std::byte* dst);
  static void scatter_sges(Context& ctx, const Sge* sges, std::size_t n,
                           const std::byte* src, std::size_t limit);

 private:
  friend class Context;

  // wait()/complete() rendezvous slot. Kept in a flat vector (linear scan,
  // swap-pop erase): outstanding waiters are bounded by in-flight WRs per
  // QP (typically the pipelining window, single digits), and the vector's
  // capacity is retained across WRs so the rendezvous never allocates at
  // steady state — a node-based map put one allocation on every execute().
  struct Waiter {
    std::uint64_t wr_id = 0;
    std::coroutine_handle<> handle{};
    Completion result{};
    bool done = false;
  };

  // The one admission path of post_send and post_send_batch: the
  // send-queue checks, the doorbell-time posted_at stamp, and the spawn of
  // run_wr (or, on an ERROR QP, of the WR's deferred flush).
  void enqueue(WorkRequest&& wr, bool bf);
  // `bf` = BlueFlame: the WQE arrived with the doorbell MMIO (single
  // posts), so the RNIC skips the descriptor-fetch DMA.
  sim::Task run_wr(WorkRequest wr, bool bf);
  // One transfer leg with RC loss recovery: retransmits with exponential
  // backoff up to cfg_.retry_cnt. co_await yields false when the leg is
  // lost for good (unreliable transport, or retries exhausted). The
  // awaitable is frame-less (see Deliver in qp.cpp).
  //
  // Lane contract: await on the
  // SOURCE machine's lane. Resumes the caller on the DESTINATION's lane
  // when it yields true (the payload landed there), and on
  // `home_machine`'s lane when it yields false (the requester's timeout
  // is how loss is discovered — home is the machine that owns this WR's
  // completion: the local machine for request legs, which is `dst` for
  // response/ACK/NAK legs).
  Deliver deliver(std::uint32_t src_machine, std::uint32_t sport,
                  std::uint32_t dst_machine, std::uint32_t dport,
                  std::size_t bytes, bool reliable,
                  std::uint32_t home_machine);
  // Completes `wr` with `st` and transitions the QP to ERROR (transport
  // failure path: retry exhaustion).
  void fail_wr(const WorkRequest& wr, Status st);
  // Deferred flush completion for a WR posted against an ERROR QP.
  sim::Task flush_posted_wr(WorkRequest wr);
  void complete(const WorkRequest& wr, Status st, std::uint32_t bytes,
                std::uint64_t atomic_old = 0);
  Waiter* find_waiter(std::uint64_t wr_id);
  // Receive-side pool indirection: a QP with QpConfig::srq set consumes
  // arriving SENDs from the shared pool, otherwise from its private RQ.
  bool recv_ready() const;
  RecvRequest consume_recv();

  Context& ctx_;
  QpConfig cfg_;
  std::uint64_t id_;
  QueuePair* peer_ = nullptr;
  QpState state_ = QpState::kReset;
  std::uint32_t outstanding_ = 0;
  std::uint64_t ops_completed_ = 0;
  std::uint64_t bytes_completed_ = 0;
  // Bumped wherever a drop is discovered: response-leg retransmits count
  // against the requester QP but fire on the responder's lane.
  std::uint64_t retransmits_ = 0;
  std::uint64_t flushed_wrs_ = 0;
  // Post-order counter feeding WorkRequest::trace_seq — the tracer's
  // per-WR identity (wr_id is app-owned and may repeat). Bumped whether
  // or not tracing is on, so traced runs replay the untraced timeline.
  std::uint64_t trace_seq_ = 0;
  util::Ring<RecvRequest, 4> recv_queue_;
  std::vector<Waiter> waiters_;
};

}  // namespace rdmasem::verbs
