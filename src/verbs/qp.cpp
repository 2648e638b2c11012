#include "verbs/qp.hpp"

#include <algorithm>
#include <cstring>

#include "net/fabric.hpp"
#include "obs/hub.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "util/assert.hpp"
#include "verbs/payload.hpp"
#include "verbs/srq.hpp"

namespace rdmasem::verbs {

namespace {
// Wire sizes of header-only packets.
constexpr std::size_t kReadRequestBytes = 16;
constexpr std::size_t kAtomicRequestBytes = 28;
constexpr std::size_t kAckBytes = 0;  // header-only; header cost added by wire_time

bool is_atomic(Opcode op) {
  return op == Opcode::kCompSwap || op == Opcode::kFetchAdd;
}

// UD and DC QPs have no fixed peer: every WR names its destination.
bool per_wr_target(Transport tp) {
  return tp == Transport::kUD || tp == Transport::kDc;
}
}  // namespace

const char* to_string(Opcode op) {
  switch (op) {
    case Opcode::kWrite: return "WRITE";
    case Opcode::kRead: return "READ";
    case Opcode::kCompSwap: return "CMP_SWAP";
    case Opcode::kFetchAdd: return "FETCH_ADD";
    case Opcode::kSend: return "SEND";
    case Opcode::kRecv: return "RECV";
  }
  return "?";
}

const char* to_string(Status s) {
  switch (s) {
    case Status::kSuccess: return "OK";
    case Status::kLocalProtectionError: return "LOCAL_PROT_ERR";
    case Status::kRemoteAccessError: return "REMOTE_ACCESS_ERR";
    case Status::kRemoteInvalidRequest: return "REMOTE_INVALID_REQ";
    case Status::kRnrRetryExceeded: return "RNR_RETRY_EXCEEDED";
    case Status::kUnsupportedOpcode: return "UNSUPPORTED_OPCODE";
    case Status::kRetryExceeded: return "RETRY_EXCEEDED";
    case Status::kWrFlushedError: return "WR_FLUSH_ERR";
  }
  return "?";
}

const char* to_string(QpState s) {
  switch (s) {
    case QpState::kReset: return "RESET";
    case QpState::kRts: return "RTS";
    case QpState::kError: return "ERROR";
  }
  return "?";
}

const char* to_string(Transport t) {
  switch (t) {
    case Transport::kRC: return "RC";
    case Transport::kUC: return "UC";
    case Transport::kUD: return "UD";
    case Transport::kDc: return "DC";
  }
  return "?";
}

QueuePair::QueuePair(Context& ctx, const QpConfig& cfg, std::uint64_t id)
    : ctx_(ctx), cfg_(cfg), id_(id) {
  // UD and DC QPs have no connect step: they are ready as soon as they
  // exist (DC establishes its connection state per-burst, on the fly).
  if (per_wr_target(cfg_.transport)) state_ = QpState::kRts;
}

void QueuePair::to_error() {
  if (state_ == QpState::kError) return;
  state_ = QpState::kError;
  // Flush the receive queue: every posted RECV completes with
  // kWrFlushedError on the bound CQ (the IBV_WC_WR_FLUSH_ERR analog).
  // SRQ buffers are deliberately NOT flushed: they belong to the shared
  // pool, not to this QP, and stay consumable by every sibling QP.
  while (!recv_queue_.empty()) {
    const RecvRequest rr = recv_queue_.front();
    recv_queue_.pop_front();
    ++flushed_wrs_;
    if (cfg_.cq != nullptr) {
      Completion c;
      c.wr_id = rr.wr_id;
      c.status = Status::kWrFlushedError;
      c.opcode = Opcode::kRecv;
      c.qp_id = id_;
      c.completed_at = ctx_.engine().now();
      cfg_.cq->push(c);
    }
  }
}

void QueuePair::reset() {
  RDMASEM_CHECK_MSG(outstanding_ == 0, "QP reset with outstanding WRs");
  // Detach both directions; the peer keeps its own state but can no
  // longer reach us (posting on it trips the connected check).
  if (peer_ != nullptr && peer_->peer_ == this) peer_->peer_ = nullptr;
  peer_ = nullptr;
  state_ = QpState::kReset;
}

void QueuePair::fail_wr(const WorkRequest& wr, Status st) {
  complete(wr, st, 0);
  to_error();
}

sim::Task QueuePair::flush_posted_wr(WorkRequest wr) {
  // Runs as a spawned task (never inline from post_send) so that an
  // execute() caller registers its wait() before the completion fires.
  if (wr.posted_at == 0) wr.posted_at = ctx_.engine().now();
  complete(wr, Status::kWrFlushedError, 0);
  co_return;
}

void QueuePair::post_send(WorkRequest&& wr) {
  if (per_wr_target(cfg_.transport)) {
    RDMASEM_CHECK_MSG(wr.ud_dest != nullptr, "UD/DC send needs ud_dest");
  } else {
    RDMASEM_CHECK_MSG(peer_ != nullptr, "QP not connected");
  }
  RDMASEM_CHECK_MSG(outstanding_ < cfg_.sq_depth, "send queue overflow");
  ++outstanding_;
  wr.trace_seq = ++trace_seq_;
  obs::Hub& hub = ctx_.cluster().obs();
  hub.wr_posted.inc();
  if (hub.tracer.enabled())
    hub.tracer.instant(obs::Stage::kDoorbell, ctx_.engine().now(), wr.wr_id,
                       id_, ctx_.machine().id(),
                       static_cast<std::uint8_t>(wr.opcode), wr.trace_seq);
  if (state_ == QpState::kError) {
    ctx_.engine().spawn(flush_posted_wr(std::move(wr)));
    return;
  }
  ctx_.engine().spawn(
      run_wr(std::move(wr), /*bf=*/ctx_.params().rnic_blueflame));
}

void QueuePair::post_send_batch(const std::vector<WorkRequest>& wrs) {
  post_send_batch(std::vector<WorkRequest>(wrs));
}

void QueuePair::post_send_batch(std::vector<WorkRequest>&& wrs) {
  for (auto& wr : wrs) wr.trace_seq = ++trace_seq_;
  obs::Hub& hub = ctx_.cluster().obs();
  hub.wr_posted.inc(wrs.size());
  if (hub.tracer.enabled() && !wrs.empty())
    hub.tracer.instant(obs::Stage::kDoorbell, ctx_.engine().now(),
                       wrs.front().wr_id, id_, ctx_.machine().id(),
                       static_cast<std::uint8_t>(wrs.front().opcode),
                       wrs.front().trace_seq);
  for (auto& wr : wrs) {
    if (per_wr_target(cfg_.transport)) {
      RDMASEM_CHECK_MSG(wr.ud_dest != nullptr, "UD/DC send needs ud_dest");
    } else {
      RDMASEM_CHECK_MSG(peer_ != nullptr, "QP not connected");
    }
    RDMASEM_CHECK_MSG(outstanding_ < cfg_.sq_depth, "send queue overflow");
    ++outstanding_;
    if (state_ == QpState::kError) {
      ctx_.engine().spawn(flush_posted_wr(std::move(wr)));
      continue;
    }
    // Doorbell-listed WQEs are fetched from host memory by the RNIC.
    ctx_.engine().spawn(run_wr(std::move(wr), /*bf=*/false));
  }
}

void QueuePair::post_recv(const RecvRequest& rr) {
  RDMASEM_CHECK_MSG(cfg_.srq == nullptr,
                    "QP drains an SRQ; post buffers to the SRQ instead");
  recv_queue_.push_back(rr);
}

bool QueuePair::recv_ready() const {
  return cfg_.srq != nullptr ? !cfg_.srq->empty() : !recv_queue_.empty();
}

RecvRequest QueuePair::consume_recv() {
  if (cfg_.srq != nullptr) return cfg_.srq->consume();
  const RecvRequest rq = recv_queue_.front();
  recv_queue_.pop_front();
  return rq;
}

sim::Duration QueuePair::post_cost(std::size_t n_wrs,
                                   std::size_t inline_bytes) const {
  const auto& p = ctx_.params();
  sim::Duration d = p.cpu_wqe_prep * n_wrs + p.cpu_mmio +
                    ctx_.machine().topo().mmio_penalty(
                        cfg_.core_socket,
                        ctx_.machine().port_socket(cfg_.port));
  if (inline_bytes > 0) d += p.memcpy_time(inline_bytes);
  return d;
}

sim::TaskT<void> QueuePair::post(WorkRequest wr) {
  const std::size_t inl = wr.inline_data ? wr.total_length() : 0;
  const sim::Time t0 = ctx_.engine().now();
  co_await sim::delay(ctx_.engine(), post_cost(1, inl));
  obs::Tracer& tr = ctx_.cluster().obs().tracer;
  if (tr.enabled())
    tr.span(obs::Stage::kPost, t0, ctx_.engine().now(), wr.wr_id, id_,
            ctx_.machine().id(), static_cast<std::uint8_t>(wr.opcode));
  post_send(std::move(wr));
}

sim::TaskT<Completion> QueuePair::execute(WorkRequest wr) {
  wr.signaled = true;
  if (wr.wr_id == 0) wr.wr_id = ctx_.next_wr_id();
  const std::uint64_t wid = wr.wr_id;
  co_await post(std::move(wr));
  co_return co_await wait(wid);
}

sim::TaskT<Completion> QueuePair::execute_batch(std::vector<WorkRequest> wrs) {
  RDMASEM_CHECK(!wrs.empty());
  std::size_t inl = 0;
  for (auto& wr : wrs) {
    if (wr.wr_id == 0) wr.wr_id = ctx_.next_wr_id();
    if (wr.inline_data) inl += wr.total_length();
  }
  wrs.back().signaled = true;
  const std::uint64_t wid = wrs.back().wr_id;
  const sim::Time t0 = ctx_.engine().now();
  co_await sim::delay(ctx_.engine(), post_cost(wrs.size(), inl));
  obs::Tracer& tr = ctx_.cluster().obs().tracer;
  if (tr.enabled())
    tr.span(obs::Stage::kPost, t0, ctx_.engine().now(), wid, id_,
            ctx_.machine().id(),
            static_cast<std::uint8_t>(wrs.back().opcode));
  post_send_batch(std::move(wrs));
  co_return co_await wait(wid);
}

QueuePair::Waiter* QueuePair::find_waiter(std::uint64_t wr_id) {
  for (auto& w : waiters_) {
    if (w.wr_id == wr_id) return &w;
  }
  return nullptr;
}

sim::TaskT<Completion> QueuePair::wait(std::uint64_t wr_id) {
  struct Awaiter {
    QueuePair& qp;
    std::uint64_t wr_id;
    bool await_ready() {
      const Waiter* w = qp.find_waiter(wr_id);
      return w != nullptr && w->done;
    }
    void await_suspend(std::coroutine_handle<> h) {
      Waiter* w = qp.find_waiter(wr_id);
      if (w == nullptr) {
        qp.waiters_.emplace_back();
        w = &qp.waiters_.back();
        w->wr_id = wr_id;
      }
      w->handle = h;
    }
    Completion await_resume() {
      Waiter* w = qp.find_waiter(wr_id);
      RDMASEM_CHECK(w != nullptr && w->done);
      Completion c = w->result;
      // Swap-pop erase: slot order carries no meaning, capacity is kept.
      *w = std::move(qp.waiters_.back());
      qp.waiters_.pop_back();
      return c;
    }
  };
  co_return co_await Awaiter{*this, wr_id};
}

void QueuePair::complete(const WorkRequest& wr, Status st, std::uint32_t bytes,
                         std::uint64_t atomic_old) {
  RDMASEM_CHECK(outstanding_ > 0);
  --outstanding_;
  ++ops_completed_;
  bytes_completed_ += bytes;
  // DC: the initiator context detaches as soon as the burst drains —
  // the last in-flight WR's completion evicts the QP context from
  // device SRAM, so DC metadata-cache pressure tracks active flows.
  // Safe and deterministic: complete() always runs on the owning
  // machine's lane, and invalidating an already-evicted (or
  // never-attached, e.g. flushed-WR) entry is a no-op.
  if (cfg_.transport == Transport::kDc && outstanding_ == 0)
    ctx_.machine().rnic().dc_detach(id_);
  if (st == Status::kWrFlushedError) ++flushed_wrs_;
  obs::Hub& hub = ctx_.cluster().obs();
  hub.wr_completed.inc();
  if (st != Status::kSuccess) hub.wr_failed.inc();
  if (st == Status::kWrFlushedError) hub.wr_flushed.inc();
  if (st == Status::kRetryExceeded) hub.retry_exhausted.inc();
  const sim::Time now = ctx_.engine().now();
  if (wr.posted_at != 0 && now >= wr.posted_at)
    hub.wr_latency_ns.add((now - wr.posted_at) / sim::kNanosecond);
  if (hub.tracer.enabled())
    hub.tracer.instant(obs::Stage::kCqe, now, wr.wr_id, id_,
                       ctx_.machine().id(),
                       static_cast<std::uint8_t>(wr.opcode), wr.trace_seq);
  Completion c;
  c.wr_id = wr.wr_id;
  c.status = st;
  c.opcode = wr.opcode;
  c.byte_len = bytes;
  c.qp_id = id_;
  c.completed_at = ctx_.engine().now();
  // Stale-compare audit: a failed atomic never fetched the remote word,
  // so its completion must not carry a plausible-looking value (the old
  // default 0 reads as "lock free" to CAS-retry loops that skip the ok()
  // check). Poison it instead.
  const bool is_atomic =
      wr.opcode == Opcode::kCompSwap || wr.opcode == Opcode::kFetchAdd;
  c.atomic_old =
      (is_atomic && st != Status::kSuccess) ? kPoisonedAtomicOld : atomic_old;

  if (Waiter* w = find_waiter(wr.wr_id); w != nullptr) {
    w->result = c;
    w->done = true;
    if (w->handle) ctx_.engine().resume_at(ctx_.engine().now(), w->handle);
    return;
  }
  // IBV rule: error completions surface even for unsignaled WRs.
  if ((wr.signaled || st != Status::kSuccess) && cfg_.cq) cfg_.cq->push(c);
}

// One transfer leg over the fabric. RC recovers from loss with timeout +
// retransmit, backing off exponentially (rc_retransmit doubling up to
// rc_retransmit_cap) until cfg_.retry_cnt attempts are spent
// (kInfiniteRetry never gives up). UC/UD get exactly one shot.
//
// Fabric::transit carries execution to the destination's lane, and the
// drop decision is drawn there (destination RNG + fault replica). A
// retransmit rides the sender's timeout back: hop(src, backoff), which
// lands at the retransmit's virtual time on the sender's lane. Final
// failure hops to `home_machine` the same way — the backoff timeout is
// how the requester learns the leg is dead.
sim::TaskT<bool> QueuePair::deliver(std::uint32_t src_machine,
                                    std::uint32_t sport,
                                    std::uint32_t dst_machine,
                                    std::uint32_t dport, std::size_t bytes,
                                    bool reliable,
                                    std::uint32_t home_machine) {
  auto& eng = ctx_.engine();
  const auto& P = ctx_.params();
  auto& fabric = ctx_.cluster().fabric();
  obs::Hub& hub = ctx_.cluster().obs();
  const std::uint32_t src_lane = src_machine + 1;
  const std::uint32_t home_lane = home_machine + 1;
  sim::Duration backoff = P.rc_retransmit;
  for (std::uint32_t attempt = 0;; ++attempt) {
    co_await fabric.transit(src_machine, sport, dst_machine, dport, bytes);
    if (!fabric.dropped(src_machine, sport, dst_machine, dport))
      co_return true;
    if (!reliable ||
        (cfg_.retry_cnt != kInfiniteRetry && attempt >= cfg_.retry_cnt)) {
      if (sim::current_lane() != home_lane)
        co_await sim::hop(eng, home_lane, backoff);
      co_return false;
    }
    ++retransmits_;
    hub.retransmits.inc();
    hub.backoff_ps.inc(backoff);
    co_await sim::hop(eng, src_lane, backoff);
    backoff = std::min(backoff * 2, P.rc_retransmit_cap);
  }
}

void QueuePair::gather_sges(Context& ctx, const Sge* sges, std::size_t n,
                            std::byte* dst) {
  std::size_t off = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Sge& sge = sges[i];
    const MemoryRegion* mr = ctx.lookup(sge.lkey);
    std::memcpy(dst + off, mr->at(sge.addr), sge.length);
    off += sge.length;
  }
}

void QueuePair::scatter_sges(Context& ctx, const Sge* sges, std::size_t n,
                             const std::byte* src, std::size_t limit) {
  std::size_t off = 0;
  for (std::size_t i = 0; i < n && off < limit; ++i) {
    const Sge& sge = sges[i];
    MemoryRegion* mr = ctx.lookup(sge.lkey);
    const std::size_t len = std::min<std::size_t>(sge.length, limit - off);
    std::memcpy(mr->at(sge.addr), src + off, len);
    off += len;
  }
}

// The per-WR hardware pipeline. Stage structure (see DESIGN.md §5):
//
//   WQE fetch -> send EU (+metadata stalls) -> payload gather DMA ->
//   wire -> remote rx -> opcode-specific remote work -> ACK/response ->
//   completion
//
// Each `co_await resource.use(t)` both delays this WR and occupies the
// shared resource, so throughput ceilings and contention effects emerge
// from overlap rather than being scripted.
sim::Task QueuePair::run_wr(WorkRequest wr, bool bf) {
  auto& eng = ctx_.engine();
  const auto& P = ctx_.params();
  auto& lm = ctx_.machine();
  auto& lr = lm.rnic();
  auto& lport = lr.port(cfg_.port);
  if (wr.posted_at == 0) wr.posted_at = eng.now();

  // Lifecycle tracing: stamps read the clock and append to a buffer,
  // never schedule or delay anything, so `traced` on/off cannot change
  // the simulated timeline (obs zero-cost contract).
  obs::Hub& hub = ctx_.cluster().obs();
  obs::Tracer& tracer = hub.tracer;
  const bool traced = tracer.enabled();
  const std::uint32_t trace_pid = lm.id();
  const auto trace_op = static_cast<std::uint8_t>(wr.opcode);
  auto stamp = [&](obs::Stage st, sim::Time begin) {
    tracer.span(st, begin, eng.now(), wr.wr_id, id_, trace_pid, trace_op,
                wr.trace_seq);
  };
  // Critical-path attribution (Plane 1): every suspension between the
  // doorbell and the CQE records exactly one AttrSpan, so the records
  // form a contiguous partition of the WR's end-to-end window and the
  // wait/service split reconciles with the traced latency exactly
  // (obs::CriticalPath). Recording stops at the CQE — UC/UD complete
  // before the wire stage, and their remote half is outside the window.
  bool attr_on = traced;
  auto attr_use = [&](const sim::Resource& res, sim::Time t0,
                      const sim::Grant& g) {
    if (attr_on)
      tracer.attr(res.attr_id(), t0, t0 + g.wait, eng.now(), wr.wr_id, id_,
                  wr.trace_seq, trace_pid, trace_op);
  };
  auto attr_lat = [&](sim::Time t0) {
    if (attr_on)
      tracer.attr(obs::Tracer::kResLatency, t0, t0, eng.now(), wr.wr_id, id_,
                  wr.trace_seq, trace_pid, trace_op);
  };
  auto attr_wire = [&](sim::Time t0) {
    if (attr_on)
      tracer.attr(obs::Tracer::kResWire, t0, t0, eng.now(), wr.wr_id, id_,
                  wr.trace_seq, trace_pid, trace_op);
  };

  // Transport-level opcode checks (§II-A): WRITE needs RC/UC/DC; READ
  // and atomics need RC or DC; UD carries SEND only.
  const Transport tp = cfg_.transport;
  const bool op_ok =
      wr.opcode == Opcode::kSend ||
      (wr.opcode == Opcode::kWrite && tp != Transport::kUD) ||
      ((wr.opcode == Opcode::kRead || is_atomic(wr.opcode)) &&
       (tp == Transport::kRC || tp == Transport::kDc));
  if (!op_ok) {
    complete(wr, Status::kUnsupportedOpcode, 0);
    co_return;
  }

  QueuePair* peer = per_wr_target(tp) ? wr.ud_dest : peer_;
  auto& rm = peer->ctx_.machine();
  auto& rr = rm.rnic();
  auto& rport = rr.port(peer->cfg_.port);
  const hw::SocketId lps = lm.port_socket(cfg_.port);
  const hw::SocketId rps = rm.port_socket(peer->cfg_.port);

  const std::size_t total = wr.total_length();

  // ---- local validation --------------------------------------------------
  if (wr.sg_list.size() > P.rnic_max_sge) {
    complete(wr, Status::kLocalProtectionError, 0);
    co_return;
  }
  for (const auto& sge : wr.sg_list) {
    const MemoryRegion* mr = ctx_.lookup(sge.lkey);
    if (mr == nullptr || !mr->contains(sge.addr, sge.length)) {
      complete(wr, Status::kLocalProtectionError, 0);
      co_return;
    }
  }
  const bool inlined = wr.inline_data && total <= P.rnic_max_inline;
  const bool carries_payload =
      (wr.opcode == Opcode::kWrite || wr.opcode == Opcode::kSend) && total > 0;

  // Host-memory access cost: streaming DMA for bulk, row-buffer model for
  // small payloads.
  auto mem_cost = [&P](cluster::Machine& m, hw::SocketId socket,
                       std::uint64_t a, std::size_t len,
                       hw::DramModel::Op op, bool same) {
    return len >= P.dma_stream_threshold
               ? m.dram(socket).stream(len, same)
               : m.dram(socket).access(a, len, op, same);
  };

  // ---- 1. WQE fetch (RNIC DMA-reads the descriptor ring) ------------------
  if (!bf && !inlined) {
    const sim::Time t0 = eng.now();
    co_await sim::delay(eng, P.pcie_dma_read_latency);
    if (traced) stamp(obs::Stage::kWqeFetch, t0);
    attr_lat(t0);
  }

  // ---- 2. send-side execution unit ----------------------------------------
  // DC pays the dynamic-connect attach on top of the context fetch when
  // the burst starts cold; a non-zero dc_touch stall IS an attach (hits
  // return 0). The responder side keeps a plain qp_touch: the model's DC
  // target is a single long-lived entry, like a real DCT.
  sim::Duration stall;
  if (tp == Transport::kDc) {
    stall = lr.dc_touch(id_);
    if (stall > 0) hub.dc_attaches.inc();
  } else {
    stall = lr.qp_touch(id_);
  }
  sim::Duration sge_extra = 0;
  for (std::size_t i = 0; i < wr.sg_list.size(); ++i) {
    const auto& sge = wr.sg_list[i];
    stall += lr.translate(sge.lkey, sge.addr, sge.length);
    if (i > 0) sge_extra += P.pcie_sge_fetch;
  }
  if (stall > 0) hub.mcache_stall_ps.inc(stall);
  const sim::Time t_eu = eng.now();
  const sim::Grant g_eu =
      co_await lport.eu.use(P.rnic_eu_write + stall + sge_extra);
  attr_use(lport.eu, t_eu, g_eu);
  if (traced) {
    stamp(obs::Stage::kExec, t_eu);
    // The translation-miss stall rides the tail of the EU occupancy:
    // render it as a nested child span so Perfetto shows the miss cost.
    if (stall > 0)
      tracer.span(obs::Stage::kTranslate, eng.now() - stall, eng.now(),
                  wr.wr_id, id_, trace_pid, trace_op, wr.trace_seq);
  }

  // ---- 3. payload gather from host memory over PCIe -----------------------
  if (carries_payload && !inlined) {
    const sim::Time t0 = eng.now();
    const sim::Grant g_dma = co_await lr.dma().use(P.pcie_time(total));
    attr_use(lr.dma(), t0, g_dma);
    if (wr.sg_list.size() == 1) {
      // Single-SGE fast path: the channel service and the NUMA penalty
      // form a fixed chain with no interleaving point — one suspension.
      const MemoryRegion* mr = ctx_.lookup(wr.sg_list[0].lkey);
      const bool same = (lps == mr->socket);
      const sim::Duration m = mem_cost(lm, mr->socket, wr.sg_list[0].addr,
                                       wr.sg_list[0].length,
                                       hw::DramModel::Op::kRead, same);
      const sim::Time t_m = eng.now();
      const sim::Grant g_m =
          co_await lm.mem_channel(mr->socket)
              .use_then(m, lm.topo().dma_mem_penalty(lps, mr->socket));
      attr_use(lm.mem_channel(mr->socket), t_m, g_m);
    } else {
      sim::Duration numa_pen = 0;
      for (const auto& sge : wr.sg_list) {
        const MemoryRegion* mr = ctx_.lookup(sge.lkey);
        const bool same = (lps == mr->socket);
        const sim::Duration m = mem_cost(lm, mr->socket, sge.addr, sge.length,
                                         hw::DramModel::Op::kRead, same);
        const sim::Time t_m = eng.now();
        const sim::Grant g_m = co_await lm.mem_channel(mr->socket).use(m);
        attr_use(lm.mem_channel(mr->socket), t_m, g_m);
        numa_pen =
            std::max(numa_pen, lm.topo().dma_mem_penalty(lps, mr->socket));
      }
      if (numa_pen) {
        const sim::Time t_p = eng.now();
        co_await sim::delay(eng, numa_pen);
        attr_lat(t_p);
      }
    }
    if (traced) stamp(obs::Stage::kLocalDma, t0);
  }

  // ---- 4. wire -------------------------------------------------------------
  std::size_t wire_bytes =
      carries_payload ? total
                      : (is_atomic(wr.opcode) ? kAtomicRequestBytes
                                              : kReadRequestBytes);
  if (tp == Transport::kUD) wire_bytes += P.ud_grh_bytes;

  // Unreliable transports (UC/UD) complete locally as soon as the packet
  // leaves the NIC; delivery is not guaranteed (§II-A). RC and DC
  // retransmit lost packets after a timeout.
  const bool unreliable = tp == Transport::kUC || tp == Transport::kUD;
  if (unreliable) {
    complete(wr, Status::kSuccess, static_cast<std::uint32_t>(total));
    // The WR's window closed at the CQE; the wire + remote half below is
    // fire-and-forget and must not be attributed to it.
    attr_on = false;
  }

  // A concurrent WR may already have pushed the QP into ERROR (e.g. its
  // retries exhausted while this one sat in the pipeline): flush before
  // touching the wire or remote memory. Checked here because this is the
  // last point on the requester's lane — QP state must not be read from
  // the responder's side of the wire.
  if (!unreliable && state_ == QpState::kError) {
    complete(wr, Status::kWrFlushedError, 0);
    co_return;
  }

  // Stage the outbound payload in the coroutine frame: gathered from the
  // local MRs here on the requester's lane, copied out on the
  // destination's lane. The frame is the only state both lanes touch,
  // and only sequentially (before/after the wire hop). Single-SGE RC
  // payloads skip even the gather: the frame carries a borrowed view into
  // the source MR and the landing memcpy is the only copy. The app cannot
  // legally touch the buffer before the completion.
  // Loopback (same machine) keeps staging so the landing never memcpy's
  // between overlapping ranges.
  PayloadBuf payload;
  if (carries_payload) {
    const bool zc_eligible =
        (tp == Transport::kRC || tp == Transport::kDc) &&
        wr.sg_list.size() == 1 && lm.id() != rm.id();
    if (zc_eligible) {
      hub.zero_copy_wrs.inc();
      payload.borrow(ctx_.lookup(wr.sg_list[0].lkey)->at(wr.sg_list[0].addr));
    } else {
      gather_sges(ctx_, wr.sg_list.data(), wr.sg_list.size(),
                  payload.stage(total));
      (payload.pool_hit() ? hub.payload_pool_hits : hub.payload_pool_misses)
          .inc();
    }
  }

  const sim::Time t_wire = eng.now();
  const bool delivered =
      co_await deliver(lm.id(), cfg_.port, rm.id(), peer->cfg_.port,
                       wire_bytes, !unreliable, /*home=*/lm.id());
  attr_wire(t_wire);
  if (traced) stamp(obs::Stage::kWire, t_wire);
  if (!delivered) {
    if (unreliable) co_return;  // dropped silently; data never lands
    fail_wr(wr, Status::kRetryExceeded);
    co_return;
  }

  // ---- 5. remote receive processing ---------------------------------------
  const sim::Time t_rx = eng.now();
  const sim::Grant g_rx = co_await rport.rx.use(P.rnic_rx_proc);
  attr_use(rport.rx, t_rx, g_rx);
  if (traced) stamp(obs::Stage::kRemoteRx, t_rx);
  sim::Duration rstall = rr.qp_touch(peer->id_);

  // Helper: send a header-only NAK back (RC) and finish with `st`;
  // unreliable transports just drop the faulty packet. Runs on the
  // responder's lane and lands home on the requester's.
  auto nak = [&](Status st) -> sim::TaskT<void> {
    if (unreliable) co_return;
    const sim::Time t0 = eng.now();
    const bool ok = co_await deliver(rm.id(), peer->cfg_.port, lm.id(),
                                     cfg_.port, kAckBytes, true,
                                     /*home=*/lm.id());
    attr_wire(t0);
    if (!ok) {
      fail_wr(wr, Status::kRetryExceeded);
      co_return;
    }
    complete(wr, st, 0);
  };

  switch (wr.opcode) {
    case Opcode::kWrite: {
      MemoryRegion* rmr = peer->ctx_.lookup(wr.rkey);
      if (rmr == nullptr || !rmr->contains(wr.remote_addr, total)) {
        co_await nak(Status::kRemoteAccessError);
        co_return;
      }
      rstall += rr.translate(wr.rkey, wr.remote_addr, total);
      if (rstall > 0) hub.mcache_stall_ps.inc(rstall);
      const sim::Time t_rem = eng.now();
      // Inbound writes are handled by the receive pipeline; translation
      // misses stall it (this is the Fig. 6 random-write penalty).
      if (rstall) {
        const sim::Grant g = co_await rport.rx.use(rstall);
        attr_use(rport.rx, t_rem, g);
      }
      if (total > 0) {
        const sim::Time t_d = eng.now();
        const sim::Grant g_d = co_await rr.dma().use(P.pcie_time(total));
        attr_use(rr.dma(), t_d, g_d);
        const bool same = (rps == rmr->socket);
        const sim::Duration m =
            mem_cost(rm, rmr->socket, wr.remote_addr, total,
                     hw::DramModel::Op::kWrite, same);
        const sim::Duration pen = rm.topo().dma_mem_penalty(rps, rmr->socket);
        const sim::Time t_m = eng.now();
        // Channel service + NUMA penalty + PCIe completion latency is a
        // fixed chain — nothing can semantically interleave, so it is one
        // suspension.
        const sim::Grant g_m =
            co_await rm.mem_channel(rmr->socket)
                .use_then(m, pen + P.pcie_dma_write_latency);
        attr_use(rm.mem_channel(rmr->socket), t_m, g_m);
        // The data actually moves: staged (or borrowed) payload lands in
        // the remote MR, here on its owner's lane.
        std::memcpy(rmr->at(wr.remote_addr), payload.data(), total);
      }
      if (traced) stamp(obs::Stage::kRemoteDram, t_rem);
      if (!unreliable) {
        const sim::Time t_ack = eng.now();
        co_await sim::delay(eng, P.net_ack_proc);
        attr_lat(t_ack);
        const sim::Time t_resp = eng.now();
        const bool acked =
            co_await deliver(rm.id(), peer->cfg_.port, lm.id(), cfg_.port,
                             kAckBytes, true, /*home=*/lm.id());
        attr_wire(t_resp);
        if (!acked) {
          // The data landed but the ACK never made it back: the requester
          // cannot distinguish this from a lost write (§ failure model).
          fail_wr(wr, Status::kRetryExceeded);
          co_return;
        }
        if (traced) stamp(obs::Stage::kResponse, t_resp);
        complete(wr, Status::kSuccess, static_cast<std::uint32_t>(total));
      }
      break;
    }

    case Opcode::kRead: {
      MemoryRegion* rmr = peer->ctx_.lookup(wr.rkey);
      if (rmr == nullptr || !rmr->contains(wr.remote_addr, total)) {
        co_await nak(Status::kRemoteAccessError);
        co_return;
      }
      rstall += rr.translate(wr.rkey, wr.remote_addr, total);
      if (rstall > 0) hub.mcache_stall_ps.inc(rstall);
      const sim::Time t_rem = eng.now();
      // The responder EU serves the read: DMA-read payload, packetize.
      const sim::Grant g_reu = co_await rport.eu.use(P.rnic_eu_read + rstall);
      attr_use(rport.eu, t_rem, g_reu);
      if (total > 0) {
        const sim::Time t_d = eng.now();
        const sim::Grant g_d = co_await rr.dma().use(P.pcie_time(total));
        attr_use(rr.dma(), t_d, g_d);
        const bool same = (rps == rmr->socket);
        const sim::Duration m =
            mem_cost(rm, rmr->socket, wr.remote_addr, total,
                     hw::DramModel::Op::kRead, same);
        const sim::Duration pen = rm.topo().dma_mem_penalty(rps, rmr->socket);
        const sim::Time t_m = eng.now();
        const sim::Grant g_m =
            co_await rm.mem_channel(rmr->socket)
                .use_then(m, pen + P.pcie_dma_read_latency);
        attr_use(rm.mem_channel(rmr->socket), t_m, g_m);
        // Snapshot the remote bytes into the frame while still on their
        // owner's lane; the response leg carries them home. READs always
        // stage (never borrow): the source may mutate between here and
        // the landing, and the READ returns the bytes as of this DMA.
        std::memcpy(payload.stage(total),
                    rmr->at(wr.remote_addr), total);
        (payload.pool_hit() ? hub.payload_pool_hits : hub.payload_pool_misses)
            .inc();
      }
      if (traced) stamp(obs::Stage::kRemoteDram, t_rem);
      // Response carries the payload back.
      const sim::Time t_resp = eng.now();
      const bool resp_ok =
          co_await deliver(rm.id(), peer->cfg_.port, lm.id(), cfg_.port,
                           total, true, /*home=*/lm.id());
      attr_wire(t_resp);
      if (!resp_ok) {
        fail_wr(wr, Status::kRetryExceeded);
        co_return;
      }
      const sim::Time t_lrx = eng.now();
      const sim::Grant g_lrx = co_await lport.rx.use(P.rnic_rx_proc);
      attr_use(lport.rx, t_lrx, g_lrx);
      if (traced) stamp(obs::Stage::kResponse, t_resp);
      if (total > 0) {
        const sim::Time t_land = eng.now();
        const sim::Grant g_ld = co_await lr.dma().use(P.pcie_time(total));
        attr_use(lr.dma(), t_land, g_ld);
        if (wr.sg_list.size() == 1) {
          const MemoryRegion* mr = ctx_.lookup(wr.sg_list[0].lkey);
          const bool same = (lps == mr->socket);
          const sim::Duration m =
              mem_cost(lm, mr->socket, wr.sg_list[0].addr,
                       wr.sg_list[0].length, hw::DramModel::Op::kWrite, same);
          const sim::Time t_m = eng.now();
          const sim::Grant g_m =
              co_await lm.mem_channel(mr->socket)
                  .use_then(m, lm.topo().dma_mem_penalty(lps, mr->socket) +
                                   P.pcie_dma_write_latency);
          attr_use(lm.mem_channel(mr->socket), t_m, g_m);
        } else {
          sim::Duration numa_pen = 0;
          for (const auto& sge : wr.sg_list) {
            const MemoryRegion* mr = ctx_.lookup(sge.lkey);
            const bool same = (lps == mr->socket);
            const sim::Duration m = mem_cost(lm, mr->socket, sge.addr,
                                             sge.length,
                                             hw::DramModel::Op::kWrite, same);
            const sim::Time t_m = eng.now();
            const sim::Grant g_m = co_await lm.mem_channel(mr->socket).use(m);
            attr_use(lm.mem_channel(mr->socket), t_m, g_m);
            numa_pen =
                std::max(numa_pen, lm.topo().dma_mem_penalty(lps, mr->socket));
          }
          // Two trailing pure delays merge into one suspension.
          const sim::Time t_p = eng.now();
          co_await sim::delay(eng, numa_pen + P.pcie_dma_write_latency);
          attr_lat(t_p);
        }
        scatter_sges(ctx_, wr.sg_list.data(), wr.sg_list.size(),
                     payload.data(), total);
        if (traced) stamp(obs::Stage::kLocalDma, t_land);
      }
      complete(wr, Status::kSuccess, static_cast<std::uint32_t>(total));
      break;
    }

    case Opcode::kCompSwap:
    case Opcode::kFetchAdd: {
      MemoryRegion* rmr = peer->ctx_.lookup(wr.rkey);
      if (rmr == nullptr || !rmr->contains(wr.remote_addr, 8)) {
        co_await nak(Status::kRemoteAccessError);
        co_return;
      }
      if (wr.remote_addr % 8 != 0 || wr.sg_list.empty() ||
          wr.sg_list[0].length < 8) {
        co_await nak(Status::kRemoteInvalidRequest);
        co_return;
      }
      rstall += rr.translate(wr.rkey, wr.remote_addr, 8);
      if (rstall > 0) hub.mcache_stall_ps.inc(rstall);
      const sim::Time t_rem = eng.now();
      // The atomic unit serializes all atomics on this port: locked
      // PCIe read-modify-write against host memory.
      const sim::Grant g_au =
          co_await rport.atomic_unit.use(P.rnic_atomic_unit + rstall);
      attr_use(rport.atomic_unit, t_rem, g_au);
      const bool same = (rps == rmr->socket);
      const sim::Duration m = rm.dram(rmr->socket).access(
          wr.remote_addr, 8, hw::DramModel::Op::kRead, same);
      const sim::Time t_m = eng.now();
      const sim::Grant g_m = co_await rm.mem_channel(rmr->socket).use(m);
      attr_use(rm.mem_channel(rmr->socket), t_m, g_m);
      auto* slot = reinterpret_cast<std::uint64_t*>(rmr->at(wr.remote_addr));
      const std::uint64_t old = *slot;
      if (wr.opcode == Opcode::kCompSwap) {
        if (old == wr.compare) *slot = wr.swap_or_add;
      } else {
        *slot = old + wr.swap_or_add;
      }
      if (traced) stamp(obs::Stage::kRemoteDram, t_rem);
      // Response carries the original value (8 bytes).
      const sim::Time t_resp = eng.now();
      const bool resp_ok =
          co_await deliver(rm.id(), peer->cfg_.port, lm.id(), cfg_.port, 8,
                           true, /*home=*/lm.id());
      attr_wire(t_resp);
      if (!resp_ok) {
        fail_wr(wr, Status::kRetryExceeded);
        co_return;
      }
      const sim::Time t_lrx = eng.now();
      const sim::Grant g_lrx = co_await lport.rx.use_then(
          P.rnic_rx_proc, P.pcie_dma_write_latency);
      attr_use(lport.rx, t_lrx, g_lrx);
      if (traced) stamp(obs::Stage::kResponse, t_resp);
      MemoryRegion* lmr = ctx_.lookup(wr.sg_list[0].lkey);
      std::memcpy(lmr->at(wr.sg_list[0].addr), &old, 8);
      complete(wr, Status::kSuccess, 8, old);
      break;
    }

    case Opcode::kSend: {
      // A receiver backed by an SRQ drains the shared pool; otherwise
      // its private receive queue (recv_ready/consume_recv indirection).
      const bool srq_backed = peer->cfg_.srq != nullptr;
      if (!peer->recv_ready()) {
        // Receiver not ready. UC/UD: the datagram evaporates. RC/DC:
        // each RNR NAK costs a wire round plus an rnr_timer pause before
        // the retransmit; cfg_.rnr_retry bounds the attempts
        // (kInfiniteRetry waits until a buffer shows up; 0 fails fast).
        if (unreliable) co_return;
        for (std::uint32_t rnr = 0; !peer->recv_ready(); ++rnr) {
          if (srq_backed) hub.srq_rnr.inc();
          if (cfg_.rnr_retry != kInfiniteRetry && rnr >= cfg_.rnr_retry) {
            co_await nak(Status::kRnrRetryExceeded);
            co_return;
          }
          ctx_.cluster().obs().rnr_naks.inc();
          const sim::Time t_nak = eng.now();
          const bool nak_ok =
              co_await deliver(rm.id(), peer->cfg_.port, lm.id(), cfg_.port,
                               kAckBytes, true, /*home=*/lm.id());
          attr_wire(t_nak);
          if (!nak_ok) {
            fail_wr(wr, Status::kRetryExceeded);
            co_return;
          }
          // The RNR NAK landed us back home; pause and re-send from here.
          const sim::Time t_timer = eng.now();
          co_await sim::delay(eng, P.rnr_timer);
          attr_lat(t_timer);
          const sim::Time t_rs = eng.now();
          const bool resend_ok =
              co_await deliver(lm.id(), cfg_.port, rm.id(), peer->cfg_.port,
                               wire_bytes, true, /*home=*/lm.id());
          attr_wire(t_rs);
          if (!resend_ok) {
            fail_wr(wr, Status::kRetryExceeded);
            co_return;
          }
          const sim::Time t_rrx = eng.now();
          const sim::Grant g_rrx = co_await rport.rx.use(P.rnic_rx_proc);
          attr_use(rport.rx, t_rrx, g_rrx);
        }
      }
      const RecvRequest rq = peer->consume_recv();
      MemoryRegion* rmr = peer->ctx_.lookup(rq.sge.lkey);
      if (rmr == nullptr || rq.sge.length < total ||
          !rmr->contains(rq.sge.addr, total)) {
        co_await nak(Status::kRemoteInvalidRequest);
        co_return;
      }
      rstall += rr.translate(rq.sge.lkey, rq.sge.addr, total);
      if (rstall > 0) hub.mcache_stall_ps.inc(rstall);
      const sim::Time t_rem = eng.now();
      // Channel semantics: RQ WQE consumption + CQE for the receiver.
      const sim::Grant g_reu =
          co_await rport.eu.use(P.rnic_recv_extra + rstall);
      attr_use(rport.eu, t_rem, g_reu);
      if (total > 0) {
        const sim::Time t_d = eng.now();
        const sim::Grant g_d = co_await rr.dma().use(P.pcie_time(total));
        attr_use(rr.dma(), t_d, g_d);
        const bool same = (rps == rmr->socket);
        const sim::Duration m = mem_cost(rm, rmr->socket, rq.sge.addr, total,
                                         hw::DramModel::Op::kWrite, same);
        const sim::Time t_m = eng.now();
        const sim::Grant g_m = co_await rm.mem_channel(rmr->socket)
                                   .use_then(m, P.pcie_dma_write_latency);
        attr_use(rm.mem_channel(rmr->socket), t_m, g_m);
        // The RECV consume is the same scatter primitive as a READ
        // landing: one SGE, capped at the arriving message size.
        scatter_sges(peer->ctx_, &rq.sge, 1, payload.data(), total);
      }
      if (traced) stamp(obs::Stage::kRemoteDram, t_rem);
      // Receiver-side completion.
      if (peer->cfg_.cq) {
        Completion rc;
        rc.wr_id = rq.wr_id;
        rc.status = Status::kSuccess;
        rc.opcode = Opcode::kRecv;
        rc.byte_len = static_cast<std::uint32_t>(total);
        rc.qp_id = peer->id_;
        rc.completed_at = eng.now();
        peer->cfg_.cq->push(rc);
      }
      if (!unreliable) {
        const sim::Time t_ack = eng.now();
        co_await sim::delay(eng, P.net_ack_proc);
        attr_lat(t_ack);
        const sim::Time t_resp = eng.now();
        const bool acked =
            co_await deliver(rm.id(), peer->cfg_.port, lm.id(), cfg_.port,
                             kAckBytes, true, /*home=*/lm.id());
        attr_wire(t_resp);
        if (!acked) {
          fail_wr(wr, Status::kRetryExceeded);
          co_return;
        }
        if (traced) stamp(obs::Stage::kResponse, t_resp);
        complete(wr, Status::kSuccess, static_cast<std::uint32_t>(total));
      }
      break;
    }

    case Opcode::kRecv:
      complete(wr, Status::kRemoteInvalidRequest, 0);
      break;
  }
}

}  // namespace rdmasem::verbs
