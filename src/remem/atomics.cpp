#include "remem/atomics.hpp"

#include "cluster/cluster.hpp"
#include "obs/hub.hpp"
#include "util/assert.hpp"

namespace rdmasem::remem {

WordClient::WordClient(verbs::QueuePair& qp) : qp_(qp), scratch_(64) {
  scratch_mr_ = qp_.context().register_buffer(
      scratch_, qp_.context().machine().port_socket(qp_.config().port));
}

sim::TaskT<verbs::Completion> WordClient::execute(
    verbs::Opcode op, std::size_t slot, std::uint32_t len, std::uint64_t raddr,
    std::uint32_t rkey, std::uint64_t compare, std::uint64_t swap_or_add) {
  verbs::WorkRequest wr;
  wr.opcode = op;
  wr.sg_list = {{scratch_mr_->addr + slot, len, scratch_mr_->key}};
  wr.remote_addr = raddr;
  wr.rkey = rkey;
  wr.compare = compare;
  wr.swap_or_add = swap_or_add;
  return qp_.execute(std::move(wr));
}

sim::TaskT<verbs::Completion> WordClient::read(std::uint64_t raddr,
                                               std::uint32_t rkey) {
  return execute(verbs::Opcode::kRead, kRead, 8, raddr, rkey);
}

sim::TaskT<verbs::Completion> WordClient::write(std::uint64_t raddr,
                                                std::uint32_t rkey,
                                                std::uint64_t v) {
  *scratch_.as<std::uint64_t>(kWord) = v;
  return execute(verbs::Opcode::kWrite, kWord, 8, raddr, rkey);
}

sim::TaskT<verbs::Completion> WordClient::write_pair(std::uint64_t raddr,
                                                     std::uint32_t rkey,
                                                     std::uint64_t first,
                                                     std::uint64_t second) {
  auto* stage = scratch_.as<std::uint64_t>(kQnode);
  stage[0] = first;
  stage[1] = second;
  return execute(verbs::Opcode::kWrite, kQnode, 16, raddr, rkey);
}

sim::TaskT<verbs::Completion> WordClient::cas(std::uint64_t raddr,
                                              std::uint32_t rkey,
                                              std::uint64_t compare,
                                              std::uint64_t swap) {
  return execute(verbs::Opcode::kCompSwap, kResult, 8, raddr, rkey, compare,
                 swap);
}

sim::TaskT<verbs::Completion> WordClient::faa(std::uint64_t raddr,
                                              std::uint32_t rkey,
                                              std::uint64_t delta) {
  return execute(verbs::Opcode::kFetchAdd, kResult, 8, raddr, rkey, 0, delta);
}

RemoteLockClient::RemoteLockClient(verbs::QueuePair& qp, BackoffPolicy backoff)
    : words_(qp), backoff_(backoff) {}

sim::TaskT<Outcome<std::uint32_t>> RemoteLockClient::lock(
    std::uint64_t remote_addr, std::uint32_t rkey) {
  verbs::Context& ctx = words_.qp().context();
  obs::Hub& hub = ctx.cluster().obs();
  std::uint32_t attempts = 0;
  for (;;) {
    ++attempts;
    ++cas_attempts_;
    hub.cas_attempts.inc();
    const auto c = co_await words_.cas(remote_addr, rkey, 0, 1);
    if (!c.ok()) co_return c.status;
    if (c.atomic_old == 0) {
      ++acquisitions_;
      co_return attempts;
    }
    hub.cas_failures.inc();  // lock was held: the CAS lost the race
    const auto d = backoff_.delay_for(attempts);
    if (d) co_await sim::delay(ctx.engine(), d);
  }
}

sim::TaskT<verbs::Status> RemoteLockClient::unlock(std::uint64_t remote_addr,
                                                   std::uint32_t rkey) {
  // Release: plain 8-byte RDMA write of 0 (store-release is enough; RC
  // ordering makes it visible after the critical section's writes).
  co_return (co_await words_.write(remote_addr, rkey, 0)).status;
}

RemoteSequencer::RemoteSequencer(verbs::QueuePair& qp,
                                 std::uint64_t remote_addr, std::uint32_t rkey)
    : words_(qp), remote_addr_(remote_addr), rkey_(rkey) {}

sim::TaskT<Outcome<std::uint64_t>> RemoteSequencer::next(std::uint64_t delta) {
  const auto c = co_await words_.faa(remote_addr_, rkey_, delta);
  if (!c.ok()) co_return c.status;
  co_return c.atomic_old;
}

LocalSpinlock::LocalSpinlock(sim::Engine& engine, cluster::Machine& machine,
                             std::uint64_t line, BackoffPolicy backoff)
    : engine_(engine), machine_(machine), line_(line), backoff_(backoff) {}

sim::TaskT<std::uint32_t> LocalSpinlock::lock(hw::SocketId my_socket) {
  auto& coh = machine_.coherence();
  coh.add_contender(line_);
  std::uint32_t attempts = 0;
  for (;;) {
    ++attempts;
    // One locked RMW: occupies the line (serial resource) for a duration
    // that scales with contention and socket distance.
    co_await coh.line_resource(line_).use(
        coh.rmw_cost(line_, my_socket != home_socket_,
                     hw::CoherenceModel::Rmw::kCas));
    if (!held_) {
      held_ = true;
      home_socket_ = my_socket;
      coh.remove_contender(line_);
      co_return attempts;
    }
    if (backoff_.enabled) {
      const auto d = backoff_.delay_for(attempts);
      if (d) co_await sim::delay(engine_, d);
    } else {
      // Test-and-test-and-set: spin-read (shared line, cheap) until the
      // next release, then pay one line transfer before retrying the CAS.
      co_await SpinAwaiter{*this};
      co_await sim::delay(engine_, coh.spin_read_cost());
    }
  }
}

sim::TaskT<void> LocalSpinlock::unlock(hw::SocketId my_socket) {
  RDMASEM_CHECK_MSG(held_, "unlock of free lock");
  auto& coh = machine_.coherence();
  co_await coh.line_resource(line_).use(
      coh.rmw_cost(line_, my_socket != home_socket_,
                   hw::CoherenceModel::Rmw::kCas));
  held_ = false;
  // The release invalidates every spinner's shared copy; they all race
  // for the line again.
  while (!spinners_.empty()) {
    engine_.resume_at(engine_.now(), spinners_.front());
    spinners_.pop_front();
  }
}

LocalSequencer::LocalSequencer(sim::Engine& engine, cluster::Machine& machine,
                               std::uint64_t line)
    : engine_(engine), machine_(machine), line_(line) {}

sim::TaskT<std::uint64_t> LocalSequencer::next(hw::SocketId my_socket) {
  // FAA never retries; it serializes on the line at the (graceful) FAA
  // contention cost.
  auto& coh = machine_.coherence();
  co_await coh.line_resource(line_).use(
      coh.rmw_cost(line_, my_socket != 0, hw::CoherenceModel::Rmw::kFaa));
  co_return value_++;
}

}  // namespace rdmasem::remem
