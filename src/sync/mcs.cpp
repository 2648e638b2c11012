#include "sync/mcs.hpp"

#include "cluster/cluster.hpp"
#include "obs/hub.hpp"
#include "sim/engine.hpp"
#include "util/assert.hpp"

namespace rdmasem::sync {

McsLock::McsLock(verbs::QueuePair& qp, std::uint64_t base_addr,
                 std::uint32_t rkey, Layout layout, std::uint32_t client_id,
                 remem::BackoffPolicy poll_backoff)
    : words_(qp), base_addr_(base_addr), rkey_(rkey), layout_(layout),
      id_(client_id), poll_backoff_(poll_backoff) {
  RDMASEM_CHECK_MSG(client_id >= 1 && client_id <= layout.max_clients,
                    "MCS client id out of layout range");
}

void McsLock::retarget(std::uint64_t base_addr) {
  RDMASEM_CHECK_MSG(!held_, "MCS retarget while held");
  base_addr_ = base_addr;
}

sim::TaskT<remem::Outcome<std::uint32_t>> McsLock::acquire() {
  RDMASEM_CHECK_MSG(!held_, "MCS acquire while held");
  obs::Hub& hub = words_.qp().context().cluster().obs();
  const std::uint64_t my_qnode = base_addr_ + layout_.qnode_off(id_);

  // 1. Reset my qnode: next = kNil, locked = 1. Awaited — it must be
  // consistent before anyone can find me through the tail.
  {
    const auto c = co_await words_.write_pair(my_qnode, rkey_, kNil, 1);
    if (!c.ok()) co_return c.status;
  }

  // 2. SWAP(tail, my id) emulated as a CAS-retry loop. The completion's
  // atomic_old seeds the next compare — which is exactly why the ok()
  // check must come first: a flushed CAS carries kPoisonedAtomicOld, not
  // a usable tail value (stale-compare audit, tests/remem_atomics_test).
  std::uint64_t expected = kNil;
  std::uint32_t attempts = 0;
  for (;;) {
    ++attempts;
    hub.cas_attempts.inc();
    const auto c = co_await words_.cas(base_addr_, rkey_, expected, id_);
    if (!c.ok()) co_return c.status;
    RDMASEM_CHECK_MSG(c.atomic_old != verbs::kPoisonedAtomicOld,
                      "poisoned atomic_old on a successful completion");
    if (c.atomic_old == expected) break;  // swapped in
    hub.cas_failures.inc();
    expected = c.atomic_old;  // lost the race: retry against the new tail
  }
  const std::uint64_t prev = expected;

  if (prev == kNil) {
    held_ = true;
    ++acquisitions_;
    hub.lock_acquires.inc();
    co_return attempts;
  }

  // 3. Link into the predecessor, then spin-READ my own locked flag until
  // the handoff write lands.
  ++queued_acquisitions_;
  const auto link =
      co_await words_.write(base_addr_ + layout_.qnode_off(prev), rkey_, id_);
  if (!link.ok()) co_return link.status;
  std::uint32_t polls = 0;
  for (;;) {
    const auto c = co_await words_.read(my_qnode + 8, rkey_);
    if (!c.ok()) co_return c.status;
    if (words_.read_value() == 0) break;
    ++polls;
    const auto d = poll_backoff_.delay_for(polls);
    if (d) co_await sim::delay(words_.qp().context().engine(), d);
  }
  held_ = true;
  ++acquisitions_;
  hub.lock_acquires.inc();
  hub.lock_handoffs.inc();
  co_return attempts;
}

sim::TaskT<verbs::Status> McsLock::release() {
  RDMASEM_CHECK_MSG(held_, "MCS release while not held");
  obs::Hub& hub = words_.qp().context().cluster().obs();
  const std::uint64_t my_qnode = base_addr_ + layout_.qnode_off(id_);

  const auto next = co_await words_.read(my_qnode, rkey_);
  if (!next.ok()) co_return next.status;
  std::uint64_t successor = words_.read_value();

  if (successor == kNil) {
    // Nobody visibly queued: try to swing the tail back to free.
    hub.cas_attempts.inc();
    const auto c = co_await words_.cas(base_addr_, rkey_, id_, kNil);
    if (!c.ok()) co_return c.status;
    if (c.atomic_old == id_) {
      held_ = false;
      co_return verbs::Status::kSuccess;
    }
    hub.cas_failures.inc();
    // A successor swapped the tail but has not linked yet: poll my next
    // pointer until its enqueue write lands.
    std::uint32_t polls = 0;
    for (;;) {
      const auto n = co_await words_.read(my_qnode, rkey_);
      if (!n.ok()) co_return n.status;
      if (words_.read_value() != kNil) {
        successor = words_.read_value();
        break;
      }
      ++polls;
      const auto d = poll_backoff_.delay_for(polls);
      if (d) co_await sim::delay(words_.qp().context().engine(), d);
    }
  }

  // Direct handoff: clear the successor's locked flag.
  const auto st = co_await words_.write(
      base_addr_ + layout_.qnode_off(successor) + 8, rkey_, 0);
  if (!st.ok()) co_return st.status;
  held_ = false;
  co_return verbs::Status::kSuccess;
}

}  // namespace rdmasem::sync
