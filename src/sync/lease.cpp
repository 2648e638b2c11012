#include "sync/lease.hpp"

#include "cluster/cluster.hpp"
#include "obs/hub.hpp"
#include "sim/engine.hpp"
#include "util/assert.hpp"

namespace rdmasem::sync {

LeaseLock::LeaseLock(verbs::QueuePair& qp, std::uint64_t base_addr,
                     std::uint32_t rkey, Config cfg, Variant variant)
    : words_(qp), base_addr_(base_addr), rkey_(rkey), cfg_(cfg),
      variant_(variant) {}

sim::TaskT<remem::Outcome<std::uint64_t>> LeaseLock::acquire() {
  obs::Hub& hub = words_.qp().context().cluster().obs();
  sim::Engine& eng = words_.qp().context().engine();
  for (;;) {
    // Snapshot the lease word.
    const auto rc = co_await words_.read(base_addr_, rkey_);
    if (!rc.ok()) co_return rc.status;
    const std::uint64_t w = words_.read_value();
    const std::uint64_t cur_epoch = w >> 32;
    const std::uint32_t expiry_us = static_cast<std::uint32_t>(w);
    const std::uint32_t now_us = to_expiry_us(eng.now());

    if (expiry_us != 0 && now_us < expiry_us) {
      // Held: sleep out the remaining term (plus a retry beat) and retry.
      const sim::Duration rest =
          static_cast<sim::Duration>(expiry_us - now_us) * sim::kMicrosecond;
      co_await sim::delay(eng, rest + cfg_.retry_delay);
      continue;
    }

    // Free or expired: claim epoch+1 with a term starting now. +1 on the
    // expiry bucket so a sub-microsecond term never truncates to "free".
    const std::uint32_t new_expiry =
        to_expiry_us(eng.now() + cfg_.duration) + 1;
    const std::uint64_t new_w = ((cur_epoch + 1) << 32) | new_expiry;
    hub.cas_attempts.inc();
    const auto c = co_await words_.cas(base_addr_, rkey_, w, new_w);
    if (!c.ok()) co_return c.status;
    if (c.atomic_old != w) {
      hub.cas_failures.inc();  // raced with another claimant
      co_await sim::delay(eng, cfg_.retry_delay);
      continue;
    }

    epoch_ = cur_epoch + 1;
    word_ = new_w;
    deadline_ = static_cast<sim::Time>(new_expiry) * sim::kMicrosecond;
    ++acquisitions_;
    hub.lease_epoch_bumps.inc();

    // Install the guard epoch: from this completion on, every older
    // epoch's fence probe loses.
    const auto g = co_await words_.write(base_addr_ + 8, rkey_, epoch_);
    if (!g.ok()) co_return g.status;
    co_return epoch_;
  }
}

sim::TaskT<remem::Outcome<bool>> LeaseLock::fence() {
  obs::Hub& hub = words_.qp().context().cluster().obs();
  if (variant_ == Variant::kStaleLease) {
    // BROKEN: no expiry check, no guard probe — the holder keeps its
    // write license forever, straight through the next epoch's term.
    co_return true;
  }
  sim::Engine& eng = words_.qp().context().engine();
  if (eng.now() + cfg_.margin >= deadline_) {
    ++fence_aborts_;
    hub.lease_fence_aborts.inc();
    co_return false;
  }
  // Guard probe: CAS(guard: my epoch -> my epoch). Pure read-for-ordering;
  // its completion is the fence the following write burst rides on.
  const auto c = co_await words_.cas(base_addr_ + 8, rkey_, epoch_, epoch_);
  if (!c.ok()) co_return c.status;
  if (c.atomic_old != epoch_) {
    ++fence_aborts_;
    hub.lease_fence_aborts.inc();
    co_return false;
  }
  co_return true;
}

sim::TaskT<verbs::Status> LeaseLock::release() {
  RDMASEM_CHECK_MSG(epoch_ != 0, "release before any acquire");
  // Expiry 0: free, epoch preserved.
  const auto c = co_await words_.cas(base_addr_, rkey_, word_, epoch_ << 32);
  deadline_ = 0;
  co_return c.status;  // a lost CAS means it was taken over — fine
}

}  // namespace rdmasem::sync
