#include "sync/spin.hpp"

#include "cluster/cluster.hpp"
#include "obs/hub.hpp"

namespace rdmasem::sync {

sim::TaskT<remem::Outcome<std::uint32_t>> SpinLock::acquire() {
  const auto r = co_await impl_.lock(remote_addr_, rkey_);
  if (r.ok()) qp_.context().cluster().obs().lock_acquires.inc();
  co_return r;
}

sim::TaskT<verbs::Status> SpinLock::release() {
  co_return co_await impl_.unlock(remote_addr_, rkey_);
}

sim::TaskT<verbs::Status> SpinLock::commit_and_release(
    std::vector<verbs::WorkRequest> data) {
  if (variant_ == Variant::kUnfencedRelease) {
    // BROKEN: fire-and-forget data writes; the release races their
    // (possibly retransmitted) landings.
    for (auto& wr : data) {
      wr.signaled = false;
      co_await qp_.post(std::move(wr));
    }
  } else {
    for (auto& wr : data) {
      const auto c = co_await qp_.execute(std::move(wr));
      if (!c.ok()) co_return c.status;
    }
  }
  co_return co_await impl_.unlock(remote_addr_, rkey_);
}

}  // namespace rdmasem::sync
