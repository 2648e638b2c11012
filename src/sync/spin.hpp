#pragma once

#include <cstdint>
#include <vector>

#include "remem/atomics.hpp"
#include "remem/outcome.hpp"
#include "sim/task.hpp"
#include "sync/variant.hpp"
#include "verbs/qp.hpp"

namespace rdmasem::sync {

// The paper's baseline one-sided sequencer (§III-E), re-exported under the
// sync roof so apps built on this layer name one namespace.
using Sequencer = remem::RemoteSequencer;

// SpinLock — the paper's baseline CAS spinlock (§III-E,
// remem::RemoteLockClient) bound to one lock word, plus the one thing the baseline leaves implicit:
// HOW the critical section's data writes are ordered against the release.
//
// commit_and_release() is that composition. Correct variant: every data
// WR is executed and awaited — each CQE certifies remote landing — before
// the 8-byte release write posts. kUnfencedRelease: the data WRs are
// posted fire-and-forget and the release follows immediately; because the
// model's loss recovery is per-WR, a lost data write's retransmit can
// land AFTER the release (and after the next holder's writes), which is
// the lost-update corruption the chaos battery must catch.
class SpinLock {
 public:
  SpinLock(verbs::QueuePair& qp, std::uint64_t remote_addr, std::uint32_t rkey,
           remem::BackoffPolicy backoff = {},
           Variant variant = Variant::kCorrect)
      : qp_(qp), variant_(variant), impl_(qp, backoff),
        remote_addr_(remote_addr), rkey_(rkey) {}

  sim::TaskT<remem::Outcome<std::uint32_t>> acquire();
  sim::TaskT<verbs::Status> release();
  // Lands `data` inside the critical section, then releases, with the
  // fencing discipline selected by the variant (see above).
  sim::TaskT<verbs::Status> commit_and_release(
      std::vector<verbs::WorkRequest> data);

  Variant variant() const { return variant_; }
  std::uint64_t acquisitions() const { return impl_.acquisitions(); }
  std::uint64_t cas_attempts() const { return impl_.cas_attempts(); }

 private:
  verbs::QueuePair& qp_;
  Variant variant_;
  remem::RemoteLockClient impl_;
  std::uint64_t remote_addr_;
  std::uint32_t rkey_;
};

}  // namespace rdmasem::sync
