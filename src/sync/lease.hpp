#pragma once

#include <cstdint>

#include "remem/atomics.hpp"
#include "remem/outcome.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "sync/variant.hpp"
#include "verbs/qp.hpp"

namespace rdmasem::sync {

// LeaseLock — time-bounded exclusive ownership with epoch fencing, the
// crash-tolerant member of the lock family: a holder that dies (or
// stalls) simply stops renewing, and the next client takes over once the
// expiry passes — no recovery protocol, no stuck lock word.
//
// Server layout at `base_addr` (16 bytes):
//
//   word 0: lease word  = (epoch << 32) | expiry_us   (expiry 0 == free)
//   word 1: guard epoch = epoch of the current write-licensed holder
//
// Epochs increase by one per acquisition of the lease word (CAS-swapped,
// so the word never repeats — no ABA). After winning the lease the holder
// installs its epoch in the guard word; every protected write burst is
// preceded by fence(): a local expiry-margin check plus a
// CAS(guard: my_epoch -> my_epoch) probe whose completion orders before
// the burst. A stale holder's probe loses as soon as the next epoch's
// guard install lands.
//
// Model honesty (docs/SYNC.md): the margin must bound the probe RTT plus
// the caller's post-fence write burst under the configured fault
// envelope; a margin smaller than the worst-case landing skew reopens a
// (detectable, counted) takeover window. The kStaleLease variant skips
// BOTH the margin check and the probe — that is the negative sibling the
// battery must catch clobbering the next epoch's updates.
// Namespace-scope (not nested) so the default member initializers are
// complete by the time LeaseLock's constructor uses `= {}` as a default
// argument.
struct LeaseConfig {
  sim::Duration duration = sim::us(300);   // lease term
  sim::Duration margin = sim::us(40);      // fence safety margin
  sim::Duration retry_delay = sim::us(5);  // re-poll when the word is held
};

class LeaseLock {
 public:
  static constexpr std::size_t kBytes = 16;

  using Config = LeaseConfig;

  LeaseLock(verbs::QueuePair& qp, std::uint64_t base_addr, std::uint32_t rkey,
            Config cfg = {}, Variant variant = Variant::kCorrect);

  // Acquires the lease (waiting out the current term when held); returns
  // the epoch now owned. Installs the guard epoch before returning.
  sim::TaskT<remem::Outcome<std::uint64_t>> acquire();

  // Write license for one burst. Correct variant: false once the local
  // clock is within `margin` of expiry, or when the guard probe observes
  // a newer epoch (fence_aborts counter). kStaleLease: always true.
  sim::TaskT<remem::Outcome<bool>> fence();

  // Clears the expiry, keeping the epoch (the next acquire bumps it). A
  // lost CAS here means the lease was already taken over — not an error.
  sim::TaskT<verbs::Status> release();

  // Repoints at another lease word pair. Per-lease state (epoch, word,
  // deadline) resets: the next acquire re-learns the target's epoch from
  // the CAS-read word.
  void retarget(std::uint64_t base_addr) {
    base_addr_ = base_addr;
    epoch_ = 0;
    word_ = 0;
    deadline_ = 0;
  }

  std::uint64_t epoch() const { return epoch_; }
  // Virtual-time deadline of the currently held term (0 when never held).
  sim::Time deadline() const { return deadline_; }
  std::uint64_t acquisitions() const { return acquisitions_; }
  std::uint64_t fence_aborts() const { return fence_aborts_; }

 private:
  static std::uint32_t to_expiry_us(sim::Time t) {
    return static_cast<std::uint32_t>(t / sim::kMicrosecond);
  }

  remem::WordClient words_;
  std::uint64_t base_addr_;
  std::uint32_t rkey_;
  Config cfg_;
  Variant variant_;
  std::uint64_t epoch_ = 0;
  std::uint64_t word_ = 0;  // lease word as last written by us
  sim::Time deadline_ = 0;
  std::uint64_t acquisitions_ = 0;
  std::uint64_t fence_aborts_ = 0;
};

}  // namespace rdmasem::sync
