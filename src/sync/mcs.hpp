#pragma once

#include <cstdint>

#include "remem/atomics.hpp"
#include "remem/outcome.hpp"
#include "sim/task.hpp"
#include "sync/variant.hpp"
#include "verbs/qp.hpp"

namespace rdmasem::sync {

// McsLock — an MCS-style queue lock in remote memory, built from CAS only
// (the verbs layer has no unconditional SWAP, so the tail swap is a
// CAS-retry loop — the loop whose stale-compare handling the atomics
// audit hardened, see verbs::kPoisonedAtomicOld).
//
// Server layout at `base_addr` (all u64):
//
//   [ tail ] [ qnode 1: next, locked ] [ qnode 2: next, locked ] ...
//
// tail == 0 (kNil) means free; otherwise it holds the id (1-based) of the
// last waiter. Client id N's qnode lives at base + 8 + 16*(N-1).
//
// Acquire: reset my qnode {next=0, locked=1}; swap tail <- my id; if there
// was a predecessor, link myself into its `next` and spin-READ my `locked`
// until the predecessor hands off. Release: READ my `next`; with a
// successor, WRITE its `locked` = 0 (direct handoff — FIFO by
// construction); with none, CAS tail back to 0, falling back to the
// "successor mid-enqueue" poll when the CAS loses.
//
// Fencing contract: release() itself is protocol-correct in every
// variant; whether the CALLER awaits its critical-section data writes
// before releasing is the sync::Variant::kUnfencedRelease knob, applied
// where the data writes live (sync::SpinLock guard / apps::txkv).
class McsLock {
 public:
  static constexpr std::uint64_t kNil = 0;

  struct Layout {
    std::uint32_t max_clients = 64;
    std::size_t bytes() const { return 8 + 16ul * max_clients; }
    std::uint64_t qnode_off(std::uint64_t id) const { return 8 + 16 * (id - 1); }
  };

  // `client_id` is 1-based and must be unique per client of this lock.
  McsLock(verbs::QueuePair& qp, std::uint64_t base_addr, std::uint32_t rkey,
          Layout layout, std::uint32_t client_id,
          remem::BackoffPolicy poll_backoff = {});

  // Returns the number of tail-CAS attempts spent (>= 1).
  sim::TaskT<remem::Outcome<std::uint32_t>> acquire();
  sim::TaskT<verbs::Status> release();

  // Repoints at another lock of the same layout (same client id). Only
  // legal while not held: the qnode is re-initialized by every acquire,
  // so no per-lock state survives in the handle.
  void retarget(std::uint64_t base_addr);

  bool held() const { return held_; }
  std::uint64_t acquisitions() const { return acquisitions_; }
  // Acquisitions that waited behind a predecessor (handoff receives).
  std::uint64_t queued_acquisitions() const { return queued_acquisitions_; }

 private:
  remem::WordClient words_;
  std::uint64_t base_addr_;
  std::uint32_t rkey_;
  Layout layout_;
  std::uint32_t id_;
  remem::BackoffPolicy poll_backoff_;
  bool held_ = false;
  std::uint64_t acquisitions_ = 0;
  std::uint64_t queued_acquisitions_ = 0;
};

}  // namespace rdmasem::sync
