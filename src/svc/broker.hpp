#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "util/stats.hpp"
#include "verbs/qp.hpp"

namespace rdmasem::svc {

using TenantId = std::uint32_t;

// Per-op admission decision (reported back to the tenant and mirrored in
// the svc.broker.* obs counters: admitted counts kAdmitted AND kQueued
// once they dispatch; queued counts kQueued; rejected counts kRejected).
enum class Admission : std::uint8_t {
  kAdmitted = 0,  // dispatched without waiting
  kQueued,        // waited (throttle or full pool), then dispatched
  kRejected,      // bounced by the queue-or-reject policy
};

const char* to_string(Admission a);

// Broker policy knobs (docs/SERVICE.md).
struct BrokerConfig {
  // Per-tenant token bucket: sustained rate in ops per microsecond of
  // virtual time, with `bucket_depth` ops of burst credit. Implemented
  // as GCRA (virtual-clock theoretical-arrival-time), so admission is
  // O(1), exact, and a pure function of virtual time — no RNG, no
  // wall-clock. The default rate is high enough to be effectively
  // unthrottled; dial it down to shape tenants.
  double tokens_per_us = 1000.0;
  double bucket_depth = 64.0;
  // Queue-or-reject policy: an op that cannot dispatch immediately
  // (throttled, or every pooled QP busy) waits while fewer than
  // max_queue ops are already waiting, else it is rejected.
  std::size_t max_queue = 4096;
  // false = reject throttled ops outright instead of sleeping them
  // until their token matures (pool-full ops may still queue).
  bool queue_throttled = true;
};

// Per-tenant accounting, kept broker-local (the obs Hub carries only the
// cluster-wide aggregates). wait_ns records the admission wait — queue
// plus throttle, not the RDMA op itself — of every dispatched op.
struct TenantStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t queued = 0;
  std::uint64_t rejected = 0;
  util::Log2Histogram wait_ns;
};

struct SubmitResult {
  Admission admission = Admission::kRejected;
  // Meaningful only when admission != kRejected (rejected ops never
  // reach a QP; the completion stays default-constructed).
  verbs::Completion completion{};
  // Admission wait on the virtual clock (0 for kAdmitted/kRejected).
  sim::Duration waited = 0;

  bool ok() const {
    return admission != Admission::kRejected && completion.ok();
  }
};

// Broker — a per-host connection multiplexer (the RDMAvisor idea):
// tenant sessions submit verbs work requests to the broker, which
// dispatches them over a small bounded pool of long-lived QPs instead of
// giving every tenant a private connection. The host then holds O(pool)
// QP contexts in RNIC SRAM however many tenants it serves, which is what
// keeps the metadata cache from thrashing at scale (bench/
// ext_tenant_scale.cpp).
//
// Determinism: all broker state lives on the owning machine's lane —
// submit() settles there first — and ties are broken by arrival order on
// the virtual clock (the pool semaphore and the GCRA bucket are both
// FIFO per lane, and same-instant arrivals dispatch in the engine's
// deterministic per-lane sequence order). Token maturities are computed,
// never sampled, so every replay makes the same admissions.
//
// Every pooled QP must belong to the same Context (one broker per host);
// the tenant->broker handoff charges one cpu_ipc shared-memory hop.
class Broker {
 public:
  explicit Broker(std::vector<verbs::QueuePair*> pool, BrokerConfig cfg = {});

  // Runs one tenant op through admission control and a pooled QP.
  // Resumes the caller on the broker's home lane.
  sim::TaskT<SubmitResult> submit(TenantId tenant, verbs::WorkRequest wr);

  verbs::Context& context() { return *ctx_; }
  std::size_t pool_size() const { return pool_.size(); }
  // Ops currently waiting on admission (throttle + pool).
  std::size_t queue_depth() const { return waiting_; }

  // nullptr until the tenant's first submit.
  const TenantStats* tenant_stats(TenantId t) const;
  std::uint64_t admitted() const { return admitted_; }
  std::uint64_t queued() const { return queued_; }
  std::uint64_t rejected() const { return rejected_; }

 private:
  // GCRA state: the virtual time at which the tenant's NEXT op conforms
  // without waiting (minus the burst tolerance).
  struct Bucket {
    sim::Time tat = 0;
  };

  std::uint32_t home_lane() const;

  verbs::Context* ctx_;
  BrokerConfig cfg_;
  std::vector<verbs::QueuePair*> pool_;
  // LIFO freelist: under light load the same few QPs are reused, which
  // keeps their contexts hot in the RNIC metadata cache.
  std::vector<verbs::QueuePair*> free_;
  sim::Semaphore slots_;
  sim::Duration token_interval_;   // ps between matured tokens
  sim::Duration burst_tolerance_;  // (bucket_depth - 1) * token_interval
  std::size_t waiting_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t queued_ = 0;
  std::uint64_t rejected_ = 0;
  std::unordered_map<TenantId, Bucket> buckets_;
  std::unordered_map<TenantId, TenantStats> stats_;
};

}  // namespace rdmasem::svc
