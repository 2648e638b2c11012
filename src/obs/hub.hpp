#pragma once

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rdmasem::obs {

// Hub — the per-cluster observability root: one metrics registry plus
// one WR-lifecycle tracer. The Cluster owns a Hub and every layer above
// sim reaches it through cluster.obs().
//
// Hot-path counters are resolved once at construction and cached as
// references, so the instrumented fast paths (QP completion, retransmit,
// consolidation staging) never do a name lookup. Counters are always on:
// a 64-bit increment cannot perturb the virtual clock, so fault-free runs
// stay trace-identical with or without observers (the zero-cost
// contract). Tracing is off by default and toggled by RDMASEM_TRACE=1 or
// Tracer::set_enabled.
struct Hub {
  MetricsRegistry metrics;
  Tracer tracer;

  // verbs: WR lifecycle and failure handling
  Counter& wr_posted;
  Counter& wr_completed;
  Counter& wr_failed;          // any non-success completion
  Counter& wr_flushed;         // kWrFlushedError completions
  Counter& retry_exhausted;    // kRetryExceeded completions
  Counter& retransmits;        // RC transport retransmissions
  Counter& backoff_ps;         // total retransmit backoff (picoseconds)
  Counter& rnr_naks;           // SEND receiver-not-ready NAK rounds
  // verbs datapath: payload staging routes. Deterministic predicates of
  // the WR shape (NOT freelist state, which depends on thread placement),
  // so the values are shard-count invariant:
  //   zero_copy_wrs     — payloads carried as a borrowed MR view
  //   payload_pool_hits — staged through an O(1) route (inline arm or
  //                       pooled size class)
  //   payload_pool_misses — staged via the heap (oversize payloads)
  Counter& zero_copy_wrs;
  Counter& payload_pool_hits;
  Counter& payload_pool_misses;
  // verbs: shared receive queues (buffers posted to / consumed from an
  // SRQ, and SEND arrivals that found the SRQ dry — counted whether the
  // sender then retries or fails fast, so unlike rnr_naks it includes
  // the zero-retry give-up round) and DC transport attach events (each
  // is an mcache miss that additionally paid the dynamic-connect
  // handshake).
  Counter& srq_posted;
  Counter& srq_consumed;
  Counter& srq_rnr;
  Counter& dc_attaches;
  // svc: connection-broker admission control (docs/SERVICE.md).
  //   admitted — ops dispatched to a pooled QP (includes previously
  //              queued ops once they dispatch)
  //   rejected — ops bounced by the queue-or-reject policy
  //   queued   — ops that waited (throttle or full pool) before dispatch
  Counter& broker_admitted;
  Counter& broker_rejected;
  Counter& broker_queued;
  // remem: semantic-layer strategies
  Counter& consolidate_staged;
  Counter& consolidate_merges;   // writes absorbed into an already-dirty block
  Counter& consolidate_flushes;
  Counter& proxy_hops;           // §III-D inter-socket proxy handoffs
  Counter& proxy_direct;
  Counter& cas_attempts;
  Counter& cas_failures;         // lost CAS races = atomics contention
  // sync: one-sided synchronization layer (docs/SYNC.md)
  //   opt_reads / opt_retries — optimistic cell READs and validation
  //                             retries (mid-commit snapshots caught)
  //   lock_acquires / lock_handoffs — lock grants, and MCS direct
  //                                   handoffs received while queued
  //   lease_epoch_bumps / lease_fence_aborts — lease acquisitions (each
  //       bumps the epoch) and write bursts denied by the expiry-margin
  //       check or the guard-epoch probe
  Counter& opt_reads;
  Counter& opt_retries;
  Counter& lock_acquires;
  Counter& lock_handoffs;
  Counter& lease_epoch_bumps;
  Counter& lease_fence_aborts;
  // apps/txkv: read-validate-write commits and aborts (lock budget or
  // validation failures)
  Counter& txkv_commits;
  Counter& txkv_aborts;
  // rnic: total metadata-cache miss stall picoseconds charged to WRs
  // (requester + responder side). The per-resource wait tables cover
  // server queueing; mcache stalls are latency, not occupancy, so they
  // get their own counter.
  Counter& mcache_stall_ps;
  // per-WR post-to-CQE latency (nanoseconds)
  util::Log2Histogram& wr_latency_ns;
  // broker admission wait (queue + throttle), nanoseconds
  util::Log2Histogram& broker_wait_ns;

  Hub();
  Hub(const Hub&) = delete;
  Hub& operator=(const Hub&) = delete;
};

}  // namespace rdmasem::obs
