#pragma once

#include <atomic>
#include <chrono>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/lane.hpp"
#include "sim/rng.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "util/assert.hpp"

namespace rdmasem::sim {

class Engine;

namespace detail {

// Which engine/shard/lane the current thread is dispatching for. Set by
// Engine::dispatch around every event; empty outside a dispatch.
// `inline_until` is the exclusive horizon for the inline-wakeup fast path
// (see Engine::try_inline_advance): a suspension whose wakeup lands
// strictly before it MAY run inline, without an event. The run loops set
// it to their dispatch horizon (run: unbounded; run_until: deadline + 1;
// parallel rounds: the shard's current bound). It stays 0 — fast path
// off — in run_events(), whose cross-shard global-minimum stepping cannot
// be checked against a single shard queue, and outside any dispatch.
struct ExecContext {
  Engine* eng = nullptr;
  std::uint32_t shard = 0;
  std::uint32_t lane = 0;
  Time inline_until = 0;
};
inline thread_local ExecContext t_exec{};

}  // namespace detail

// --- engine profiling (Plane 2: host time) ----------------------------------
//
// Per-shard host-clock statistics of one profiling window (between
// drain_profile() calls). Gated by RDMASEM_PROF / Engine::set_profiling and
// measured with std::chrono::steady_clock, strictly OUTSIDE the virtual
// timeline: profiling reads wall clocks and bumps plain shard-local
// counters, never schedules events, never reads the RNG and never moves a
// shard clock — a profiled run is byte-identical to an unprofiled one at
// every shard count (tests/obs_profiler_test.cpp asserts this).
//
// The inline_grants / merged_events / max_queue_depth counters are cheap
// enough to maintain unconditionally; only the steady_clock reads are
// gated.
struct ShardProfile {
  std::uint64_t epochs = 0;       // epochs run (serial: 1 per run call)
  std::uint64_t events = 0;       // events dispatched (incl. inline grants)
  std::uint64_t inline_grants = 0;   // suspensions elided by the fast path
  std::uint64_t merged_events = 0;   // cross-shard events merged INTO this
                                     // shard's queue (mid-round channel
                                     // pulls plus barrier drains)
  std::uint64_t merge_ns = 0;        // barrier inbox-drain wall time (each
                                     // worker pulls its own inboxes at
                                     // round entry)
  std::uint64_t barrier_park_ns = 0;  // parked at the epoch barrier
  std::uint64_t dispatch_ns = 0;      // inside the event-dispatch loop
  std::uint64_t wall_ns = 0;          // whole-run wall time for this shard
  std::uint64_t max_queue_depth = 0;  // event-queue high-water mark
  std::uint64_t lookahead_ps = 0;  // summed opening (static CMB) widths
                                   // granted to this shard (virtual ps past
                                   // the global floor); /epochs = effective
                                   // lookahead. Virtual-time derived, but
                                   // the round count it is summed over is
                                   // race-dependent, so treat it as Plane-2.
  // --- demand-driven horizon counters. Like barrier_park_ns these are
  // host-race-dependent: how far a horizon extends depends on how far
  // peers happened to have advanced when we refreshed. Output stays
  // byte-identical regardless (the bound is always conservative).
  std::uint64_t fused_epochs = 0;     // successful horizon extensions: a
                                      // refresh widened the bound, fusing
                                      // what would have been another
                                      // barrier round into this one
  std::uint64_t resplit_epochs = 0;   // extensions abandoned: the poll
                                      // budget expired with runnable work
                                      // still pending, so the round was
                                      // re-split at the epoch barrier
  std::uint64_t horizon_widening_ps = 0;  // virtual ps gained past the
                                          // static CMB bound by extensions
  std::uint64_t spilled_events = 0;   // cross-shard events this shard sent
                                      // through the barrier-drained outbox
                                      // because the channel ring was full
};

struct EngineProfile {
  bool enabled = false;
  std::uint32_t shards = 1;
  std::uint64_t runs = 0;  // profiled run()/run_until() invocations
  std::vector<ShardProfile> shard;
};

// Lane topology for the per-(src,dst) lookahead matrix. Each lane belongs
// to an affinity GROUP (for a cluster: the leaf switch of its machine;
// the driver lane rides with machine 0), and group_latency[g * groups + h]
// is the minimum virtual latency any cross-lane signal from a lane of
// group g to a lane of group h can carry. The matrix may be asymmetric.
// An empty lane_group/group_latency means "uniform": one group whose
// latency is set_lookahead().
//
// Everything derived from this is a pure function of LANES, never of
// shard placement, so results stay byte-identical at every shard count;
// placement only decides how wide the epochs get.
struct LaneTopology {
  std::vector<std::uint32_t> lane_group;  // size == lanes; empty -> all 0
  std::vector<Duration> group_latency;    // groups x groups, row-major
  std::uint32_t groups = 1;
};

// Discrete-event simulation engine: a virtual clock plus calendar queues
// of (time, key, callback) events (see sim/event_queue.hpp).
//
// Work is organized in LANES: lane 0 is the driver/main context, lane m+1
// is machine m of a cluster. Every event carries the lane it executes on;
// its dispatch key is (origin_lane << 48) | per_lane_seq, so the total
// (at, key) order is a pure function of per-lane schedule order — it does
// not depend on how lanes are placed onto shards. That is the determinism
// backbone of the parallel mode.
//
// With configure_lanes(lanes, shards > 1) the engine partitions lanes
// across worker shards, each with its own EventQueue, and run()/run_until()
// execute shards on OS threads synchronized in conservative epochs. Epoch
// widths come from a per-(src,dst)-shard LOOKAHEAD MATRIX derived from the
// lane topology (LaneTopology): each shard's horizon is the CMB bound
//   end(s) = min over ALL s' of (next(s') + reach(s' -> s)),
// where reach is the min-plus closure of the matrix (cheapest >= 1-hop
// send chain; for s' == s, the min round trip through another shard).
// The closure makes the bound safe against multi-epoch reactivation
// chains through currently-empty shards. It is never narrower than the
// classic global-minimum epoch, and much wider
// when the topology is non-uniform (e.g. leaf/spine fabrics with shards
// aligned to leaves). That bound only OPENS a round: every round is
// demand-driven, widening past it from the peers' published clocks while
// cross-shard events flow through per-(src,dst) SPSC channels pulled
// mid-round; the sense-reversing barrier between rounds drains leftovers
// and detects termination. Because merge order is absorbed by the
// (at, key) priority order, parallel execution is byte-identical to
// serial (docs/PERF.md has the full argument; the serial engine is the
// oracle in tests/parallel_determinism_test.cpp and tests/horizon_test.cpp).
//
// The default is one lane on one shard — the classic single-threaded
// engine, with no threads and no barriers on the hot path.
class Engine {
 public:
  static constexpr std::uint32_t kLaneShift = 48;
  static constexpr std::uint32_t kMaxLanes = 1u << 14;

  Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  // Reclaims spawned coroutine frames that are still suspended (e.g.
  // server loops parked on an empty channel).
  ~Engine();

  // Inside a dispatch: the executing shard's clock (== the running
  // event's timestamp, exactly as in the serial engine). Outside: the
  // unified clock — max over shard clocks at the last run boundary —
  // which is identical for every shard count. Benches and the Rig read
  // timestamps only through this accessor, so they cannot observe
  // shard-local time skew.
  Time now() const {
    return detail::t_exec.eng == this ? shards_[detail::t_exec.shard]->now
                                      : unified_now_;
  }

  // --- lane topology -------------------------------------------------------

  // Partitions `lanes` logical lanes (driver + machines) across `shards`
  // worker shards. Must be called before any event is scheduled; lane 0
  // always maps to shard 0 (the main thread). With a non-uniform `topo`,
  // placement is communication-affinity aware: whole affinity groups go
  // onto one shard where balance allows, maximizing the pairwise lookahead
  // matrix (cross-shard pairs then sit in different groups and pay the
  // larger cross-group latency).
  void configure_lanes(std::uint32_t lanes, std::uint32_t shards,
                       LaneTopology topo = {});
  std::uint32_t lanes() const { return lanes_; }
  std::uint32_t shards() const { return nshards_; }
  std::uint32_t shard_of(std::uint32_t lane) const {
    return lane_shard_[lane];
  }
  // Uniform-topology setter (bare-engine tests): one affinity group whose
  // cross-lane latency is `d`. Clusters install a full LaneTopology via
  // configure_lanes instead.
  void set_lookahead(Duration d);
  // Global minimum cross-lane latency (the narrowest epoch any shard pair
  // can force). Kept as the floor assertion for parallel runs; routing
  // decisions should use the per-pair overloads below.
  Duration lookahead() const { return lookahead_; }
  // Minimum latency a signal from `from_lane` to `to_lane` must carry —
  // what home-lane sync primitives and settle() route with. A pure
  // function of the two lanes' groups, independent of shard placement.
  Duration lookahead(std::uint32_t from_lane, std::uint32_t to_lane) const {
    return group_lat_[static_cast<std::size_t>(lane_group_[from_lane]) *
                          ngroups_ +
                      lane_group_[to_lane]];
  }
  // The per-(src,dst)-shard lookahead matrix entry: min lookahead over
  // lane pairs actually placed on the two shards. Cross-shard events from
  // src arriving sooner than this after src's epoch floor abort the run.
  Duration shard_lookahead(std::uint32_t src, std::uint32_t dst) const {
    return shard_lat_[static_cast<std::size_t>(src) * nshards_ + dst];
  }
  // Min cost of a send CHAIN src -> ... -> dst with at least one hop
  // (src == dst: the min round trip through another shard). The epoch
  // horizon is computed from this, not the direct edge — see
  // rebuild_shard_lookahead for why reactivation of empty shards demands
  // the closure.
  Duration shard_reach(std::uint32_t src, std::uint32_t dst) const {
    return shard_reach_[static_cast<std::size_t>(src) * nshards_ + dst];
  }

  // --- scheduling ----------------------------------------------------------

  // Schedules `fn` to run at absolute time `at` (clamped to now()) on the
  // calling lane.
  template <typename F>
  void schedule_at(Time at, F&& fn) {
    const Caller c = caller();
    schedule_from(c, c.lane, at, std::forward<F>(fn));
  }
  // Schedules `fn` to run `delay` after now() on the calling lane.
  template <typename F>
  void schedule_in(Duration delay, F&& fn) {
    const Caller c = caller();
    schedule_from(c, c.lane, c.now + delay, std::forward<F>(fn));
  }
  // Schedules `fn` on an explicit lane. The dispatch key still carries
  // the CALLING lane (origin), keeping the total order placement-free.
  template <typename F>
  void schedule_on(std::uint32_t lane, Time at, F&& fn) {
    schedule_from(caller(), lane, at, std::forward<F>(fn));
  }

  // Schedules a coroutine resumption (cheaper + clearer than a lambda).
  void resume_at(Time at, std::coroutine_handle<> h) {
    const Caller c = caller();
    resume_from(c, c.lane, at, h);
  }
  void resume_in(Duration delay, std::coroutine_handle<> h) {
    const Caller c = caller();
    resume_from(c, c.lane, c.now + delay, h);
  }
  void resume_on(std::uint32_t lane, Time at, std::coroutine_handle<> h) {
    resume_from(caller(), lane, at, h);
  }

  // Transfers ownership of a Task to the engine and starts it at now()
  // on the calling lane (spawn) or an explicit lane (spawn_on). Root
  // tasks that drive a machine MUST be spawned on that machine's lane
  // (machine_id + 1) or they race under RDMASEM_SHARDS > 1. The frame is
  // destroyed when the task finishes.
  void spawn(Task&& task) { spawn_on(caller_lane(), std::move(task)); }
  void spawn_on(std::uint32_t lane, Task&& task);

  // --- running -------------------------------------------------------------

  // Runs until the event queue is empty. Returns the final clock value.
  Time run();
  // Runs events with timestamp <= deadline; clock ends at
  // max(now, min(deadline, last event time)). Returns true if events remain.
  bool run_until(Time deadline);
  // Drains at most `max_events` events in global (at, key) order; returns
  // the number processed. Always serial, whatever the shard count.
  std::uint64_t run_events(std::uint64_t max_events);

  // --- inline-wakeup fast path ---------------------------------------------

  // Attempts to grant a suspension point inline: returns true — and
  // advances the executing shard's clock to `at`, counting one processed
  // event — iff resuming at `at` right now is indistinguishable from
  // scheduling, popping and dispatching the wakeup event. That holds
  // exactly when (a) the caller is inside a dispatch of this engine with
  // `at` inside the loop's horizon, and (b) the shard queue holds no event
  // ordered before the wakeup would be, under the event's would-be key
  // ((lane << 48) | next per-lane seq — NOT consumed on the fast path;
  // skipping seq values is order-preserving because comparisons only ever
  // use relative per-lane order). Awaiters (sim::delay, Resource::use)
  // call this from await_ready, so an uncontended pipeline stage costs no
  // event, no queue traffic and no suspension. Determinism: the dispatch
  // sequence (timestamps, lane order, processed-event count) is identical
  // with the fast path on or off, at every shard count — asserted by
  // tests/determinism_test.cpp and tests/parallel_determinism_test.cpp.
  bool try_inline_advance(Time at);
  bool try_inline_delay(Duration d) {
    const detail::ExecContext& x = detail::t_exec;
    if (x.eng != this) return false;
    return try_inline_advance(shards_[x.shard]->now + d);
  }
  // Inline grant for a cross-lane hop. Legal only when the target lane
  // lives on the EXECUTING shard: then the hop's wakeup event would land
  // in this shard's own queue (never an epoch mailbox), and the same
  // (at, key) front-of-queue check as try_inline_advance applies — the
  // would-be key carries the ORIGIN lane, exactly as resume_on would
  // build it. On grant the exec context migrates to `lane`, just as
  // dispatching the event would have set it from Event::exec_lane. With
  // one shard every hop is same-shard, so the whole verb pipeline
  // (request leg, response leg, completion) can ride the fast path.
  bool try_inline_hop(std::uint32_t lane, Duration d) {
    const detail::ExecContext& x = detail::t_exec;
    if (x.eng != this || lane >= lanes_ || lane_shard_[lane] != x.shard)
      return false;
    if (!try_inline_advance(shards_[x.shard]->now + d)) return false;
    detail::t_exec.lane = lane;
    return true;
  }

  // --- engine profiling (Plane 2) ------------------------------------------

  // Host-time profiling switch; the constructor seeds it from RDMASEM_PROF.
  // Flip it only while the engine is not running.
  void set_profiling(bool on) { prof_ = on; }
  bool profiling() const { return prof_; }
  // Moves the accumulated per-shard host-clock stats out and starts a new
  // profiling window (event counts restart from the current processed
  // totals, queue high-water marks re-anchor at the live depth). The
  // returned snapshot reflects everything run since the last drain.
  EngineProfile drain_profile();

  bool idle() const {
    for (const auto& sh : shards_)
      if (!sh->queue.empty()) return false;
    return true;
  }
  std::uint64_t events_processed() const {
    std::uint64_t n = 0;
    for (const auto& sh : shards_) n += sh->processed;
    return n;
  }

  // The calling lane's deterministic random stream. Streams are per-lane
  // so draws are independent of shard placement; lane 0 keeps the exact
  // seed-engine stream.
  Rng& rng() { return lane_rng_[caller_lane()]; }
  void seed(std::uint64_t s);

 private:
  // SPSC channel carrying cross-shard events from one fixed producer
  // shard to one fixed consumer shard. The producer writes a slot then
  // release-stores `tail`; the consumer acquire-loads `tail` and drains
  // [head, tail). Unlike the spill outbox rows (stable only while
  // producers are parked at the barrier), a channel may be pulled
  // MID-ROUND: delivery timing cannot affect output because every pulled
  // event provably lands in the consumer's future (see refresh_horizon)
  // and the (at, seq) queue order absorbs arrival order. A full ring falls back to the
  // barrier-drained outbox row plus a publication freeze (see
  // push_event), so the producer never blocks on a parked consumer.
  struct alignas(64) EventChannel {
    static constexpr std::uint64_t kCap = 256;  // power of two
    std::unique_ptr<Event[]> buf = std::make_unique<Event[]>(kCap);
    alignas(64) std::atomic<std::uint64_t> tail{0};  // producer cursor
    alignas(64) std::atomic<std::uint64_t> head{0};  // consumer cursor
  };

  // Each Shard is separately heap-allocated and cache-line aligned, and
  // its members are grouped by sharing pattern so the owner's dispatch-hot
  // state never shares a line with anything another thread touches.
  struct alignas(64) Shard {
    // --- owner-hot: touched on every dispatch by the owning thread.
    EventQueue queue;
    Time now = 0;
    std::uint64_t processed = 0;
    DetachedRegistry detached;
    // --- round bookkeeping. outbox rows (the ring-spill route) are
    // written by the owner during its round and drained by the
    // DESTINATION worker while the owner is parked at the barrier.
    // epoch_ends is the owner's private copy of the per-destination
    // static bound: epoch_ends[d] is the earliest timestamp a cross-shard
    // event pushed to shard d may carry this round (every thread computes
    // identical values from the published next-times).
    std::vector<std::vector<Event>> outbox;
    std::vector<Time> epoch_ends;
    // --- demand-driven horizon state (owner-private). chan[d] is this
    // shard's SPSC channel toward shard d. pub_mark is the virtual time
    // at which the owner next republishes its clock (quantum-gated);
    // pub_freeze caps every publication once an event spilled past a full
    // ring (spilled events are invisible until the barrier, so peers must
    // not run past spill-time + lookahead).
    std::unique_ptr<EventChannel[]> chan;
    Time pub_mark = 0;
    Time pub_freeze = ~Time{0};
    // --- publication slot: this shard's post-merge next event time,
    // written by the owner before the epoch barrier and read by every
    // thread after it — and by NOBODY during the round, so all shards'
    // step-3 static bounds are computed from one consistent snapshot.
    // Own line: it is the hot cross-thread word.
    alignas(64) std::atomic<Time> next_time{0};
    // --- live clock: a monotone lower bound on this shard's next
    // dispatch time — and hence, plus the per-pair lookahead, on the
    // arrival time of every event it may still send or RELAY this round.
    // Separate from next_time on purpose: mid-round stores here cannot
    // race another shard's static-bound computation. Values, in round
    // order: sh.now (published at the pre-barrier reset — a drained shard
    // may still relay mid-round pulls, so it never claims a "sends
    // nothing" clock); min(own next, static bound) at run entry; at each
    // dispatch the
    // event's timestamp (quantum-gated); while stalled, the shard's
    // current bound. Readers acquire it BEFORE pulling the publisher's
    // channel, so anything not yet visible in the ring provably carries
    // at >= clock + lookahead (see refresh_horizon).
    alignas(64) std::atomic<Time> live_clock{0};
    // --- host-time profiling accumulator (Plane 2), own line. Written
    // only by the owning thread.
    alignas(64) ShardProfile prof;
    // processed-count anchor of the current profiling window.
    std::uint64_t prof_events_base = 0;
  };

  // The calling context's (origin lane, clock), read from thread-local
  // state ONCE per public scheduling call — the schedule path is the
  // engine's hottest, so every public entry snapshots this and threads it
  // through instead of re-deriving per field.
  struct Caller {
    std::uint32_t lane;
    Time now;
  };
  Caller caller() const {
    const detail::ExecContext x = detail::t_exec;
    return x.eng == this ? Caller{x.lane, shards_[x.shard]->now}
                         : Caller{0, unified_now_};
  }
  std::uint32_t caller_lane() const { return caller().lane; }
  Time caller_now() const { return caller().now; }
  // Dispatch keys pack the ORIGIN lane above a per-lane counter: ties at
  // one timestamp order by (origin lane, per-lane schedule order), which
  // every shard count reproduces identically.
  std::uint64_t key_for(std::uint32_t origin) {
    return (static_cast<std::uint64_t>(origin) << kLaneShift) |
           lane_seq_[origin]++;
  }

  // The callable moves into a pooled CallBox; the event carries only its
  // tagged pointer (see sim::Event).
  template <typename F>
  void schedule_from(const Caller& c, std::uint32_t lane, Time at, F&& fn) {
    push_event(lane, Event{at < c.now ? c.now : at, key_for(c.lane),
                           Event::call_target(
                               CallBox::make(std::forward<F>(fn))),
                           lane});
  }
  void resume_from(const Caller& c, std::uint32_t lane, Time at,
                   std::coroutine_handle<> h) {
    push_event(lane, Event{at < c.now ? c.now : at, key_for(c.lane),
                           Event::resume_target(h), lane});
  }

  void push_event(std::uint32_t target_lane, const Event& ev) {
    RDMASEM_CHECK_MSG(target_lane < lanes_, "event lane out of range");
    const std::uint32_t dst = lane_shard_[target_lane];
    if (parallel_running_) {
      const std::uint32_t src =
          detail::t_exec.eng == this ? detail::t_exec.shard : 0;
      if (dst != src) {
        Shard& sh = *shards_[src];
        // Conservative-epoch safety: a cross-shard event may not land
        // inside the destination's current epoch (it may already have run
        // past it). epoch_ends[dst] is the pushing shard's own copy of the
        // per-destination bound — the fabric and the home-lane sync
        // routing guarantee it by construction, because every cross-lane
        // path pays at least the per-pair lookahead latency.
        RDMASEM_CHECK_MSG(ev.at >= sh.epoch_ends[dst],
                          "cross-shard event inside the lookahead window");
        // The per-pair latency floor itself, enforced directly: the
        // demand-driven horizon (refresh_horizon) is sound exactly
        // because every send from local clock `now` carries
        // at >= now + shard_lookahead(src, dst).
        RDMASEM_CHECK_MSG(
            ev.at >= sh.now + shard_lat_[static_cast<std::size_t>(src) *
                                             nshards_ +
                                         dst],
            "cross-shard event undercuts the per-pair lookahead");
        // Route through the SPSC channel so the destination can pull
        // mid-round. Ring full: spill to the
        // barrier-drained outbox row and freeze this shard's published
        // clock at its current position — spilled events are invisible
        // until the next barrier, so peers must not extend past
        // now + lookahead.
        EventChannel& ch = sh.chan[dst];
        const std::uint64_t t = ch.tail.load(std::memory_order_relaxed);
        if (t - ch.head.load(std::memory_order_acquire) <
            EventChannel::kCap) {
          ch.buf[t & (EventChannel::kCap - 1)] = ev;
          ch.tail.store(t + 1, std::memory_order_release);
        } else {
          if (sh.pub_freeze > sh.now) sh.pub_freeze = sh.now;
          ++sh.prof.spilled_events;
          sh.outbox[dst].push_back(ev);
        }
        return;
      }
    }
    shards_[dst]->queue.push(ev);
  }

  void dispatch(Shard& sh, std::uint32_t shard_idx, const Event& ev);
  // Run phase of one barrier round: dispatches below the
  // static bound `end`, then repeatedly refreshes a LIVE bound from the
  // peers' published clocks (pulling channel traffic as it lands) and
  // keeps running as long as the bound widens or deliveries arrive —
  // fusing what would have been many static rounds into one barrier
  // crossing. `cap` is deadline + 1 (kNoDeadline for run()).
  void run_shard_demand(std::uint32_t shard_idx, Time end, Time cap);
  // Recomputes shard_idx's live conservative bound and pulls every
  // peer channel (mid-epoch delivery). See engine.cpp for the soundness
  // argument; returns min(bound, cap).
  Time refresh_horizon(std::uint32_t shard_idx, Time cap);
  // Drains one channel into `dst`'s queue (consumer side).
  void channel_pull(Shard& dst, EventChannel& ch);
  // The conservative-epoch driver; `deadline` = kNoDeadline for run().
  // Returns true if events remain past the deadline.
  bool run_parallel(Time deadline);
  // One thread's whole run under the SPMD protocol (the main thread runs
  // it for shard 0).
  void epoch_loop(std::uint32_t shard_idx, Time deadline,
                  std::uint64_t base_phase);
  // Pulls every outbox row destined to `shard_idx` into its queue. The
  // caller must own the shard and every producer must be parked.
  void drain_inboxes(std::uint32_t shard_idx);
  // Sense-reversing barrier arrival (see barrier_ below).
  void barrier_wait(std::uint64_t& phase, ShardProfile* prof);
  // Recomputes shard_lat_ from lane placement and group latencies.
  void rebuild_shard_lookahead();

  static constexpr Time kNoDeadline = ~Time{0};
  // Consecutive non-dispatching iterations a round's run phase may spend
  // polling the peers' clocks before it gives up and re-splits at the
  // barrier. Large enough to fuse across a slow peer's dispatch burst,
  // small enough that an all-drained engine reaches the barrier (the only
  // place global termination is detected) within microseconds.
  static constexpr std::uint64_t kPollBudget = 512;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::uint64_t> lane_seq_;
  std::vector<Rng> lane_rng_;
  std::vector<std::uint32_t> lane_shard_;
  std::uint32_t lanes_ = 1;
  std::uint32_t nshards_ = 1;
  Duration lookahead_ = 0;
  Time unified_now_ = 0;
  std::uint64_t base_seed_;

  // Lane topology: lane -> affinity group, the groups x groups latency
  // matrix, and the placement-derived shards x shards lookahead matrix.
  std::vector<std::uint32_t> lane_group_;
  std::vector<Duration> group_lat_;
  std::uint32_t ngroups_ = 1;
  std::vector<Duration> shard_lat_;
  std::vector<Duration> shard_reach_;

  // SPMD-protocol barrier: one reusable sense-reversing barrier. Arrivals
  // accumulate in `arrived`; the last arriver resets the count and bumps
  // `phase` (the sense), releasing the spinners. The two words live on
  // separate cache lines so spinning on the sense never contends with
  // arrivals.
  struct alignas(64) EpochBarrier {
    std::atomic<std::uint32_t> arrived{0};
    alignas(64) std::atomic<std::uint64_t> phase{0};
  };
  EpochBarrier barrier_;

  bool parallel_running_ = false;
  // Virtual-time granularity of live clock publication, resolved at
  // parallel-run entry to half the global lookahead floor (see
  // run_parallel).
  Duration pub_quantum_ = 1;
  // Plane-2 profiling (RDMASEM_PROF). Written only while the engine is
  // not running; worker threads read it after being spawned.
  bool prof_ = false;
  std::uint64_t prof_runs_ = 0;
};

// One suspended coroutine plus the lane it must resume on. Sync
// primitives record this at await time so wakes land on the waiter's
// lane whatever lane the waker runs on.
struct LaneWaiter {
  std::coroutine_handle<> handle;
  std::uint32_t lane;
};

// Awaitable returned by delay(): suspends the coroutine and resumes it
// `d` later on the virtual clock, on the same lane. When the wakeup would
// be the very next dispatch anyway, await_ready grants it inline (no
// event, no suspension — Engine::try_inline_advance).
struct DelayAwaiter {
  Engine& engine;
  Duration d;
  bool await_ready() const noexcept { return engine.try_inline_delay(d); }
  void await_suspend(std::coroutine_handle<> h) const {
    engine.resume_in(d, h);
  }
  void await_resume() const noexcept {}
};

inline DelayAwaiter delay(Engine& e, Duration d) { return {e, d}; }

// Yield: reschedule at the current time, behind already-queued events.
inline DelayAwaiter yield(Engine& e) { return {e, 0}; }

// Awaitable returned by hop(): suspends the coroutine and resumes it `d`
// later ON `lane` — the only way execution migrates between lanes. Under
// RDMASEM_SHARDS > 1, `d` must be >= the per-pair lookahead
// (engine.lookahead(current_lane(), lane)) when the target lane lives on
// another shard — the fabric's per-pair link latency always is.
// Same-shard hops may be granted inline like delays (see
// Engine::try_inline_hop); cross-shard hops always go through the queue.
struct HopAwaiter {
  Engine& engine;
  std::uint32_t lane;
  Duration d;
  bool await_ready() const noexcept {
    return engine.try_inline_hop(lane, d);
  }
  void await_suspend(std::coroutine_handle<> h) const {
    engine.resume_on(lane, engine.now() + d, h);
  }
  void await_resume() const noexcept {}
};

inline HopAwaiter hop(Engine& e, std::uint32_t lane, Duration d) {
  return {e, lane, d};
}

// Conditional hop: no-op when the caller is already on `lane`, otherwise
// a hop of one (caller -> lane) lookahead — the minimum legal cross-shard
// migration for that specific pair; a uniform global minimum here would
// break the conservative bound on non-uniform topologies.
// Per-machine objects (front-ends, proxy routers, executors) put this at
// the top of their public coroutines so their state is only ever touched
// from the owner machine's lane, whatever lane the caller was resumed on.
struct SettleAwaiter {
  Engine& engine;
  std::uint32_t lane;
  bool await_ready() const noexcept { return current_lane() == lane; }
  void await_suspend(std::coroutine_handle<> h) const {
    engine.resume_on(lane,
                     engine.now() + engine.lookahead(current_lane(), lane), h);
  }
  void await_resume() const noexcept {}
};

inline SettleAwaiter settle(Engine& e, std::uint32_t lane) {
  return {e, lane};
}

}  // namespace rdmasem::sim
