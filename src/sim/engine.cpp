#include "sim/engine.hpp"

#include <algorithm>

#include "util/env.hpp"

namespace rdmasem::sim {

namespace {

// Seed for lane l's private RNG stream: a splitmix64 step keyed on the
// lane, so streams are decorrelated but a pure function of (seed, lane) —
// independent of shard placement.
std::uint64_t mix_seed(std::uint64_t s, std::uint32_t lane) {
  std::uint64_t z = s + 0x9e3779b97f4a7c15ULL * (lane + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t kDefaultSeed = 0x9e3779b97f4a7c15ULL;

// One pipeline-friendly pause between condition polls.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

// Bounded exponential spin-then-yield: poll-relax for a short burst, back
// off exponentially up to a cap, then fall through to yield(). Barriers
// are usually released within the spin window on dedicated cores, while
// core-bound containers (CI, laptops running shards > cores) reach the
// yield quickly instead of burning the only core the releaser needs.
template <typename Cond>
void spin_until(Cond&& cond) {
  std::uint32_t backoff = 1;
  for (std::uint32_t i = 0; !cond(); ++i) {
    if (i < 64) {
      cpu_relax();
    } else if (backoff < 1024) {
      for (std::uint32_t b = 0; b < backoff; ++b) cpu_relax();
      backoff <<= 1;
    } else {
      std::this_thread::yield();
    }
  }
}

using ProfClock = std::chrono::steady_clock;

std::uint64_t ns_since(ProfClock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(ProfClock::now() -
                                                           t0)
          .count());
}

}  // namespace

std::uint32_t current_lane() noexcept { return detail::t_exec.lane; }

Engine::Engine() : base_seed_(kDefaultSeed) {
  shards_.push_back(std::make_unique<Shard>());
  shards_[0]->outbox.resize(1);
  shards_[0]->epoch_ends.assign(1, 0);
  lane_seq_.assign(1, 0);
  lane_rng_.emplace_back(base_seed_);
  lane_shard_.assign(1, 0);
  lane_group_.assign(1, 0);
  group_lat_.assign(1, 0);
  shard_lat_.assign(1, 0);
  shard_reach_.assign(1, 0);
  prof_ = util::env_bool("RDMASEM_PROF", false);
}

Engine::~Engine() {
  // Unblocked destruction order: drop the event queues first (pending
  // resumptions reference frames, pending callables own their boxes),
  // then destroy surviving frames. Channels and spill rows are normally
  // empty here (drained at every round top), but an aborted run may
  // strand events in them — drop those the same way. A channel's live
  // range is [head, tail): slots before head were pulled and are owned
  // by the consumer's queue now.
  for (auto& sh : shards_) {
    sh->queue.clear();
    for (auto& row : sh->outbox) {
      for (const Event& ev : row) ev.drop();
      row.clear();
    }
    if (sh->chan == nullptr) continue;
    for (std::uint32_t d = 0; d < nshards_; ++d) {
      EventChannel& ch = sh->chan[d];
      const std::uint64_t h = ch.head.load(std::memory_order_relaxed);
      const std::uint64_t t = ch.tail.load(std::memory_order_relaxed);
      for (std::uint64_t i = h; i != t; ++i)
        ch.buf[i & (EventChannel::kCap - 1)].drop();
      ch.head.store(t, std::memory_order_relaxed);
    }
  }
  for (auto& sh : shards_) {
    // Snapshot before destroying: a frame's locals may unregister other
    // frames from their destructors.
    std::vector<void*> live;
    live.reserve(sh->detached.frames.size());
    sh->detached.frames.for_each([&](void* p) { live.push_back(p); });
    sh->detached.frames.clear();
    for (void* addr : live)
      std::coroutine_handle<>::from_address(addr).destroy();
  }
}

void Engine::configure_lanes(std::uint32_t lanes, std::uint32_t shards,
                             LaneTopology topo) {
  RDMASEM_CHECK_MSG(lanes >= 1 && lanes <= kMaxLanes,
                    "configure_lanes: lane count out of range");
  if (shards == 0) shards = 1;
  if (shards > lanes) shards = lanes;
  for (auto& sh : shards_)
    RDMASEM_CHECK_MSG(sh->queue.empty(),
                      "configure_lanes with events already scheduled");
  lanes_ = lanes;
  nshards_ = shards;
  lane_seq_.assign(lanes, 0);
  lane_rng_.clear();
  lane_rng_.reserve(lanes);
  for (std::uint32_t l = 0; l < lanes; ++l)
    lane_rng_.emplace_back(l == 0 ? base_seed_ : mix_seed(base_seed_, l));
  // Install the lane topology. Empty = uniform: one group whose latency
  // is whatever set_lookahead() chose (callable before or after this).
  if (topo.lane_group.empty()) {
    ngroups_ = 1;
    lane_group_.assign(lanes, 0);
    group_lat_.assign(1, lookahead_);
  } else {
    RDMASEM_CHECK_MSG(topo.lane_group.size() == lanes,
                      "configure_lanes: lane_group size mismatch");
    RDMASEM_CHECK_MSG(topo.group_latency.size() ==
                          static_cast<std::size_t>(topo.groups) * topo.groups,
                      "configure_lanes: group_latency size mismatch");
    ngroups_ = topo.groups;
    lane_group_ = std::move(topo.lane_group);
    group_lat_ = std::move(topo.group_latency);
    for (std::uint32_t g : lane_group_)
      RDMASEM_CHECK_MSG(g < ngroups_, "configure_lanes: group out of range");
    lookahead_ = group_lat_[0];
    for (const Duration d : group_lat_) lookahead_ = std::min(lookahead_, d);
  }
  // Lane placement. Lane 0 (driver) always runs on shard 0. Uniform
  // topology: machine lanes split into contiguous equal-size ranges, so
  // fabric neighbours tend to share a shard. Non-uniform: the same walk,
  // but a shard also closes early at an affinity-group boundary once it
  // holds its fair share — whole groups land on one shard where balance
  // allows, so cross-shard lane pairs sit in different groups and the
  // pairwise lookahead matrix is maximized.
  lane_shard_.assign(lanes, 0);
  if (lanes > 1) {
    if (ngroups_ <= 1) {
      for (std::uint32_t l = 1; l < lanes; ++l)
        lane_shard_[l] = static_cast<std::uint32_t>(
            (static_cast<std::uint64_t>(l - 1) * shards) / (lanes - 1));
    } else {
      // Lane 0 counts toward shard 0's fill, so the driver's group mates
      // ride with it and the fair-share math sees every lane. The
      // `remaining - filled` guard keeps at least one lane available for
      // every shard still to open.
      std::uint32_t s = 0;
      std::uint32_t filled = 1;  // lane 0
      std::uint32_t remaining = lanes;
      std::uint32_t shards_left = shards;
      for (std::uint32_t l = 1; l < lanes; ++l) {
        const bool boundary = lane_group_[l] != lane_group_[l - 1];
        const std::uint32_t fair =
            (remaining + shards_left - 1) / shards_left;  // ceil
        if (s + 1 < shards && filled > 0 &&
            remaining - filled >= shards_left - 1 &&
            (filled >= fair ||
             (boundary && static_cast<std::uint64_t>(filled) * shards_left >=
                              remaining))) {
          ++s;
          --shards_left;
          remaining -= filled;
          filled = 0;
        }
        lane_shard_[l] = s;
        ++filled;
      }
    }
  }
  while (shards_.size() < shards) shards_.push_back(std::make_unique<Shard>());
  shards_.resize(shards);
  for (auto& sh : shards_) {
    sh->now = unified_now_;
    sh->outbox.clear();
    sh->outbox.resize(shards);
    sh->epoch_ends.assign(shards, 0);
    sh->chan = shards > 1 ? std::make_unique<EventChannel[]>(shards)
                          : nullptr;
    sh->live_clock.store(0, std::memory_order_relaxed);
    sh->pub_freeze = kNoDeadline;
    sh->pub_mark = 0;
  }
  rebuild_shard_lookahead();
}

void Engine::set_lookahead(Duration d) {
  lookahead_ = d;
  ngroups_ = 1;
  lane_group_.assign(lanes_, 0);
  group_lat_.assign(1, d);
  rebuild_shard_lookahead();
}

void Engine::rebuild_shard_lookahead() {
  // shard_lat_[s][d] = min group latency over (group on s) x (group on d).
  // Pairs involving a shard with no lanes (possible when shards == lanes)
  // fall back to the global minimum — maximally conservative, and never
  // exercised: an empty shard neither sends nor receives events.
  const std::size_t n = nshards_;
  std::vector<std::uint64_t> groups_on(n, 0);  // bitmask; ngroups_ <= 64
  const bool small = ngroups_ <= 64;
  for (std::uint32_t l = 0; l < lanes_ && small; ++l)
    groups_on[lane_shard_[l]] |= std::uint64_t{1} << lane_group_[l];
  shard_lat_.assign(n * n, lookahead_);
  if (small && ngroups_ > 1) {
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t d = 0; d < n; ++d) {
        if (groups_on[s] == 0 || groups_on[d] == 0) continue;
        Duration lat = ~Duration{0};
        for (std::uint32_t g = 0; g < ngroups_; ++g) {
          if (!(groups_on[s] >> g & 1)) continue;
        for (std::uint32_t h = 0; h < ngroups_; ++h) {
            if (!(groups_on[d] >> h & 1)) continue;
            lat = std::min(lat, group_lat_[static_cast<std::size_t>(g) *
                                               ngroups_ +
                                           h]);
          }
        }
        shard_lat_[s * n + d] = lat;
      }
    }
  }
  // shard_reach_[u][d] = cheapest latency of any send CHAIN u -> ... -> d
  // with at least one hop (for u == d: the min round trip through another
  // shard). The epoch horizon must use this, not the direct edge: a shard
  // whose queue is momentarily empty can be REACTIVATED by a neighbour's
  // send during the very epoch being bounded, and its relayed reply still
  // has to land outside the destination's horizon. Min-plus closure over
  // the direct matrix (Floyd–Warshall, then one mandatory final edge)
  // prices every such chain. n <= shards, so the cubic pass is trivial.
  std::vector<Duration> clo(shard_lat_);  // >=1-hop chain cost so far
  for (std::size_t k = 0; k < n; ++k)
    for (std::size_t u = 0; u < n; ++u)
      for (std::size_t d = 0; d < n; ++d) {
        const Duration via = clo[u * n + k] + clo[k * n + d];
        if (via >= clo[u * n + k] && via < clo[u * n + d])
          clo[u * n + d] = via;
      }
  shard_reach_ = clo;
  // A chain u -> d never undercuts the direct edge (triangle closure),
  // but the DIAGONAL must be the round trip, not the closure's 2-cycle
  // minimum through possibly-cheaper self loops: recompute it explicitly.
  for (std::size_t d = 0; d < n; ++d) {
    Duration rt = ~Duration{0};
    for (std::size_t s = 0; s < n; ++s) {
      if (s == d) continue;
      const Duration out = shard_reach_[d * n + s];
      const Duration back = shard_lat_[s * n + d];
      if (out + back >= out) rt = std::min(rt, out + back);
    }
    shard_reach_[d * n + d] = n > 1 ? rt : 0;
  }
}

void Engine::seed(std::uint64_t s) {
  base_seed_ = s;
  for (std::uint32_t l = 0; l < lane_rng_.size(); ++l)
    lane_rng_[l].reseed(l == 0 ? s : mix_seed(s, l));
}

void Engine::spawn_on(std::uint32_t lane, Task&& task) {
  RDMASEM_CHECK_MSG(lane < lanes_, "spawn_on: lane out of range");
  auto h = task.release_detached(&shards_[lane_shard_[lane]]->detached);
  resume_on(lane, caller_now(), h);
}

bool Engine::try_inline_advance(Time at) {
  const detail::ExecContext& x = detail::t_exec;
  // `at >= inline_until` also covers the disabled states: outside a
  // dispatch horizon (run_events, plain dispatch()) inline_until is 0.
  if (x.eng != this || at >= x.inline_until) return false;
  Shard& sh = *shards_[x.shard];
  if (!sh.queue.empty()) {
    const auto top = sh.queue.peek();
    // The wakeup event's would-be key: this lane's NEXT seq value (not
    // consumed — skipping it preserves relative per-lane order, which is
    // all the (at, key) comparison ever uses). Grant inline only if the
    // wakeup would be dispatched before everything queued.
    const std::uint64_t key =
        (static_cast<std::uint64_t>(x.lane) << kLaneShift) |
        lane_seq_[x.lane];
    if (top.first < at || (top.first == at && top.second < key)) return false;
  }
  // Equivalent to pop + dispatch of the wakeup: clock lands on `at` and
  // the processed count stays placement-invariant (every semantic
  // resumption counts exactly once, granted inline or dispatched).
  sh.now = at;
  ++sh.processed;
  ++sh.prof.inline_grants;
  return true;
}

void Engine::dispatch(Shard& sh, std::uint32_t shard_idx, const Event& ev) {
  sh.now = ev.at;
  ++sh.processed;
  const detail::ExecContext saved = detail::t_exec;
  detail::t_exec = {this, shard_idx, ev.exec_lane};
  ev.fire();
  detail::t_exec = saved;
}

Time Engine::run() {
  if (nshards_ == 1) {
    // Hot loop: the exec context is written once and only the lane field
    // updates per event (dispatch()'s full save/restore costs two extra
    // thread-local writes per event — measurable in the selfbench).
    Shard& sh = *shards_[0];
    ProfClock::time_point w0;
    if (prof_) w0 = ProfClock::now();
    const detail::ExecContext saved = detail::t_exec;
    detail::t_exec = {this, 0, 0, kNoDeadline};
    while (!sh.queue.empty()) {
      Event ev = sh.queue.pop();
      sh.now = ev.at;
      ++sh.processed;
      detail::t_exec.lane = ev.exec_lane;
      ev.fire();
    }
    detail::t_exec = saved;
    if (prof_) {
      // The whole serial run is one "epoch": dispatch == wall.
      const std::uint64_t ns = ns_since(w0);
      sh.prof.dispatch_ns += ns;
      sh.prof.wall_ns += ns;
      ++sh.prof.epochs;
      ++prof_runs_;
    }
    unified_now_ = std::max(unified_now_, sh.now);
    return unified_now_;
  }
  run_parallel(kNoDeadline);
  return unified_now_;
}

bool Engine::run_until(Time deadline) {
  if (nshards_ == 1) {
    Shard& sh = *shards_[0];
    ProfClock::time_point w0;
    if (prof_) w0 = ProfClock::now();
    const detail::ExecContext saved = detail::t_exec;
    // Horizon deadline + 1: events AT the deadline still run (saturating;
    // a deadline of kNoDeadline behaves like run()).
    detail::t_exec = {this, 0, 0,
                      deadline == kNoDeadline ? kNoDeadline : deadline + 1};
    while (!sh.queue.empty() && sh.queue.next_time() <= deadline) {
      Event ev = sh.queue.pop();
      sh.now = ev.at;
      ++sh.processed;
      detail::t_exec.lane = ev.exec_lane;
      ev.fire();
    }
    detail::t_exec = saved;
    if (prof_) {
      const std::uint64_t ns = ns_since(w0);
      sh.prof.dispatch_ns += ns;
      sh.prof.wall_ns += ns;
      ++sh.prof.epochs;
      ++prof_runs_;
    }
    unified_now_ = std::max(unified_now_, sh.now);
    if (sh.queue.empty()) return false;
    unified_now_ = std::max(unified_now_, deadline);
    return true;
  }
  const bool remaining = run_parallel(deadline);
  if (remaining) unified_now_ = std::max(unified_now_, deadline);
  return remaining;
}

std::uint64_t Engine::run_events(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (n < max_events) {
    Shard* best = nullptr;
    std::uint32_t best_idx = 0;
    std::pair<Time, std::uint64_t> best_key{};
    for (std::uint32_t s = 0; s < nshards_; ++s) {
      Shard& sh = *shards_[s];
      if (sh.queue.empty()) continue;
      const auto key = sh.queue.peek();
      if (best == nullptr || key < best_key) {
        best = &sh;
        best_idx = s;
        best_key = key;
      }
    }
    if (best == nullptr) break;
    Event ev = best->queue.pop();
    dispatch(*best, best_idx, ev);
    ++n;
  }
  Time mx = unified_now_;
  for (const auto& sh : shards_) mx = std::max(mx, sh->now);
  unified_now_ = mx;
  return n;
}

// --- demand-driven horizon ---------------------------------------------------
//
// The static CMB bound recomputed at every barrier is worst-case: it
// assumes every peer might send the instant its next event runs. On flat
// fabrics with fine-grained traffic that alone yields sub-10-event rounds
// and barrier park dominates the profile. So the static bound only opens
// a round; the run phase keeps the round going PAST it by reading what the
// peers are actually doing:
//
//   * Every shard continuously publishes (release, quantum-gated) a
//     monotone floor on its next dispatch time through live_clock: at a
//     dispatch, the event's timestamp; stalled or drained, its own
//     conservative bound (every future dispatch — a queued event or an
//     arrival still in flight toward it — is provably >= that bound, by
//     the induction below).
//   * Cross-shard events travel through SPSC channels the destination
//     pulls mid-round. refresh_horizon reads a peer's clock (acquire)
//     BEFORE pulling its channel: pushes made before that publication
//     are then visible in the pull, and any later push carries
//     at >= clock + lookahead(s, d) by the per-pair latency floor
//     (asserted on every push).
//   * The live bound for shard d is then
//         min over peers s of (clock(s) + reach(s, d)),
//     plus d's own next + reach(d, d) (its own events can bounce off an
//     idle peer and return). reach is the min-plus closure, so a chain
//     s -> k -> d relayed by k is covered by s's term: k cannot dispatch
//     the relay before the in-flight event's timestamp (k's own bound,
//     hence k's published clock, never passes a pending arrival), and
//     the closure prices the remaining hops.
//
// Induction (why no pulled event ever lands in d's past): order the
// refreshes r_0 < r_1 < ...; d's position during span i is < end_i. A
// push visible at r_{i+1} but not r_i was made after r_i's clock read of
// its producer, so its timestamp is >= clock_i(s) + lat(s, d) >= end_i —
// strictly ahead of everything d ran in span i. Bounds only widen
// (clocks are monotone), so earlier spans are covered a fortiori, and
// the round's opening span is bounded by the static CMB bound computed
// from the barrier-published exact next-times.
//
// Quiescence: a drained shard publishes its refreshed bound — anchored by
// the ACTIVE peers' clocks — so an idle pair's term chases the sender's
// clock instead of pinning it one lookahead ahead. No rollback, no
// speculation: the bound is always conservative, so output stays
// byte-identical to serial at every shard count (tests/horizon_test.cpp).

void Engine::channel_pull(Shard& dst, EventChannel& ch) {
  const std::uint64_t h = ch.head.load(std::memory_order_relaxed);
  const std::uint64_t t = ch.tail.load(std::memory_order_acquire);
  if (t == h) return;
  for (std::uint64_t i = h; i != t; ++i)
    dst.queue.push(ch.buf[i & (EventChannel::kCap - 1)]);
  ch.head.store(t, std::memory_order_release);
  dst.prof.merged_events += t - h;
}

Time Engine::refresh_horizon(std::uint32_t shard_idx, Time cap) {
  Shard& sh = *shards_[shard_idx];
  const std::size_t n = nshards_;
  Time end = kNoDeadline;
  for (std::uint32_t s = 0; s < n; ++s) {
    if (s == shard_idx) continue;
    Shard& src = *shards_[s];
    // Clock FIRST (acquire), channel second — the ordering the soundness
    // argument above rests on.
    const Time clk = src.live_clock.load(std::memory_order_acquire);
    channel_pull(sh, src.chan[shard_idx]);
    const Duration reach =
        shard_reach_[static_cast<std::size_t>(s) * n + shard_idx];
    const Time bound = clk + reach < clk ? kNoDeadline : clk + reach;
    end = std::min(end, bound);
  }
  // Own-diagonal term, computed AFTER the pulls so it sees fresh
  // deliveries: the cheapest cycle our own next event could take through
  // a peer and back.
  const Time own = sh.queue.next_time_or(kNoDeadline);
  if (own != kNoDeadline) {
    const Duration rt =
        shard_reach_[static_cast<std::size_t>(shard_idx) * n + shard_idx];
    const Time bound = own + rt < own ? kNoDeadline : own + rt;
    end = std::min(end, bound);
  }
  return std::min(end, cap);
}

void Engine::run_shard_demand(std::uint32_t shard_idx, Time end, Time cap) {
  Shard& sh = *shards_[shard_idx];
  const detail::ExecContext saved = detail::t_exec;
  detail::t_exec = {this, shard_idx, 0, end};
  const Duration quantum = pub_quantum_;
  // Opening clock: the earliest this shard can still dispatch — its own
  // next event, or (queue empty) its static bound, below which nothing
  // can arrive. Monotone over the reset-time sh.now publication.
  sh.live_clock.store(std::min(sh.queue.next_time_or(kNoDeadline), end),
                      std::memory_order_release);
  // Budget on CONSECUTIVE non-dispatching iterations (stalled polls or
  // relay-mode widenings with an empty queue). Dispatch progress resets
  // it; exhaustion re-splits the round at the barrier, which also bounds
  // the drain tail — with every queue empty the mutually-chasing bounds
  // would otherwise escalate forever, and only the barrier's exact
  // publication detects global termination. stall_polls additionally
  // counts polls where the bound did not even WIDEN: when the peers'
  // clocks are flat there is nothing to fuse, so give up long before the
  // full budget instead of spinning a core-starved host's quantum away.
  std::uint64_t idle_iters = 0;
  std::uint64_t stall_polls = 0;
  for (;;) {
    ProfClock::time_point d0;
    if (prof_) d0 = ProfClock::now();
    const std::uint64_t before = sh.processed;
    while (!sh.queue.empty() && sh.queue.next_time() < end) {
      Event ev = sh.queue.pop();
      if (ev.at >= sh.pub_mark && ev.at <= sh.pub_freeze) {
        // Live clock publication (monotone: dispatch timestamps only
        // grow within a run phase, and the freeze caps it once a spill
        // made later sends invisible).
        sh.live_clock.store(ev.at, std::memory_order_release);
        sh.pub_mark = ev.at + quantum;
      }
      sh.now = ev.at;
      ++sh.processed;
      detail::t_exec.lane = ev.exec_lane;
      ev.fire();
    }
    if (prof_) sh.prof.dispatch_ns += ns_since(d0);
    if (sh.processed != before) {
      idle_iters = 0;
      stall_polls = 0;
    } else if (++idle_iters > kPollBudget) {
      if (!sh.queue.empty()) ++sh.prof.resplit_epochs;
      break;  // no peer progress within the budget: re-split
    }
    if (end >= cap) break;  // deadline-capped (or fully unbounded) round
    const Time live = refresh_horizon(shard_idx, cap);
    if (live > end) {
      // The bound widened: fuse what would have been another barrier
      // round into this one.
      ++sh.prof.fused_epochs;
      sh.prof.horizon_widening_ps += live - end;
      end = live;
      stall_polls = 0;
      detail::t_exec.inline_until = end;
      continue;
    }
    // live == end (the bound is monotone). Deliveries may still have
    // landed inside it — run them; otherwise we are stalled.
    if (!sh.queue.empty() && sh.queue.next_time() < end) continue;
    if (++stall_polls > 64) {
      if (!sh.queue.empty()) ++sh.prof.resplit_epochs;
      break;  // peers' clocks are flat: nothing left to fuse this round
    }
    // Stalled: publish our bound as the clock floor so peers can extend
    // past us, then back off before re-polling the peer clocks — a short
    // relax burst first (peers on their own cores respond within it),
    // then yield so a core-starved host can actually schedule the peer
    // whose clock we are waiting on. Sound: every future dispatch here —
    // queued (none below end) or a still-invisible arrival (lands beyond
    // the bound) — is >= the floor.
    sh.live_clock.store(std::min(end, sh.pub_freeze),
                        std::memory_order_release);
    ProfClock::time_point p0;
    if (prof_) p0 = ProfClock::now();
    if (stall_polls < 8) {
      for (std::uint32_t b = 0; b < 128; ++b) cpu_relax();
    } else {
      std::this_thread::yield();
    }
    if (prof_) sh.prof.barrier_park_ns += ns_since(p0);
  }
  detail::t_exec = saved;
}

// --- SPMD sense-reversing rounds ----------------------------------------------
//
// Every thread (the main thread acts as shard 0's worker) runs the same
// loop: pull own inboxes, publish own next event time, barrier, compute
// the identical per-shard opening bounds from the published times, run
// own round (demand-driven past that bound), barrier. The merge and the
// bound computation run on all threads concurrently, and the
// per-destination CMB bound
//   end(d) = min over all s of (next(s) + shard_reach(s, d))
// (shard_reach = min >=1-hop chain cost, diagonal = min round trip) is
// never narrower than a global epoch (t + min lookahead) and much wider
// on non-uniform topologies.

void Engine::barrier_wait(std::uint64_t& phase, ShardProfile* prof) {
  const std::uint64_t p = phase;
  phase = p + 1;
  if (barrier_.arrived.fetch_add(1, std::memory_order_acq_rel) + 1 ==
      nshards_) {
    // Last arriver: reset the count for the next crossing, then flip the
    // sense. The release on `phase`, paired with the spinners' acquire,
    // publishes every pre-barrier write (the fetch_add chain already
    // ordered the arrivers among themselves).
    barrier_.arrived.store(0, std::memory_order_relaxed);
    barrier_.phase.store(p + 1, std::memory_order_release);
    return;
  }
  if (prof != nullptr) {
    const ProfClock::time_point p0 = ProfClock::now();
    spin_until(
        [&] { return barrier_.phase.load(std::memory_order_acquire) != p; });
    prof->barrier_park_ns += ns_since(p0);
  } else {
    spin_until(
        [&] { return barrier_.phase.load(std::memory_order_acquire) != p; });
  }
}

void Engine::drain_inboxes(std::uint32_t shard_idx) {
  Shard& sh = *shards_[shard_idx];
  for (std::uint32_t s = 0; s < nshards_; ++s) {
    if (s == shard_idx) continue;
    Shard& src = *shards_[s];
    // Channel leftovers first (anything not pulled mid-round), then the
    // spill row. Producers are past barrier B, so both are stable.
    if (src.chan) channel_pull(sh, src.chan[shard_idx]);
    auto& box = src.outbox[shard_idx];
    if (box.empty()) continue;
    sh.prof.merged_events += box.size();
    sh.queue.push_all(box);
  }
}

void Engine::epoch_loop(std::uint32_t shard_idx, Time deadline,
                        std::uint64_t base_phase) {
  Shard& sh = *shards_[shard_idx];
  const bool prof = prof_;
  ShardProfile* const bp = prof ? &sh.prof : nullptr;
  ProfClock::time_point wall0;
  if (prof) wall0 = ProfClock::now();
  std::uint64_t phase = base_phase;
  for (;;) {
    // 1. Pull this shard's inboxes. Every producer is past its epoch
    //    (previous crossing of barrier B), so the rows are stable.
    if (prof) {
      const ProfClock::time_point m0 = ProfClock::now();
      drain_inboxes(shard_idx);
      sh.prof.merge_ns += ns_since(m0);
    } else {
      drain_inboxes(shard_idx);
    }
    // 1b. Reset the per-round publication state (owner-only fields; the
    //     coming barrier orders these against peers' reads).
    sh.pub_freeze = kNoDeadline;
    sh.pub_mark = 0;
    // 2. Publish the post-merge next event time (relaxed: the barrier's
    //    acq/rel pair publishes it). next_time stays UNTOUCHED until the
    //    next round's step 2, so every shard's step-3 bounds come from
    //    one consistent snapshot. The live clock starts at sh.now even
    //    when drained — the shard can pull and relay mid-round, so it
    //    may never claim quiescence.
    sh.next_time.store(sh.queue.next_time_or(kNoDeadline),
                       std::memory_order_relaxed);
    sh.live_clock.store(sh.now, std::memory_order_relaxed);
    barrier_wait(phase, bp);  // barrier A: all next-times published
    // 3. Redundantly compute the horizons — every thread reads the same
    //    published times and lands on identical values, so nothing needs
    //    to be written back to shared state.
    Time t = kNoDeadline;
    for (std::uint32_t s = 0; s < nshards_; ++s)
      t = std::min(t,
                   shards_[s]->next_time.load(std::memory_order_relaxed));
    if (t == kNoDeadline || (deadline != kNoDeadline && t > deadline))
      break;  // unanimous: all threads break on the same round
    // The horizon uses shard_reach_, not the direct edge, and the source
    // loop INCLUDES d itself: a chain of sends starting from any queued
    // event — even one of d's own, bouncing off a momentarily-empty
    // neighbour — can land back at d, and costs at least
    // next(source) + reach(source, d). With the direct-edge formula a
    // shard whose peers all drained would run unbounded, send, and then
    // receive the replies in its own virtual past.
    for (std::uint32_t d = 0; d < nshards_; ++d) {
      Time end = kNoDeadline;
      for (std::uint32_t s = 0; s < nshards_; ++s) {
        const Time snt = shards_[s]->next_time.load(std::memory_order_relaxed);
        if (snt == kNoDeadline) continue;
        const Duration lat =
            shard_reach_[static_cast<std::size_t>(s) * nshards_ + d];
        const Time bound = snt + lat < snt ? kNoDeadline : snt + lat;
        end = std::min(end, bound);  // (saturating add above)
      }
      if (deadline != kNoDeadline) end = std::min(end, deadline + 1);
      sh.epoch_ends[d] = end;
    }
    const Time own_end = sh.epoch_ends[shard_idx];
    if (own_end != kNoDeadline) sh.prof.lookahead_ps += own_end - t;
    // 4. Run this shard's round; cross-shard pushes land in own channels
    //    (or outbox rows on spill), checked against epoch_ends (identical
    //    on every thread). The shard keeps extending its bound past the
    //    static horizon from the peers' live clocks.
    run_shard_demand(shard_idx, own_end,
                     deadline == kNoDeadline ? kNoDeadline : deadline + 1);
    if (prof) ++sh.prof.epochs;  // one barrier round == one epoch
    barrier_wait(phase, bp);  // barrier B: all channels + spill rows stable
  }
  if (prof) sh.prof.wall_ns += ns_since(wall0);
}

bool Engine::run_parallel(Time deadline) {
  RDMASEM_CHECK_MSG(lookahead_ > 0,
                    "parallel run requires set_lookahead() > 0");
  parallel_running_ = true;
  // Publication quantum: half the global lookahead — fine enough that a
  // peer's term tracks within half an epoch of its true clock (clock
  // publications land at least twice per lookahead window), coarse
  // enough that publication stays off the dispatch fast path. For a
  // cluster the floor is the one-switch fabric hop on flat and leaf/spine
  // fabrics alike.
  pub_quantum_ = std::max<Duration>(lookahead_ / 2, 1);
  for (auto& sh : shards_) {
    sh->epoch_ends.assign(nshards_, 0);
    sh->next_time.store(0, std::memory_order_relaxed);
    sh->live_clock.store(0, std::memory_order_relaxed);
  }
  // The base phase is captured before any thread starts so every
  // participant enters the first barrier with the same sense.
  const std::uint64_t base_phase =
      barrier_.phase.load(std::memory_order_relaxed);
  std::vector<std::thread> workers;
  workers.reserve(nshards_ - 1);
  for (std::uint32_t s = 1; s < nshards_; ++s)
    workers.emplace_back(&Engine::epoch_loop, this, s, deadline, base_phase);
  epoch_loop(0, deadline, base_phase);
  for (auto& w : workers) w.join();
  parallel_running_ = false;
  if (prof_) ++prof_runs_;

  Time mx = unified_now_;
  for (const auto& sh : shards_) mx = std::max(mx, sh->now);
  unified_now_ = mx;
  for (const auto& sh : shards_)
    if (!sh->queue.empty()) return true;
  return false;
}

EngineProfile Engine::drain_profile() {
  EngineProfile p;
  p.enabled = prof_;
  p.shards = nshards_;
  p.runs = prof_runs_;
  p.shard.reserve(nshards_);
  for (auto& sh : shards_) {
    ShardProfile row = sh->prof;
    row.events = sh->processed - sh->prof_events_base;
    row.max_queue_depth = sh->queue.max_size();
    p.shard.push_back(row);
    // Start a new profiling window.
    sh->prof = ShardProfile{};
    sh->prof_events_base = sh->processed;
    sh->queue.reset_max_size();
  }
  prof_runs_ = 0;
  return p;
}

}  // namespace rdmasem::sim
