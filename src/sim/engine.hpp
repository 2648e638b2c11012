#pragma once

#include <coroutine>
#include <cstdint>
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

// Which engine and lane the current thread is dispatching for. Set by
// Engine::dispatch around every event; empty outside a dispatch.
// `inline_until` is the exclusive horizon for the inline-wakeup fast path
// (see Engine::try_inline_advance): a suspension whose wakeup lands
// strictly before it MAY run inline, without an event. run() sets it
// unbounded and run_until() to deadline + 1. It stays 0 — fast path off —
// in run_events(), which must count every event it dispatches, and
// outside any dispatch.
struct ExecContext {
  Engine* eng = nullptr;
  std::uint32_t lane = 0;
  Time inline_until = 0;
};
inline thread_local ExecContext t_exec{};

}  // namespace detail

// --- engine profiling (Plane 2: host time) ----------------------------------
//
// Host-clock statistics of one profiling window (between drain_profile()
// calls). Gated by RDMASEM_PROF / Engine::set_profiling and measured with
// std::chrono::steady_clock, strictly OUTSIDE the virtual timeline:
// profiling reads wall clocks and bumps plain counters, never schedules
// events, never reads the RNG and never moves the clock — a profiled run
// is byte-identical to an unprofiled one (tests/obs_profiler_test.cpp
// asserts this).
//
// The inline_grants / max_queue_depth counters are cheap enough to
// maintain unconditionally; only the steady_clock reads are gated.
struct ShardProfile {
  std::uint64_t events = 0;           // events dispatched (incl. inline grants)
  std::uint64_t inline_grants = 0;    // suspensions elided by the fast path
  std::uint64_t dispatch_ns = 0;      // inside the event-dispatch loop
  std::uint64_t wall_ns = 0;          // whole-run wall time
  std::uint64_t max_queue_depth = 0;  // event-queue high-water mark
};

// One profiling window. `shard` holds exactly one row, the engine's; it
// stays a list of ShardProfile rows because the perfbench reads it so.
struct EngineProfile {
  bool enabled = false;
  std::uint64_t runs = 0;  // profiled run()/run_until() invocations
  std::vector<ShardProfile> shard;
};

// Lane topology for the per-(src,dst) lookahead matrix. Each lane belongs
// to an affinity GROUP (for a cluster: the leaf switch of its machine;
// the driver lane rides with machine 0), and group_latency[g * groups + h]
// is the minimum virtual latency any cross-lane signal from a lane of
// group g to a lane of group h can carry. The matrix may be asymmetric.
// An empty lane_group/group_latency means "uniform": one group whose
// latency is set_lookahead(). settle() and the home-lane sync primitives
// route with these latencies, so they shape simulated time.
struct LaneTopology {
  std::vector<std::uint32_t> lane_group;  // size == lanes; empty -> all 0
  std::vector<Duration> group_latency;    // groups x groups, row-major
  std::uint32_t groups = 1;
};

// Discrete-event simulation engine: a virtual clock plus a calendar queue
// of (time, key, callback) events (see sim/event_queue.hpp).
//
// Work is organized in LANES: lane 0 is the driver/main context, lane m+1
// is machine m of a cluster. Every event carries the lane it executes on;
// its dispatch key is (origin_lane << 48) | per_lane_seq, so ties at one
// timestamp order by (origin lane, per-lane schedule order), and each lane
// draws from its own RNG stream. Lanes decide which machine's state a
// coroutine may touch (see hop() and settle()); the engine itself runs
// every lane on the calling thread.
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

  // The virtual clock: inside a dispatch, the running event's timestamp.
  Time now() const { return now_; }

  // --- lane topology -------------------------------------------------------

  // Sets up `lanes` logical lanes (driver + machines) and their topology.
  // Must be called before any event is scheduled.
  void configure_lanes(std::uint32_t lanes, LaneTopology topo = {});
  std::uint32_t lanes() const { return lanes_; }
  // Uniform-topology setter (bare-engine tests): one affinity group whose
  // cross-lane latency is `d`. Clusters install a full LaneTopology via
  // configure_lanes instead.
  void set_lookahead(Duration d);
  // Minimum latency a signal from `from_lane` to `to_lane` must carry —
  // what home-lane sync primitives and settle() route with. A pure
  // function of the two lanes' groups.
  Duration lookahead(std::uint32_t from_lane, std::uint32_t to_lane) const {
    return group_lat_[static_cast<std::size_t>(lane_group_[from_lane]) *
                          ngroups_ +
                      lane_group_[to_lane]];
  }

  // --- scheduling ----------------------------------------------------------

  // Schedules `fn` to run at absolute time `at` (clamped to now()) on the
  // calling lane.
  template <typename F>
  void schedule_at(Time at, F&& fn) {
    const std::uint32_t lane = caller_lane();
    schedule_from(lane, lane, at, std::forward<F>(fn));
  }
  // Schedules `fn` to run `delay` after now() on the calling lane.
  template <typename F>
  void schedule_in(Duration delay, F&& fn) {
    const std::uint32_t lane = caller_lane();
    schedule_from(lane, lane, now_ + delay, std::forward<F>(fn));
  }
  // Schedules `fn` on an explicit lane. The dispatch key still carries
  // the CALLING lane (origin).
  template <typename F>
  void schedule_on(std::uint32_t lane, Time at, F&& fn) {
    schedule_from(caller_lane(), lane, at, std::forward<F>(fn));
  }

  // Schedules a coroutine resumption (cheaper + clearer than a lambda).
  void resume_at(Time at, std::coroutine_handle<> h) {
    const std::uint32_t lane = caller_lane();
    resume_from(lane, lane, at, h);
  }
  void resume_in(Duration delay, std::coroutine_handle<> h) {
    const std::uint32_t lane = caller_lane();
    resume_from(lane, lane, now_ + delay, h);
  }
  void resume_on(std::uint32_t lane, Time at, std::coroutine_handle<> h) {
    resume_from(caller_lane(), lane, at, h);
  }

  // Transfers ownership of a Task to the engine and starts it at now()
  // on the calling lane (spawn) or an explicit lane (spawn_on). Root
  // tasks that drive a machine belong on that machine's lane
  // (machine_id + 1): the lane keys their events and picks their RNG
  // stream. The frame is destroyed when the task finishes.
  void spawn(Task&& task) { spawn_on(caller_lane(), std::move(task)); }
  void spawn_on(std::uint32_t lane, Task&& task);

  // --- running -------------------------------------------------------------

  // Runs until the event queue is empty. Returns the final clock value.
  Time run();
  // Runs events with timestamp <= deadline; clock ends at
  // max(now, min(deadline, last event time)). Returns true if events remain.
  bool run_until(Time deadline);
  // Drains at most `max_events` events in (at, key) order, with the
  // inline fast path off; returns the number processed.
  std::uint64_t run_events(std::uint64_t max_events);

  // --- inline-wakeup fast path ---------------------------------------------

  // Attempts to grant a suspension point inline: returns true — and
  // advances the clock to `at`, counting one processed event — iff
  // resuming at `at` right now is indistinguishable from scheduling,
  // popping and dispatching the wakeup event. That holds exactly when
  // (a) the caller is inside a dispatch of this engine with `at` inside
  // the loop's horizon, and (b) the queue holds no event ordered before
  // the wakeup would be, under the event's would-be key ((lane << 48) |
  // next per-lane seq — NOT consumed on the fast path; skipping seq values
  // is order-preserving because comparisons only ever use relative
  // per-lane order). Awaiters (sim::delay, Resource::use) call this from
  // await_ready, so an uncontended pipeline stage costs no event, no
  // queue traffic and no suspension. Determinism: the dispatch sequence
  // (timestamps, lane order, processed-event count) is identical with the
  // fast path on or off — asserted by tests/determinism_test.cpp.
  bool try_inline_advance(Time at);
  bool try_inline_delay(Duration d) {
    if (detail::t_exec.eng != this) return false;
    return try_inline_advance(now_ + d);
  }
  // Inline grant for a cross-lane hop: the same (at, key) front-of-queue
  // check as try_inline_advance, with the would-be key carrying the
  // ORIGIN lane, exactly as resume_on would build it. On grant the exec
  // context migrates to `lane`, just as dispatching the event would have
  // set it from Event::exec_lane, so the whole verb pipeline (request leg,
  // response leg, completion) can ride the fast path.
  bool try_inline_hop(std::uint32_t lane, Duration d) {
    if (detail::t_exec.eng != this || lane >= lanes_) return false;
    if (!try_inline_advance(now_ + d)) return false;
    detail::t_exec.lane = lane;
    return true;
  }

  // --- engine profiling (Plane 2) ------------------------------------------

  // Host-time profiling switch; the constructor seeds it from RDMASEM_PROF.
  // Flip it only while the engine is not running.
  void set_profiling(bool on) { prof_ = on; }
  bool profiling() const { return prof_; }
  // Moves the accumulated host-clock stats out and starts a new profiling
  // window (event counts restart from the current processed total, the
  // queue high-water mark re-anchors at the live depth). The returned
  // snapshot reflects everything run since the last drain.
  EngineProfile drain_profile();

  bool idle() const { return queue_.empty(); }
  std::uint64_t events_processed() const { return processed_; }

  // The calling lane's deterministic random stream. Lane 0 keeps the
  // exact seed-engine stream.
  Rng& rng() { return lane_rng_[caller_lane()]; }
  void seed(std::uint64_t s);

 private:
  // The calling context's origin lane: the dispatching event's lane, or
  // the driver lane 0 outside a dispatch.
  std::uint32_t caller_lane() const {
    const detail::ExecContext& x = detail::t_exec;
    return x.eng == this ? x.lane : 0;
  }
  std::uint64_t key_for(std::uint32_t origin) {
    return (static_cast<std::uint64_t>(origin) << kLaneShift) |
           lane_seq_[origin]++;
  }

  // The callable moves into a pooled CallBox; the event carries only its
  // tagged pointer (see sim::Event).
  template <typename F>
  void schedule_from(std::uint32_t origin, std::uint32_t lane, Time at,
                     F&& fn) {
    push_event(lane, Event{at < now_ ? now_ : at, key_for(origin),
                           Event::call_target(
                               CallBox::make(std::forward<F>(fn))),
                           lane});
  }
  void resume_from(std::uint32_t origin, std::uint32_t lane, Time at,
                   std::coroutine_handle<> h) {
    push_event(lane, Event{at < now_ ? now_ : at, key_for(origin),
                           Event::resume_target(h), lane});
  }

  void push_event(std::uint32_t target_lane, const Event& ev) {
    RDMASEM_CHECK_MSG(target_lane < lanes_, "event lane out of range");
    queue_.push(ev);
  }

  void dispatch(const Event& ev);
  // run() and run_until(): dispatches while events remain (and, when
  // bounded, while the next one is at or before `deadline`).
  template <bool kBounded>
  void run_loop(Time deadline);

  static constexpr Time kNoDeadline = ~Time{0};

  EventQueue queue_;
  Time now_ = 0;
  std::uint64_t processed_ = 0;
  DetachedRegistry detached_;
  std::vector<std::uint64_t> lane_seq_;
  std::vector<Rng> lane_rng_;
  std::uint32_t lanes_ = 1;
  std::uint64_t base_seed_;

  // Lane topology: lane -> affinity group and the groups x groups latency
  // matrix. uniform_lat_ is set_lookahead()'s latency, installed whenever
  // configure_lanes gets no topology.
  std::vector<std::uint32_t> lane_group_;
  std::vector<Duration> group_lat_;
  std::uint32_t ngroups_ = 1;
  Duration uniform_lat_ = 0;

  // Plane-2 profiling (RDMASEM_PROF). Written only while the engine is
  // not running.
  bool prof_ = false;
  std::uint64_t prof_runs_ = 0;
  ShardProfile prof_row_;
  // processed-count anchor of the current profiling window.
  std::uint64_t prof_events_base_ = 0;
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
// later ON `lane` — the only way execution migrates between lanes. May be
// granted inline like a delay (see Engine::try_inline_hop).
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
// a hop of one (caller -> lane) lookahead, the latency the lane topology
// prices that specific pair at.
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
