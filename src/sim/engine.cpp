#include "sim/engine.hpp"

#include <algorithm>
#include <chrono>

#include "util/env.hpp"

namespace rdmasem::sim {

namespace {

// Seed for lane l's private RNG stream: a splitmix64 step keyed on the
// lane, so streams are decorrelated but a pure function of (seed, lane).
std::uint64_t mix_seed(std::uint64_t s, std::uint32_t lane) {
  std::uint64_t z = s + 0x9e3779b97f4a7c15ULL * (lane + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t kDefaultSeed = 0x9e3779b97f4a7c15ULL;

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
  lane_seq_.assign(1, 0);
  lane_rng_.emplace_back(base_seed_);
  lane_group_.assign(1, 0);
  group_lat_.assign(1, 0);
  prof_ = util::env_bool("RDMASEM_PROF", false);
}

Engine::~Engine() {
  // Unblocked destruction order: drop the event queue first (pending
  // resumptions reference frames, pending callables own their boxes),
  // then destroy surviving frames.
  queue_.clear();
  // Snapshot before destroying: a frame's locals may unregister other
  // frames from their destructors.
  std::vector<void*> live;
  live.reserve(detached_.size());
  detached_.for_each([&](void* p) { live.push_back(p); });
  detached_.clear();
  for (void* addr : live) std::coroutine_handle<>::from_address(addr).destroy();
}

void Engine::configure_lanes(std::uint32_t lanes, LaneTopology topo) {
  RDMASEM_CHECK_MSG(lanes >= 1 && lanes <= kMaxLanes,
                    "configure_lanes: lane count out of range");
  RDMASEM_CHECK_MSG(queue_.empty(),
                    "configure_lanes with events already scheduled");
  lanes_ = lanes;
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
    group_lat_.assign(1, uniform_lat_);
    return;
  }
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
}

void Engine::set_lookahead(Duration d) {
  uniform_lat_ = d;
  ngroups_ = 1;
  lane_group_.assign(lanes_, 0);
  group_lat_.assign(1, d);
}

void Engine::seed(std::uint64_t s) {
  base_seed_ = s;
  for (std::uint32_t l = 0; l < lane_rng_.size(); ++l)
    lane_rng_[l].reseed(l == 0 ? s : mix_seed(s, l));
}

void Engine::spawn_on(std::uint32_t lane, Task&& task) {
  RDMASEM_CHECK_MSG(lane < lanes_, "spawn_on: lane out of range");
  auto h = task.release_detached(&detached_);
  resume_on(lane, now_, h);
}

bool Engine::try_inline_advance(Time at) {
  const detail::ExecContext& x = detail::t_exec;
  // `at >= inline_until` also covers the disabled states: outside a
  // dispatch horizon (run_events, plain dispatch()) inline_until is 0.
  if (x.eng != this || at >= x.inline_until) return false;
  if (!queue_.empty()) {
    const auto top = queue_.peek();
    // The wakeup event's would-be key: this lane's NEXT seq value (not
    // consumed — skipping it preserves relative per-lane order, which is
    // all the (at, key) comparison ever uses). Grant inline only if the
    // wakeup would be dispatched before everything queued.
    const std::uint64_t key =
        (static_cast<std::uint64_t>(x.lane) << kLaneShift) |
        lane_seq_[x.lane];
    if (top.first < at || (top.first == at && top.second < key)) return false;
  }
  // Equivalent to pop + dispatch of the wakeup: the clock lands on `at`
  // and every semantic resumption counts exactly once, granted inline or
  // dispatched.
  now_ = at;
  ++processed_;
  ++prof_row_.inline_grants;
  return true;
}

void Engine::dispatch(const Event& ev) {
  now_ = ev.at;
  ++processed_;
  const detail::ExecContext saved = detail::t_exec;
  detail::t_exec = {this, ev.exec_lane};
  ev.fire();
  detail::t_exec = saved;
}

// The dispatch loop of run() and run_until(). The exec context is
// written once and only the lane field updates per event (dispatch()'s
// full save/restore costs two extra thread-local writes per event —
// measurable in the selfbench).
template <bool kBounded>
void Engine::run_loop(Time deadline) {
  ProfClock::time_point w0;
  if (prof_) w0 = ProfClock::now();
  const detail::ExecContext saved = detail::t_exec;
  // Horizon deadline + 1: events AT the deadline still run (saturating;
  // a deadline of kNoDeadline behaves like run()).
  detail::t_exec = {this, 0,
                    deadline == kNoDeadline ? kNoDeadline : deadline + 1};
  while (!queue_.empty() && (!kBounded || queue_.next_time() <= deadline)) {
    Event ev = queue_.pop();
    now_ = ev.at;
    ++processed_;
    detail::t_exec.lane = ev.exec_lane;
    ev.fire();
  }
  detail::t_exec = saved;
  if (prof_) {
    // A run is one dispatch loop: dispatch == wall.
    const std::uint64_t ns = ns_since(w0);
    prof_row_.dispatch_ns += ns;
    prof_row_.wall_ns += ns;
    ++prof_runs_;
  }
}

Time Engine::run() {
  run_loop<false>(kNoDeadline);
  return now_;
}

bool Engine::run_until(Time deadline) {
  run_loop<true>(deadline);
  if (queue_.empty()) return false;
  now_ = std::max(now_, deadline);
  return true;
}

std::uint64_t Engine::run_events(std::uint64_t max_events) {
  std::uint64_t n = 0;
  for (; n < max_events && !queue_.empty(); ++n) dispatch(queue_.pop());
  return n;
}

EngineProfile Engine::drain_profile() {
  EngineProfile p;
  p.enabled = prof_;
  p.runs = prof_runs_;
  ShardProfile row = prof_row_;
  row.events = processed_ - prof_events_base_;
  row.max_queue_depth = queue_.max_size();
  p.shard.push_back(row);
  // Start a new profiling window.
  prof_row_ = ShardProfile{};
  prof_events_base_ = processed_;
  queue_.reset_max_size();
  prof_runs_ = 0;
  return p;
}

}  // namespace rdmasem::sim
