#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>

#include "sim/engine.hpp"
#include "util/assert.hpp"

namespace rdmasem::sim {

// Lane discipline: these primitives are not locks — they are
// virtual-clock rendezvous points. Each has a HOME lane (the lane it was
// created on) that owns all of its bookkeeping. Signals and wait
// registrations arriving from another lane are routed to the home lane as
// an engine event one (origin -> home) lookahead later — the same
// per-pair minimum latency any signal between those machines pays on the
// fabric (Engine::lookahead(from, to)) — so a signal from another machine
// costs simulated time, and the order in which racing signals land is a
// pure function of virtual time and origin-lane keys. Same-lane use (the
// overwhelmingly common case) takes none of these detours. Waiters are
// resumed on the lane they suspended on.

// OneShotEvent — level-triggered: once set(), all current and future
// waiters proceed immediately. Used for "experiment warm-up done" barriers.
class OneShotEvent {
 public:
  explicit OneShotEvent(Engine& engine)
      : engine_(engine), home_(current_lane()) {}

  void set() {
    if (current_lane() != home_) {
      engine_.schedule_on(home_,
                          engine_.now() +
                              engine_.lookahead(current_lane(), home_),
                          [this] { set_local(); });
      return;
    }
    set_local();
  }
  // Home-lane view; racing cross-lane set()s are still in flight.
  bool is_set() const { return set_; }

  struct Awaiter {
    OneShotEvent& ev;
    bool await_ready() const noexcept {
      return current_lane() == ev.home_ && ev.set_;
    }
    void await_suspend(std::coroutine_handle<> h) { ev.suspend(h); }
    void await_resume() const noexcept {}
  };
  Awaiter wait() { return Awaiter{*this}; }

 private:
  void set_local() {
    if (set_) return;
    set_ = true;
    for (const auto& w : waiters_) wake(w);
    waiters_.clear();
  }
  void wake(const LaneWaiter& w) {
    const Duration d = w.lane == home_ ? 0 : engine_.lookahead(home_, w.lane);
    engine_.resume_on(w.lane, engine_.now() + d, w.handle);
  }
  void suspend(std::coroutine_handle<> h) {
    const std::uint32_t lane = current_lane();
    if (lane == home_) {
      waiters_.push_back({h, lane});
      return;
    }
    engine_.schedule_on(home_,
                        engine_.now() + engine_.lookahead(lane, home_),
                        [this, h, lane] {
                          if (set_)
                            wake({h, lane});
                          else
                            waiters_.push_back({h, lane});
                        });
  }

  Engine& engine_;
  const std::uint32_t home_;
  bool set_ = false;
  std::deque<LaneWaiter> waiters_;
};

// CountdownLatch — wait() suspends until count_down() has been called
// `count` times. The standard join point for "spawn N executors, wait for
// all of them". count_down() is legal from any lane: off-home calls are
// routed to the home lane one lookahead later.
class CountdownLatch {
 public:
  CountdownLatch(Engine& engine, std::uint64_t count)
      : engine_(engine), home_(current_lane()), remaining_(count) {}

  void count_down() {
    if (current_lane() != home_) {
      engine_.schedule_on(home_,
                          engine_.now() +
                              engine_.lookahead(current_lane(), home_),
                          [this] { dec_local(); });
      return;
    }
    dec_local();
  }
  // Exact once the engine is idle (run() drains routed decrements);
  // mid-run it can lag by signals still in flight.
  std::uint64_t remaining() const { return remaining_; }

  struct Awaiter {
    CountdownLatch& latch;
    bool await_ready() const noexcept {
      return current_lane() == latch.home_ && latch.remaining() == 0;
    }
    void await_suspend(std::coroutine_handle<> h) { latch.suspend(h); }
    void await_resume() const noexcept {}
  };
  Awaiter wait() { return Awaiter{*this}; }

 private:
  void dec_local() {
    RDMASEM_CHECK_MSG(remaining_ > 0, "latch underflow");
    if (--remaining_ == 0) {
      for (const auto& w : waiters_) wake(w);
      waiters_.clear();
    }
  }
  void wake(const LaneWaiter& w) {
    const Duration d = w.lane == home_ ? 0 : engine_.lookahead(home_, w.lane);
    engine_.resume_on(w.lane, engine_.now() + d, w.handle);
  }
  void suspend(std::coroutine_handle<> h) {
    const std::uint32_t lane = current_lane();
    if (lane == home_) {
      waiters_.push_back({h, lane});
      return;
    }
    engine_.schedule_on(home_,
                        engine_.now() + engine_.lookahead(lane, home_),
                        [this, h, lane] {
                          if (remaining_ == 0)
                            wake({h, lane});
                          else
                            waiters_.push_back({h, lane});
                        });
  }

  Engine& engine_;
  const std::uint32_t home_;
  std::uint64_t remaining_;  // mutated on the home lane only
  std::deque<LaneWaiter> waiters_;
};

// Semaphore — counting semaphore with FIFO waiters; models bounded
// windows (e.g. outstanding-WR credit limits on a QP). Strictly
// single-lane: acquirers and releasers are the same client pipeline, so
// unlike the latch it gets no cross-lane routing. The lane that first
// touches it becomes its home (construction often happens on the driver,
// use on a machine lane).
class Semaphore {
 public:
  Semaphore(Engine& engine, std::uint64_t initial)
      : engine_(engine), count_(initial) {}

  struct Awaiter {
    Semaphore& sem;
    bool await_ready() noexcept {
      sem.bind_lane();
      if (sem.waiters_.empty() && sem.count_ > 0) {
        --sem.count_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      sem.waiters_.push_back({h, current_lane()});
    }
    void await_resume() const noexcept {}
  };
  Awaiter acquire() { return Awaiter{*this}; }

  void release(std::uint64_t n = 1) {
    bind_lane();
    count_ += n;
    while (!waiters_.empty() && count_ > 0) {
      --count_;
      const LaneWaiter w = waiters_.front();
      waiters_.pop_front();
      engine_.resume_on(w.lane, engine_.now(), w.handle);
    }
  }

  std::uint64_t available() const { return count_; }
  std::size_t waiting() const { return waiters_.size(); }

 private:
  void bind_lane() {
    if (home_ == kUnbound) {
      home_ = current_lane();
      return;
    }
    RDMASEM_CHECK_MSG(current_lane() == home_,
                      "Semaphore used from two lanes (single-lane primitive)");
  }

  static constexpr std::uint32_t kUnbound = ~0u;
  Engine& engine_;
  std::uint64_t count_;
  std::uint32_t home_ = kUnbound;
  std::deque<LaneWaiter> waiters_;
};

}  // namespace rdmasem::sim
