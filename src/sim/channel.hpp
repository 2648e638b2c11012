#pragma once

#include <coroutine>
#include <optional>
#include <utility>

#include "sim/engine.hpp"
#include "util/assert.hpp"
#include "util/ring.hpp"

namespace rdmasem::sim {

// Channel<T> — an unbounded MPSC/MPMC mailbox between simulated actors.
// push() never blocks; pop() suspends until an item is available. Waiters
// are resumed in FIFO order through the engine queue (never inline), so a
// push never re-enters the consumer's stack.
//
// Used for proxy-socket request/response queues (paper §III-D) and the RPC
// server request ring.
template <typename T>
class Channel {
 public:
  explicit Channel(Engine& engine) : engine_(engine) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;
  ~Channel() {
    if (alive_ != nullptr) *alive_ = false;
  }

  void push(T value) {
    items_.push_back(std::move(value));
    wake_one();
  }

  struct PopAwaiter {
    Channel& ch;
    bool await_ready() noexcept {
      // Only consume immediately if no one is already queued ahead of us.
      return ch.waiters_.empty() && !ch.items_.empty();
    }
    void await_suspend(std::coroutine_handle<> h) {
      ch.waiters_.push_back({h, current_lane()});
      // If items are available (we suspended only for FIFO fairness),
      // make sure a wake-up is in flight.
      ch.wake_one();
    }
    T await_resume() {
      RDMASEM_CHECK_MSG(!ch.items_.empty(), "channel pop on empty queue");
      T v = std::move(ch.items_.front());
      ch.items_.pop_front();
      return v;
    }
  };

  // Suspends until an item is available, then dequeues it.
  PopAwaiter pop() { return PopAwaiter{*this}; }

  // Non-blocking variant.
  std::optional<T> try_pop() {
    if (items_.empty() || !waiters_.empty()) return std::nullopt;
    T v = std::move(items_.front());
    items_.pop_front();
    return v;
  }

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  std::size_t waiting() const { return waiters_.size(); }

 private:
  void wake_one() {
    if (waiters_.empty() || items_.empty()) return;
    if (wake_pending_) return;
    wake_pending_ = true;
    // The wake event runs on the front waiter's lane (stable while a wake
    // is pending: only the wake itself dequeues waiters) so the consumer
    // resumes where it suspended.
    engine_.schedule_on(waiters_.front().lane, engine_.now(), [this] {
      wake_pending_ = false;
      if (waiters_.empty() || items_.empty()) return;
      auto h = waiters_.front().handle;
      waiters_.pop_front();
      // The consumer may destroy this channel before it suspends again (a
      // reply channel that lives in the consumer's own frame), so the
      // destructor clears `alive` and the re-arm is skipped.
      bool alive = true;
      alive_ = &alive;
      h.resume();  // consumes its item in await_resume
      if (!alive) return;
      alive_ = nullptr;
      wake_one();  // arm the next waiter if more items remain
    });
  }

  Engine& engine_;
  util::Ring<T, 2> items_;
  util::Ring<LaneWaiter, 2> waiters_;
  bool wake_pending_ = false;
  // Set while a wake resumes a consumer; see wake_one().
  bool* alive_ = nullptr;
};

}  // namespace rdmasem::sim
