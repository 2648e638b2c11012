#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <type_traits>
#include <utility>

#include "sim/size_class_pool.hpp"
#include "util/assert.hpp"

namespace rdmasem::sim {

// TaskT<T> — a lazily-started coroutine used for all simulated activities
// (clients, executors, NIC pipelines). Composition rules:
//
//   * `co_await child_task` runs the child to completion on the virtual
//     clock and yields its value; the parent resumes where the child left
//     the clock.
//   * `engine.spawn(std::move(task))` detaches a root task; the engine
//     destroys its frame on completion.
//
// A TaskT owns its coroutine frame (RAII) until awaited or spawned.
// Exceptions thrown inside a task propagate to the awaiter; an exception
// escaping a detached root task terminates the process (a simulation bug).
template <typename T>
class TaskT;

// A detached frame's link in its engine's DetachedRegistry, embedded in
// the promise.
struct DetachedNode {
  DetachedNode* prev = nullptr;
  DetachedNode* next = nullptr;
  std::coroutine_handle<> frame{};
};

// Engine-side registry of live detached coroutine frames, so frames still
// suspended at engine teardown can be reclaimed: an intrusive circular
// doubly linked list through the promises, so spawn (link) and finish
// (unlink) are O(1) pointer writes with no allocation and no lookup.
class DetachedRegistry {
 public:
  DetachedRegistry() { head_.prev = head_.next = &head_; }
  DetachedRegistry(const DetachedRegistry&) = delete;
  DetachedRegistry& operator=(const DetachedRegistry&) = delete;
  ~DetachedRegistry() { RDMASEM_CHECK(empty()); }

  bool empty() const { return head_.next == &head_; }

  void link(DetachedNode& n, std::coroutine_handle<> frame) {
    n.frame = frame;
    n.prev = &head_;
    n.next = head_.next;
    head_.next->prev = &n;
    head_.next = &n;
  }
  static void unlink(DetachedNode& n) {
    n.prev->next = n.next;
    n.next->prev = n.prev;
    n.prev = n.next = nullptr;
  }

  // Destroys every frame still linked. Each is unlinked before its
  // destroy, and the next one is read afresh, so a frame whose locals
  // finish or unlink other frames from their destructors is safe.
  void destroy_all() {
    while (!empty()) {
      DetachedNode& n = *head_.next;
      unlink(n);
      n.frame.destroy();
    }
  }

 private:
  DetachedNode head_;
};

namespace detail {

template <typename T>
struct PromiseBase;

struct FinalAwaiter {
  bool await_ready() const noexcept { return false; }
  template <typename P>
  std::coroutine_handle<> await_suspend(std::coroutine_handle<P> h) noexcept {
    auto& p = h.promise();
    const std::coroutine_handle<> cont = p.continuation;
    if (p.detached) {
      if (p.exception) std::terminate();  // bug in a detached simulation task
      DetachedRegistry::unlink(p);
      h.destroy();
      return cont ? cont : std::noop_coroutine();
    }
    p.finished = true;
    return cont ? cont : std::noop_coroutine();
  }
  void await_resume() const noexcept {}
};

// The DetachedNode base links a frame detached via Engine::spawn into the
// engine's registry of live frames (so still-suspended tasks can be
// reclaimed when the engine dies).
template <typename T>
struct PromiseBase : DetachedNode {
  std::coroutine_handle<> continuation{};
  std::exception_ptr exception{};
  bool detached = false;
  bool finished = false;

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() { exception = std::current_exception(); }

  // Coroutine frames are recycled through the size-classed FramePool: the
  // per-WR pipeline creates/destroys one frame per work request, and a
  // same-coroutine frame is a same-size frame. Only the sized delete is
  // declared so the class is always known at free time.
  static void* operator new(std::size_t bytes) {
    return FramePool::allocate(bytes);
  }
  static void operator delete(void* p, std::size_t bytes) noexcept {
    FramePool::deallocate(p, bytes);
  }
};

// Where co_return puts the result: the one part of a promise that
// depends on T.
template <typename T>
struct PromiseValue : PromiseBase<T> {
  T value{};
  template <typename U>
  void return_value(U&& v) { value = std::forward<U>(v); }
};

template <>
struct PromiseValue<void> : PromiseBase<void> {
  void return_void() noexcept {}
};

}  // namespace detail

template <typename T>
class [[nodiscard]] TaskT {
 public:
  struct promise_type : detail::PromiseValue<T> {
    TaskT get_return_object() {
      return TaskT(std::coroutine_handle<promise_type>::from_promise(*this));
    }
  };

  TaskT() = default;
  explicit TaskT(std::coroutine_handle<promise_type> h) : h_(h) {}
  TaskT(TaskT&& o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
  TaskT& operator=(TaskT&& o) noexcept {
    if (this != &o) {
      destroy();
      h_ = std::exchange(o.h_, nullptr);
    }
    return *this;
  }
  TaskT(const TaskT&) = delete;
  TaskT& operator=(const TaskT&) = delete;
  ~TaskT() { destroy(); }

  bool valid() const { return h_ != nullptr; }
  bool done() const { return h_ && h_.promise().finished; }

  // Awaiting a task starts it and suspends the awaiter until it finishes.
  auto operator co_await() && {
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) {
        h.promise().continuation = cont;
        return h;  // symmetric transfer into the child
      }
      T await_resume() {
        if (h.promise().exception)
          std::rethrow_exception(h.promise().exception);
        if constexpr (!std::is_void_v<T>) return std::move(h.promise().value);
      }
    };
    RDMASEM_CHECK_MSG(h_ != nullptr, "awaiting an empty task");
    return Awaiter{h_};
  }

  // Used by Engine::spawn: marks detached and releases ownership.
  std::coroutine_handle<promise_type> release_detached(
      DetachedRegistry& registry) {
    RDMASEM_CHECK(h_ != nullptr);
    h_.promise().detached = true;
    registry.link(h_.promise(), h_);
    return std::exchange(h_, nullptr);
  }

 private:
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = nullptr;
    }
  }
  std::coroutine_handle<promise_type> h_{};
};

using Task = TaskT<void>;

}  // namespace rdmasem::sim
