#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <utility>

#include "sim/frame_pool.hpp"
#include "util/assert.hpp"
#include "util/ptr_set.hpp"

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

// Engine-side registry of live detached coroutine frames, so frames still
// suspended at engine teardown can be reclaimed. A flat open-addressing
// PtrSet: spawn/finish is once per work request, and a node-based set
// would put one heap allocation on that path.
using DetachedRegistry = util::PtrSet;

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
      if (p.detached_registry) p.detached_registry->erase(h.address());
      h.destroy();
      return cont ? cont : std::noop_coroutine();
    }
    p.finished = true;
    return cont ? cont : std::noop_coroutine();
  }
  void await_resume() const noexcept {}
};

template <typename T>
struct PromiseBase {
  std::coroutine_handle<> continuation{};
  std::exception_ptr exception{};
  bool detached = false;
  bool finished = false;
  // When detached via Engine::spawn, the engine's registry of live frames
  // (so still-suspended tasks can be reclaimed when the engine dies).
  DetachedRegistry* detached_registry = nullptr;

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

}  // namespace detail

template <typename T>
class [[nodiscard]] TaskT {
 public:
  struct promise_type : detail::PromiseBase<T> {
    T value{};
    TaskT get_return_object() {
      return TaskT(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    template <typename U>
    void return_value(U&& v) { value = std::forward<U>(v); }
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
        return std::move(h.promise().value);
      }
    };
    RDMASEM_CHECK_MSG(h_ != nullptr, "awaiting an empty task");
    return Awaiter{h_};
  }

  // Used by Engine::spawn: marks detached and releases ownership.
  std::coroutine_handle<promise_type> release_detached(
      DetachedRegistry* registry) {
    RDMASEM_CHECK(h_ != nullptr);
    h_.promise().detached = true;
    h_.promise().detached_registry = registry;
    if (registry) registry->insert(h_.address());
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

template <>
class [[nodiscard]] TaskT<void> {
 public:
  struct promise_type : detail::PromiseBase<void> {
    TaskT get_return_object() {
      return TaskT(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() noexcept {}
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

  auto operator co_await() && {
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) {
        h.promise().continuation = cont;
        return h;
      }
      void await_resume() {
        if (h.promise().exception)
          std::rethrow_exception(h.promise().exception);
      }
    };
    RDMASEM_CHECK_MSG(h_ != nullptr, "awaiting an empty task");
    return Awaiter{h_};
  }

  std::coroutine_handle<promise_type> release_detached(
      DetachedRegistry* registry) {
    RDMASEM_CHECK(h_ != nullptr);
    h_.promise().detached = true;
    h_.promise().detached_registry = registry;
    if (registry) registry->insert(h_.address());
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
