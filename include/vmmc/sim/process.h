// Process: the coroutine type used for every simulated activity (LANai
// control programs, DMA engines, user programs, daemons...).
//
// Semantics:
//  * A Process is lazy: it does not run until either awaited
//    (`co_await child()`) or handed to Simulator::Spawn.
//  * `co_await process` starts the child immediately (symmetric transfer)
//    and resumes the parent when the child finishes, at the child's
//    finishing time. At most one coroutine may await a given Process.
//  * Spawned (detached) processes self-destroy at completion; an exception
//    escaping a detached process terminates the program.
//  * Destroying a Process object whose coroutine has started but not
//    finished detaches it (the frame runs to completion and then frees
//    itself); a never-started frame is destroyed in place. This avoids
//    dangling wake-ups from awaitables already queued in the simulator.
#pragma once

#include <cassert>
#include <coroutine>
#include <exception>
#include <utility>

#include "vmmc/util/pool.h"

namespace vmmc::sim {

class [[nodiscard]] Process {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct promise_type {
    // User-declared so the promise is not an aggregate: C++20 would
    // otherwise build it from the coroutine's own arguments, and a
    // coroutine whose first parameter converts to bool would start out
    // `started` and never run.
    promise_type() = default;

    // Frames come from the shared size-class pool (util/pool.h): a warm
    // simulation starts every coroutine without touching the heap.
    static void* operator new(std::size_t n) { return util::Pool::Allocate(n); }
    static void operator delete(void* p, std::size_t n) noexcept {
      util::Pool::Free(p, n);
    }

    bool started = false;
    bool finished = false;
    bool detached = false;
    std::coroutine_handle<> joiner;
    std::exception_ptr error;

    Process get_return_object() {
      return Process(Handle::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(Handle h) noexcept {
        promise_type& p = h.promise();
        p.finished = true;
        std::coroutine_handle<> next =
            p.joiner ? p.joiner : std::coroutine_handle<>(std::noop_coroutine());
        if (p.detached) {
          if (p.error) std::terminate();  // detached coroutine threw
          h.destroy();
        }
        return next;
      }
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() noexcept {}
    void unhandled_exception() noexcept { error = std::current_exception(); }
  };

  Process() = default;
  explicit Process(Handle h) : h_(h) {}
  Process(Process&& other) noexcept : h_(std::exchange(other.h_, nullptr)) {}
  Process& operator=(Process&& other) noexcept {
    if (this != &other) {
      Release();
      h_ = std::exchange(other.h_, nullptr);
    }
    return *this;
  }
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;
  ~Process() { Release(); }

  bool valid() const { return h_ != nullptr; }
  bool started() const { return h_ && h_.promise().started; }
  bool finished() const { return h_ && h_.promise().finished; }

  // Awaiting starts the child (if needed) and suspends until it completes.
  auto operator co_await() {
    struct Awaiter {
      Handle h;
      bool await_ready() const noexcept {
        return !h || h.promise().finished;
      }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) {
        promise_type& p = h.promise();
        assert(!p.joiner && "a Process may be awaited by one coroutine only");
        p.joiner = cont;
        if (!p.started) {
          p.started = true;
          return h;  // symmetric transfer: run the child now
        }
        return std::noop_coroutine();
      }
      void await_resume() {
        if (h && h.promise().error) {
          // Consume the error so the Process destructor treats it as
          // observed rather than terminating.
          std::exception_ptr e = std::exchange(h.promise().error, nullptr);
          std::rethrow_exception(e);
        }
      }
    };
    return Awaiter{h_};
  }

  // Used by Simulator::Spawn: transfers frame ownership to the frame itself.
  Handle Detach() {
    assert(h_);
    h_.promise().detached = true;
    return std::exchange(h_, nullptr);
  }

 private:
  void Release() {
    if (!h_) return;
    promise_type& p = h_.promise();
    if (p.finished) {
      if (p.error) std::terminate();  // error was never observed
      h_.destroy();
    } else if (!p.started) {
      h_.destroy();  // never ran: no queued wake-ups can exist
    } else {
      p.detached = true;  // runs to completion, then frees itself
    }
    h_ = nullptr;
  }

  Handle h_;
};

}  // namespace vmmc::sim
