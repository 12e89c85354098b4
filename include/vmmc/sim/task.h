// Task<T>: a coroutine returning a value, for API calls that both take
// simulated time and produce a result (e.g. Import returns a proxy
// address). Semantics mirror sim::Process: lazy start, exactly one awaiter,
// symmetric transfer on start and completion.
#pragma once

#include <cassert>
#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

#include "vmmc/util/pool.h"

namespace vmmc::sim {

template <typename T>
class [[nodiscard]] Task {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct promise_type {
    // Not an aggregate, for the reason given in process.h.
    promise_type() = default;

    // Pooled frames, as for sim::Process.
    static void* operator new(std::size_t n) { return util::Pool::Allocate(n); }
    static void operator delete(void* p, std::size_t n) noexcept {
      util::Pool::Free(p, n);
    }

    bool started = false;
    bool finished = false;
    std::coroutine_handle<> joiner;
    std::exception_ptr error;
    std::optional<T> value;

    Task get_return_object() { return Task(Handle::from_promise(*this)); }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(Handle h) noexcept {
        promise_type& p = h.promise();
        p.finished = true;
        return p.joiner ? p.joiner
                        : std::coroutine_handle<>(std::noop_coroutine());
      }
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_value(T v) { value.emplace(std::move(v)); }
    void unhandled_exception() noexcept { error = std::current_exception(); }
  };

  Task() = default;
  explicit Task(Handle h) : h_(h) {}
  Task(Task&& other) noexcept : h_(std::exchange(other.h_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Release();
      h_ = std::exchange(other.h_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { Release(); }

  bool valid() const { return h_ != nullptr; }
  bool finished() const { return h_ && h_.promise().finished; }

  auto operator co_await() {
    struct Awaiter {
      Handle h;
      bool await_ready() const noexcept { return !h || h.promise().finished; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) {
        promise_type& p = h.promise();
        assert(!p.joiner && "a Task may be awaited by one coroutine only");
        p.joiner = cont;
        if (!p.started) {
          p.started = true;
          return h;
        }
        return std::noop_coroutine();
      }
      T await_resume() {
        promise_type& p = h.promise();
        if (p.error) {
          std::exception_ptr e = std::exchange(p.error, nullptr);
          std::rethrow_exception(e);
        }
        assert(p.value.has_value());
        return std::move(*p.value);
      }
    };
    assert(h_ && "awaiting an empty Task");
    return Awaiter{h_};
  }

 private:
  void Release() {
    if (!h_) return;
    promise_type& p = h_.promise();
    // Tasks are always consumed by an awaiter in this codebase; a started
    // but unfinished Task being dropped would leave dangling wake-ups, so
    // that is a programming error.
    assert((!p.started || p.finished) && "dropping a running Task");
    if (p.error) std::terminate();  // error never observed
    h_.destroy();
    h_ = nullptr;
  }

  Handle h_;
};

}  // namespace vmmc::sim
