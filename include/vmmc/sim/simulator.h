// Discrete-event simulation engine.
//
// The Simulator owns a time-ordered queue of callbacks. Hardware and
// software components are modelled as coroutines (see process.h) that
// suspend on awaitables whose wake-ups flow through this queue, so the
// Simulator is single-threaded and deterministic: events at equal
// times fire in scheduling order (FIFO tie-break on a sequence number).
// One Simulator drives the whole modelled system (see DESIGN.md
// "Single-threaded by design").
//
// The queue is built for wall-clock throughput (see "Event engine
// internals" in ARCHITECTURE.md): events live in pool-allocated intrusive
// nodes ordered by a d-ary heap of (time, seq) keys, events at the
// current time bypass the heap through an intrusive FIFO, coroutine
// resumption and process start are first-class event kinds carrying only
// a frame address, and callbacks store their captures inline in the node
// (InlineFn) instead of behind a std::function allocation. The dispatch
// order is bit-identical to a (time, seq)-keyed priority queue: seq is a
// single monotone counter consumed by every scheduling path, so the key
// order is total. Events queued with AtAsScheduled order by (time,
// scheduling tick, seq), which agrees with (time, seq) for all others.
#pragma once

#include <algorithm>
#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "vmmc/obs/metrics.h"
#include "vmmc/obs/trace.h"
#include "vmmc/sim/fault.h"
#include "vmmc/sim/process.h"
#include "vmmc/sim/time.h"

namespace vmmc::sim {

namespace detail {

// A callable stored in place: captures up to kInlineBytes live inside the
// event node itself; larger ones (rare, none on the steady-state paths)
// fall back to a single heap allocation. Unlike std::function this never
// moves after construction — event nodes have stable addresses — so it
// needs no move support and accepts move-only captures.
class InlineFn {
 public:
  static constexpr std::size_t kInlineBytes = 96;

  InlineFn() noexcept = default;
  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;
  ~InlineFn() { Reset(); }

  template <typename F>
  void Emplace(F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_v<Fn&>);
    assert(invoke_ == nullptr && "InlineFn already holds a callable");
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      invoke_ = [](void* s) { (*std::launder(reinterpret_cast<Fn*>(s)))(); };
      // Trivially destructible captures (the common case) skip the
      // destroy indirection entirely.
      if constexpr (!std::is_trivially_destructible_v<Fn>) {
        destroy_ = [](void* s) {
          std::launder(reinterpret_cast<Fn*>(s))->~Fn();
        };
      }
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      invoke_ = [](void* s) { (**std::launder(reinterpret_cast<Fn**>(s)))(); };
      destroy_ = [](void* s) { delete *std::launder(reinterpret_cast<Fn**>(s)); };
    }
  }

  void Invoke() { invoke_(storage_); }

  void Reset() {
    if (destroy_ != nullptr) {
      destroy_(storage_);
      destroy_ = nullptr;
    }
    invoke_ = nullptr;
  }

 private:
  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  void (*invoke_)(void*) = nullptr;
  void (*destroy_)(void*) = nullptr;
};

}  // namespace detail

class Simulator {
 public:
  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Tick now() const { return now_; }

  // Observability (see include/vmmc/obs/): every component reachable from
  // this simulator reports into one registry and one tracer, so a whole
  // run snapshots / exports from a single place.
  obs::Registry& metrics() { return metrics_; }
  const obs::Registry& metrics() const { return metrics_; }
  obs::Tracer& tracer() { return tracer_; }

  // Fault injection (see sim/fault.h): hardware models consult this on
  // their fault points; tests and benches install a FaultPlan through it.
  FaultInjector& faults() { return faults_; }

  std::uint64_t events_processed() const { return processed_; }
  bool empty() const {
    return heap_.empty() && fifo_head_ == nullptr && tail_head_ == nullptr &&
           placed_.empty();
  }

  // Schedules `fn` at absolute time `t` (must be >= now()).
  template <typename F>
  void At(Tick t, F&& fn) {
    assert(t >= now_ && "cannot schedule in the past");
    EventNode* n = AllocNode(t);
    n->kind = EventNode::Kind::kCallback;
    n->fn.Emplace(std::forward<F>(fn));
    Enqueue(n);
  }
  // Schedules `fn` after `delay` ticks (must not be negative).
  template <typename F>
  void In(Tick delay, F&& fn) {
    assert(delay >= 0 && "delays cannot be negative");
    At(now_ + delay, std::forward<F>(fn));
  }
  // Schedules `fn` at the current time, after already-queued events at now().
  template <typename F>
  void Post(F&& fn) {
    At(now_, std::forward<F>(fn));
  }

  // Resumes a coroutine through the event queue (keeps ordering FIFO and
  // avoids unbounded recursion from synchronous resumption chains). This
  // is the dominant event kind — every Delay/Event/Semaphore/Mailbox
  // wake-up lands here — so it stores only the frame address: no closure,
  // no allocation.
  void Resume(std::coroutine_handle<> h, Tick delay = 0) {
    assert(delay >= 0 && "delays cannot be negative");
    EventNode* n = AllocNode(now_ + delay);
    n->kind = EventNode::Kind::kResume;
    n->coro = h.address();
    Enqueue(n);
  }

  // Starts a detached coroutine at the current time. The coroutine frame
  // frees itself on completion.
  void Spawn(Process p);

  // --- same-tick ordering hooks (see host/spin_wait.h) ---

  // Scheduling tick and seq of the event being dispatched. Outside any
  // event (between runs) they report now() and the next unused seq, so a
  // change made there orders after everything already scheduled.
  Tick dispatch_sched_time() const {
    return current_ != nullptr ? current_->sched_time : now_;
  }
  std::uint64_t dispatch_seq() const {
    return current_ != nullptr ? current_->seq : seq_;
  }

  // Consumes one seq without scheduling anything: the seq an event
  // scheduled right now would get.
  std::uint64_t ReserveSeq() { return seq_++; }

  // Schedules `fn` at `t` (>= now()) in the place an event scheduled at
  // tick `sched_time` under seq `seq` would take among the events at `t`:
  // after each one whose (scheduling tick, seq) is lower, before the
  // rest. `seq` comes from ReserveSeq() at or before `sched_time`. This
  // lets a sleeper stand in for an event it never scheduled
  // (host/spin_wait.h).
  template <typename F>
  void AtAsScheduled(Tick t, Tick sched_time, std::uint64_t seq, F&& fn) {
    assert(t >= now_ && sched_time <= now_ && seq < seq_);
    EventNode* n = TakeNode();
    n->time = t;
    n->seq = seq;
    n->sched_time = sched_time;
    n->kind = EventNode::Kind::kCallback;
    n->fn.Emplace(std::forward<F>(fn));
    placed_.push_back(n);
    std::push_heap(placed_.begin(), placed_.end(), PlacedAfter);
  }

  // Runs one event. Returns false if the queue is empty.
  bool Step();

  // Runs until the queue drains or `max_events` fire. Returns events run.
  std::uint64_t Run(std::uint64_t max_events = UINT64_MAX);

  // Runs all events with time <= t; leaves now() == t.
  void RunUntilTime(Tick t);

  // Runs until pred() is true (checked after every event). Returns true if
  // the predicate was satisfied, false if the queue drained first.
  template <typename Pred>
  bool RunUntil(Pred&& pred, std::uint64_t max_events = UINT64_MAX) {
    while (!pred()) {
      if (max_events-- == 0) return false;
      if (!Step()) return false;
    }
    return true;
  }

  // Awaitable: suspends the calling coroutine for `delay` ticks, one
  // kResume event and no coroutine frame. Leaf cost models (LanaiCpu::Exec,
  // PciBus::PioWrite, HostCpu::Charge/Bcopy) book their cost and return
  // one of these.
  struct [[nodiscard]] DelayAwaiter {
    Simulator& sim;
    Tick delay;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { sim.Resume(h, delay); }
    void await_resume() const noexcept {}
  };
  // `co_await sim.Delay(0)` yields through the event queue (fair handoff).
  DelayAwaiter Delay(Tick delay) {
    assert(delay >= 0);
    return DelayAwaiter{*this, delay};
  }

 private:
  // One scheduled event. Nodes are pool-allocated and recycled through an
  // intrusive free list; `next` doubles as the now-FIFO chain link.
  // Field order is deliberate: everything the kResume/kSpawn dispatch path
  // reads (time, seq, next, coro, kind) sits in the node's first cache
  // line; the callback capture area comes last.
  struct EventNode {
    enum class Kind : std::uint8_t { kCallback, kResume, kSpawn };
    Tick time = 0;
    std::uint64_t seq = 0;
    EventNode* next = nullptr;  // free-list / now-FIFO link
    void* coro = nullptr;       // kResume / kSpawn: coroutine frame address
    Tick sched_time = 0;        // now() when the event was scheduled
    Kind kind = Kind::kCallback;
    detail::InlineFn fn;        // kCallback only
  };
  // sched_time fills padding that the 16-byte-aligned capture area left
  // after `kind`: recording it costs no node size.
  static_assert(sizeof(EventNode) ==
                    48 + sizeof(detail::InlineFn) &&
                alignof(detail::InlineFn) == 16,
                "EventNode grew: sched_time must stay in the padding");

  // Heap entries carry the full (time, seq) key next to the node pointer:
  // sift comparisons stay inside the contiguous heap array and never
  // chase node pointers (time ties — bursts of same-tick wake-ups — are
  // the common case on the hot path).
  struct HeapSlot {
    Tick time;
    std::uint64_t seq;
    EventNode* node;
  };
  static bool SlotBefore(const HeapSlot& a, const HeapSlot& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;  // seq is unique: no further tie
  }

  EventNode* TakeNode() {
    EventNode* n = free_nodes_;
    if (n != nullptr) {
      free_nodes_ = n->next;
    } else {
      if (wilderness_ == wilderness_end_) RefillPool();
      n = ::new (static_cast<void*>(wilderness_)) EventNode;
      ++wilderness_;
    }
    return n;
  }
  EventNode* AllocNode(Tick t) {
    EventNode* n = TakeNode();
    n->time = t;
    n->seq = seq_++;
    n->sched_time = now_;
    return n;
  }
  void FreeNode(EventNode* n) {
    n->next = free_nodes_;
    free_nodes_ = n;
  }
  void RefillPool();

  // Three queue tiers, cheapest first. Events at exactly now() append to
  // an intrusive FIFO. Future events whose (time, seq) key is >= the last
  // event of the sorted tail list append there in O(1) — simulations
  // overwhelmingly schedule in increasing time order, so this absorbs the
  // heap traffic. Only out-of-order future pushes fall through to the
  // 4-ary heap. PopNext takes the global (time, seq) minimum of the three
  // tiers, so dispatch order is identical to a single priority queue.
  void Enqueue(EventNode* n) {
    if (n->time == now_) {
      n->next = nullptr;
      if (fifo_tail_ != nullptr) {
        fifo_tail_->next = n;
      } else {
        fifo_head_ = n;
      }
      fifo_tail_ = n;
      return;
    }
    // seq is monotone and tail_tail_ was allocated earlier, so on equal
    // times n still sorts after it — time comparison alone suffices.
    if (tail_tail_ == nullptr || n->time >= tail_tail_->time) {
      n->next = nullptr;
      if (tail_tail_ != nullptr) {
        tail_tail_->next = n;
      } else {
        tail_head_ = n;
      }
      tail_tail_ = n;
      return;
    }
    HeapPush(n);
  }

  static constexpr std::size_t kHeapArity = 4;

  void HeapPush(EventNode* n) {
    const HeapSlot slot{n->time, n->seq, n};
    std::size_t i = heap_.size();
    heap_.push_back(slot);
    while (i > 0) {
      const std::size_t parent = (i - 1) / kHeapArity;
      if (!SlotBefore(slot, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = slot;
  }

  // Events queued by AtAsScheduled, whose (sched_time, seq) is a
  // position rather than an allocation order: a min-heap on
  // (time, sched_time, seq), merged into dispatch by Step.
  static bool PlacedAfter(const EventNode* a, const EventNode* b) {
    if (a->time != b->time) return a->time > b->time;
    if (a->sched_time != b->sched_time) return a->sched_time > b->sched_time;
    return a->seq > b->seq;
  }
  // True if placed event `p` dispatches before queued event `n`.
  static bool PlacedFirst(const EventNode* p, const EventNode* n) {
    if (p->time != n->time) return p->time < n->time;
    if (p->sched_time != n->sched_time) return p->sched_time < n->sched_time;
    return p->seq <= n->seq;
  }

  EventNode* HeapPopTop();
  EventNode* PopNext();
  // Returns whichever of `n` and the earliest placed event dispatches
  // first. Out of line: it keeps Step's common path small.
  [[gnu::noinline]] EventNode* MergePlaced(EventNode* n);
  void Dispatch(EventNode* n);

  std::vector<HeapSlot> heap_;        // out-of-order future events, 4-ary min-heap
  std::vector<EventNode*> placed_;    // AtAsScheduled events (see PlacedAfter)
  EventNode* fifo_head_ = nullptr;    // events at now(), FIFO order
  EventNode* fifo_tail_ = nullptr;
  EventNode* tail_head_ = nullptr;    // future events, sorted by (time, seq)
  EventNode* tail_tail_ = nullptr;
  EventNode* free_nodes_ = nullptr;   // recycled nodes
  EventNode* wilderness_ = nullptr;   // unconstructed tail of newest block
  EventNode* wilderness_end_ = nullptr;
  // Fixed-size blocks: 512 nodes keeps a block under glibc's 128 KB mmap
  // threshold, so freed blocks are recycled by the allocator instead of
  // being returned to (and re-zeroed by) the kernel.
  static constexpr std::size_t kPoolBlockNodes = 512;
  std::vector<std::unique_ptr<unsigned char[]>> pool_blocks_;
  Tick now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t processed_ = 0;
  const EventNode* current_ = nullptr;  // the event being dispatched
  obs::Registry metrics_;
  obs::Tracer tracer_{&now_};
  FaultInjector faults_{&now_, &metrics_};
};

}  // namespace vmmc::sim
