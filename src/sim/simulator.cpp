#include "vmmc/sim/simulator.h"

#include <algorithm>

#include "vmmc/util/log.h"

namespace vmmc::sim {

// The most recently constructed simulator provides the log timestamp
// context; several simulators alive at once in one process (tests)
// simply hand it back when they go away.
Simulator::Simulator() { SetLogSimClock(&now_); }

namespace {

// Pool blocks outlive individual Simulators: short-lived simulators
// (benches, tests) would otherwise free megabytes of node storage on
// every teardown, which glibc trims back to the kernel and the next
// Simulator pays to fault in and zero again. Touched only on teardown
// and refill, never per event.
std::vector<std::unique_ptr<unsigned char[]>>& BlockCache() {
  static std::vector<std::unique_ptr<unsigned char[]>> cache;
  return cache;
}
constexpr std::size_t kBlockCacheMax = 64;  // ~5 MB of retained blocks

}  // namespace

Simulator::~Simulator() {
  if (GetLogSimClock() == &now_) SetLogSimClock(nullptr);
  // Destroy the captures of still-queued callbacks; recycled nodes hold
  // none. Node memory is raw pool storage (nodes are placement-new'd and
  // never individually destroyed), recycled with the blocks below.
  for (const HeapSlot& s : heap_) s.node->fn.Reset();
  for (EventNode* n = fifo_head_; n != nullptr; n = n->next) n->fn.Reset();
  for (EventNode* n = tail_head_; n != nullptr; n = n->next) n->fn.Reset();
  for (EventNode* n : placed_) n->fn.Reset();
  auto& cache = BlockCache();
  for (auto& block : pool_blocks_) {
    if (cache.size() >= kBlockCacheMax) break;
    cache.push_back(std::move(block));
  }
}

void Simulator::RefillPool() {
  auto& cache = BlockCache();
  if (!cache.empty()) {
    pool_blocks_.push_back(std::move(cache.back()));
    cache.pop_back();
  } else {
    // for_overwrite: the block is raw storage for placement-new'd nodes;
    // value-initializing it would memset the whole block for nothing.
    pool_blocks_.push_back(std::make_unique_for_overwrite<unsigned char[]>(
        kPoolBlockNodes * sizeof(EventNode)));
  }
  wilderness_ = reinterpret_cast<EventNode*>(pool_blocks_.back().get());
  wilderness_end_ = wilderness_ + kPoolBlockNodes;
}

void Simulator::Spawn(Process p) {
  assert(p.valid());
  // A Process suspends at its initial suspend point and only runs once the
  // queue dispatches it, so it cannot have finished before being scheduled.
  assert(!p.finished());
  Process::Handle h = p.Detach();
  EventNode* n = AllocNode(now_);
  n->kind = EventNode::Kind::kSpawn;
  n->coro = h.address();
  Enqueue(n);
}

Simulator::EventNode* Simulator::HeapPopTop() {
  EventNode* top = heap_.front().node;
  const HeapSlot last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n != 0) {
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = kHeapArity * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t end = std::min(first + kHeapArity, n);
      for (std::size_t c = first + 1; c < end; ++c) {
        if (SlotBefore(heap_[c], heap_[best])) best = c;
      }
      if (!SlotBefore(heap_[best], last)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }
  return top;
}

Simulator::EventNode* Simulator::PopNext() {
  // Global (time, seq) minimum across the three tiers. Tail and heap hold
  // the strictly-future pushes; on equal times their seqs decide. FIFO
  // entries were allocated at now() itself, i.e. after any tail/heap
  // event that has since reached time == now(), so the FIFO only wins
  // when neither of the other tiers is due at the current time — this
  // keeps the order bit-identical to one (time, seq) heap.
  EventNode* c = tail_head_;
  bool from_tail = c != nullptr;
  if (!heap_.empty()) {
    const HeapSlot& top = heap_.front();
    if (c == nullptr || top.time < c->time ||
        (top.time == c->time && top.seq < c->seq)) {
      c = top.node;
      from_tail = false;
    }
  }
  if (fifo_head_ != nullptr && (c == nullptr || c->time != now_)) {
    EventNode* n = fifo_head_;
    fifo_head_ = n->next;
    if (fifo_head_ == nullptr) fifo_tail_ = nullptr;
    return n;
  }
  if (c == nullptr) return nullptr;
  if (from_tail) {
    tail_head_ = c->next;
    if (tail_head_ == nullptr) tail_tail_ = nullptr;
    return c;
  }
  return HeapPopTop();
}

void Simulator::Dispatch(EventNode* n) {
  switch (n->kind) {
    case EventNode::Kind::kResume:
      std::coroutine_handle<>::from_address(n->coro).resume();
      break;
    case EventNode::Kind::kSpawn: {
      auto h = Process::Handle::from_address(n->coro);
      if (!h.promise().started) {
        h.promise().started = true;
        h.resume();
      }
      break;
    }
    case EventNode::Kind::kCallback:
      n->fn.Invoke();
      n->fn.Reset();
      break;
  }
  FreeNode(n);
}

Simulator::EventNode* Simulator::MergePlaced(EventNode* n) {
  if (n != nullptr && !PlacedFirst(placed_.front(), n)) return n;
  // The placed event goes first; `n` returns to the queue. The heap
  // takes any key, and new events allocated meanwhile sort after it.
  if (n != nullptr) HeapPush(n);
  std::pop_heap(placed_.begin(), placed_.end(), PlacedAfter);
  n = placed_.back();
  placed_.pop_back();
  return n;
}

bool Simulator::Step() {
  EventNode* n = PopNext();
  if (!placed_.empty()) [[unlikely]] n = MergePlaced(n);
  if (n == nullptr) return false;
  assert(n->time >= now_);
  now_ = n->time;
  ++processed_;
  current_ = n;
  Dispatch(n);
  current_ = nullptr;
  return true;
}

std::uint64_t Simulator::Run(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (n < max_events && Step()) ++n;
  return n;
}

void Simulator::RunUntilTime(Tick t) {
  assert(t >= now_);
  for (;;) {
    if (fifo_head_ != nullptr) {  // now-FIFO events are at now() <= t
      Step();
      continue;
    }
    const bool tail_due = tail_head_ != nullptr && tail_head_->time <= t;
    const bool heap_due = !heap_.empty() && heap_.front().time <= t;
    const bool placed_due = !placed_.empty() && placed_.front()->time <= t;
    if (!tail_due && !heap_due && !placed_due) break;
    Step();
  }
  now_ = t;
}

}  // namespace vmmc::sim
