// Golden ordering test for the event engine.
//
// The three-tier queue (now-FIFO, sorted tail list, 4-ary heap) promises
// dispatch order bit-identical to a single (time, seq) priority queue.
// This test drives identical randomized schedules — a mix of At, Post,
// coroutine Resume, Spawn and AtAsScheduled, with heavy time ties and
// out-of-order pushes — through the production Simulator and through a
// deliberately naive reference scheduler (linear scan for the minimum of
// (time, scheduling tick, seq), which is (time, seq) for every event not
// placed by AtAsScheduled), and requires the firing sequences to match
// exactly.
#include <gtest/gtest.h>

#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "vmmc/sim/process.h"
#include "vmmc/sim/rng.h"
#include "vmmc/sim/simulator.h"

namespace vmmc::sim {
namespace {

// One scheduling operation. Ops are identified by the order they were
// scheduled in; firing an op deterministically generates child ops, so
// the whole workload unfolds identically in both schedulers as long as
// they fire ops in the same order — which is exactly what we verify.
struct Op {
  enum Kind { kAt, kPost, kResume, kSpawn, kPlaced };
  Kind kind;
  Tick delay;
  std::uint64_t pick;  // kPlaced: which earlier reservation to stand in for
};

Op DrawOp(Rng& rng) {
  Op op;
  op.kind = static_cast<Op::Kind>(rng.UniformU64(5));
  op.pick = rng.NextU64();
  // ~40% zero delays: same-tick bursts (FIFO tier, seq tie-breaks) are
  // the adversarial case for ordering bugs.
  const std::uint64_t r = rng.UniformU64(100);
  op.delay = r < 40 ? 0 : static_cast<Tick>(r - 40);
  return op;
}

std::vector<Op> Roots(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Op> roots;
  for (int i = 0; i < 16; ++i) roots.push_back(DrawOp(rng));
  return roots;
}

// Children of op `id`: a pure function of (seed, id), so both schedulers
// expand the same tree.
std::vector<Op> ChildrenOf(std::uint64_t seed, int id) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(id));
  std::vector<Op> children;
  const auto n = rng.UniformU64(4);  // 0..3 children, mean 1.5
  for (std::uint64_t i = 0; i < n; ++i) children.push_back(DrawOp(rng));
  return children;
}

constexpr int kMaxOps = 3000;

// --- Production driver: the real Simulator -------------------------------

// Every firing reserves one seq at its tick. A kPlaced op queues an event
// as if scheduled at some tick from that reservation's up to now, under
// the reserved seq — the way a spin-wait stands in for a poll it skipped.
struct Reservation {
  Tick tick;
  std::uint64_t seq;
};

Tick PlacedTick(const Reservation& r, Tick now, std::uint64_t pick) {
  return r.tick + static_cast<Tick>((pick >> 32) %
                                    static_cast<std::uint64_t>(now - r.tick + 1));
}

// Each reservation stands in for one event only, so keys stay unique.
Reservation TakeReservation(std::vector<Reservation>& pool,
                            std::uint64_t pick) {
  const std::size_t i = pick % pool.size();
  const Reservation r = pool[i];
  pool[i] = pool.back();
  pool.pop_back();
  return r;
}

class RealDriver {
 public:
  explicit RealDriver(std::uint64_t seed) : seed_(seed) {}

  std::vector<int> Run() {
    for (const Op& op : Roots(seed_)) Schedule(op);
    sim_.Run();
    // Every op is exactly one event in the real engine (kCallback,
    // kResume or kSpawn), so the counts must agree too.
    EXPECT_EQ(sim_.events_processed(), log_.size());
    return std::move(log_);
  }

 private:
  void Fire(int id) {
    log_.push_back(id);
    reserved_.push_back({sim_.now(), sim_.ReserveSeq()});
    for (const Op& op : ChildrenOf(seed_, id)) Schedule(op);
  }

  void Schedule(const Op& op) {
    if (next_id_ >= kMaxOps) return;
    const int id = next_id_++;
    if (op.kind == Op::kPlaced && !reserved_.empty()) {
      const Reservation r = TakeReservation(reserved_, op.pick);
      sim_.AtAsScheduled(sim_.now() + op.delay,
                         PlacedTick(r, sim_.now(), op.pick), r.seq,
                         [this, id] { Fire(id); });
      return;
    }
    switch (op.kind) {
      case Op::kAt:
        sim_.At(sim_.now() + op.delay, [this, id] { Fire(id); });
        break;
      case Op::kPost:
        sim_.Post([this, id] { Fire(id); });
        break;
      case Op::kResume:
        StartParked(id, op.delay);
        break;
      case Op::kSpawn:
      case Op::kPlaced:  // no reservation yet: a plain spawn
        sim_.Spawn(FireProc(id));
        break;
    }
  }

  Process FireProc(int id) {
    Fire(id);
    co_return;
  }

  // Parks at a custom awaiter that captures the frame handle without
  // scheduling anything, so the subsequent wake-up goes through
  // Simulator::Resume itself — the path under test.
  struct Park {
    std::coroutine_handle<>* slot;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) noexcept { *slot = h; }
    void await_resume() const noexcept {}
  };

  Process ParkedFire(int id, std::coroutine_handle<>* slot) {
    co_await Park{slot};
    Fire(id);
  }

  void StartParked(int id, Tick delay) {
    parked_.emplace_back();  // deque: stable address for the slot
    std::coroutine_handle<>* slot = &parked_.back();
    Process p = ParkedFire(id, slot);
    Process::Handle h = p.Detach();
    h.promise().started = true;
    h.resume();  // runs synchronously to the park point, fills *slot
    sim_.Resume(*slot, delay);
  }

  Simulator sim_;
  std::uint64_t seed_;
  int next_id_ = 0;
  std::vector<int> log_;
  std::vector<Reservation> reserved_;
  std::deque<std::coroutine_handle<>> parked_;
};

// --- Reference driver: linear-scan (time, seq) scheduler ------------------

class ReferenceDriver {
 public:
  explicit ReferenceDriver(std::uint64_t seed) : seed_(seed) {}

  std::vector<int> Run() {
    for (const Op& op : Roots(seed_)) Schedule(op);
    while (!events_.empty()) {
      std::size_t best = 0;
      for (std::size_t i = 1; i < events_.size(); ++i) {
        const Event& e = events_[i];
        const Event& b = events_[best];
        if (e.time != b.time ? e.time < b.time
            : e.sched != b.sched ? e.sched < b.sched
                                 : e.seq < b.seq) {
          best = i;
        }
      }
      Event next = std::move(events_[best]);
      events_.erase(events_.begin() + static_cast<std::ptrdiff_t>(best));
      now_ = next.time;
      Fire(next.id);
    }
    return std::move(log_);
  }

 private:
  struct Event {
    Tick time;
    Tick sched;
    std::uint64_t seq;
    int id;
  };

  void Fire(int id) {
    log_.push_back(id);
    reserved_.push_back({now_, seq_++});
    for (const Op& op : ChildrenOf(seed_, id)) Schedule(op);
  }

  void Schedule(const Op& op) {
    if (next_id_ >= kMaxOps) return;
    const int id = next_id_++;
    if (op.kind == Op::kPlaced && !reserved_.empty()) {
      const Reservation r = TakeReservation(reserved_, op.pick);
      events_.push_back(
          {now_ + op.delay, PlacedTick(r, now_, op.pick), r.seq, id});
      return;
    }
    // kPost and kSpawn run at now(); kAt and kResume run after delay.
    // The sequence number is assigned at schedule time, exactly as the
    // real engine's monotone seq_ counter is.
    const bool at_now = op.kind == Op::kPost || op.kind == Op::kSpawn ||
                        op.kind == Op::kPlaced;
    events_.push_back({now_ + (at_now ? 0 : op.delay), now_, seq_++, id});
  }

  std::uint64_t seed_;
  Tick now_ = 0;
  std::uint64_t seq_ = 0;
  int next_id_ = 0;
  std::vector<int> log_;
  std::vector<Reservation> reserved_;
  std::vector<Event> events_;
};

void ExpectIdenticalFiringOrder(std::uint64_t seed) {
  std::vector<int> real = RealDriver(seed).Run();
  std::vector<int> ref = ReferenceDriver(seed).Run();
  ASSERT_GT(real.size(), 16u) << "seed " << seed << " generated no work";
  EXPECT_EQ(real, ref) << "firing order diverged for seed " << seed;
}

TEST(SimDeterminismTest, MatchesReferenceSchedulerSeed1) {
  ExpectIdenticalFiringOrder(1);
}

TEST(SimDeterminismTest, MatchesReferenceSchedulerSeed2) {
  ExpectIdenticalFiringOrder(2);
}

TEST(SimDeterminismTest, MatchesReferenceSchedulerSeed3) {
  ExpectIdenticalFiringOrder(3);
}

TEST(SimDeterminismTest, MatchesReferenceSchedulerSweep) {
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    ExpectIdenticalFiringOrder(seed);
  }
}

}  // namespace
}  // namespace vmmc::sim
