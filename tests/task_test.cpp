// Tests for sim::Task<T>, the value-returning coroutine used by the VMMC
// API surface.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "vmmc/sim/simulator.h"
#include "vmmc/sim/sync.h"
#include "vmmc/sim/task.h"
#include "vmmc/util/pool.h"
#include "vmmc/util/status.h"

namespace vmmc::sim {
namespace {

Task<int> Answer(Simulator& sim, Tick delay) {
  co_await sim.Delay(delay);
  co_return 42;
}

Process Driver(Simulator& sim, int& out, Tick& when) {
  out = co_await Answer(sim, 100);
  when = sim.now();
}

TEST(TaskTest, ReturnsValueAfterDelay) {
  Simulator sim;
  int out = 0;
  Tick when = -1;
  sim.Spawn(Driver(sim, out, when));
  sim.Run();
  EXPECT_EQ(out, 42);
  EXPECT_EQ(when, 100);
}

Task<std::string> Compose(Simulator& sim) {
  int a = co_await Answer(sim, 10);
  int b = co_await Answer(sim, 20);
  co_return std::to_string(a + b);
}

Process ComposeDriver(Simulator& sim, std::string& out, Tick& when) {
  out = co_await Compose(sim);
  when = sim.now();
}

TEST(TaskTest, TasksCompose) {
  Simulator sim;
  std::string out;
  Tick when = -1;
  sim.Spawn(ComposeDriver(sim, out, when));
  sim.Run();
  EXPECT_EQ(out, "84");
  EXPECT_EQ(when, 30);
}

Task<std::unique_ptr<int>> MoveOnly(Simulator& sim) {
  co_await sim.Delay(1);
  co_return std::make_unique<int>(7);
}

Process MoveDriver(Simulator& sim, int& out) {
  auto p = co_await MoveOnly(sim);
  out = *p;
}

TEST(TaskTest, MoveOnlyValues) {
  Simulator sim;
  int out = 0;
  sim.Spawn(MoveDriver(sim, out));
  sim.Run();
  EXPECT_EQ(out, 7);
}

Task<Result<int>> Fallible(Simulator& sim, bool fail) {
  co_await sim.Delay(5);
  if (fail) co_return Result<int>(NotFound("nope"));
  co_return 1;
}

Process FallibleDriver(Simulator& sim, Status& s1, Status& s2) {
  auto ok = co_await Fallible(sim, false);
  s1 = ok.status();
  auto bad = co_await Fallible(sim, true);
  s2 = bad.status();
}

TEST(TaskTest, ResultValuesPropagate) {
  Simulator sim;
  Status s1 = InternalError("unset"), s2 = OkStatus();
  sim.Spawn(FallibleDriver(sim, s1, s2));
  sim.Run();
  EXPECT_TRUE(s1.ok());
  EXPECT_EQ(s2.code(), ErrorCode::kNotFound);
}

Task<int> Thrower(Simulator& sim) {
  co_await sim.Delay(1);
  throw std::runtime_error("task boom");
}

Process CatchDriver(Simulator& sim, bool& caught) {
  try {
    (void)co_await Thrower(sim);
  } catch (const std::runtime_error&) {
    caught = true;
  }
}

TEST(TaskTest, ExceptionPropagatesToAwaiter) {
  Simulator sim;
  bool caught = false;
  sim.Spawn(CatchDriver(sim, caught));
  sim.Run();
  EXPECT_TRUE(caught);
}

// Coroutines whose leading parameters convert to the promise's first
// members (bool started, ...). Were the promise an aggregate, C++20 would
// initialize it from these arguments, so the coroutine would look started
// and never run.
struct RunFlag {
  bool ran = false;
  int value = 0;
};

Task<int> FromFlag(bool flag) { co_return flag ? 11 : 22; }

Process MarkRan(RunFlag* flag) {
  flag->value = co_await FromFlag(true);
  flag->ran = true;
}

TEST(TaskTest, PromiseIgnoresCoroutineArguments) {
  Simulator sim;
  RunFlag flag;
  sim.Spawn(MarkRan(&flag));
  sim.Run();
  EXPECT_TRUE(flag.ran);
  EXPECT_EQ(flag.value, 11);
}

TEST(TaskTest, UnstartedTaskDestroysCleanly) {
  Simulator sim;
  {
    Task<int> t = Answer(sim, 50);
    EXPECT_TRUE(t.valid());
    EXPECT_FALSE(t.finished());
  }  // never awaited: frame destroyed without running
  EXPECT_TRUE(sim.empty());
}

// --- Pooled frames ----------------------------------------------------------

// A coroutine whose frame carries N bytes of live state across its
// suspension: frames of different N land in different pool size classes.
template <std::size_t N>
Task<int> Held(Simulator& sim, Event& gate, int seed) {
  std::array<std::uint8_t, N> state;
  for (std::size_t i = 0; i < N; ++i) {
    state[i] = static_cast<std::uint8_t>(seed + static_cast<int>(i));
  }
  co_await gate.Wait();
  co_await sim.Delay(1);
  int intact = 1;
  for (std::size_t i = 0; i < N; ++i) {
    if (state[i] != static_cast<std::uint8_t>(seed + static_cast<int>(i))) {
      intact = 0;
    }
  }
  co_return intact;
}

template <std::size_t N>
Process HoldAndCount(Simulator& sim, Event& gate, int seed, int& intact) {
  intact += co_await Held<N>(sim, gate, seed);
}

// Parks `per_size` coroutines of each of four frame sizes on one gate,
// then releases them; returns how many found their frame state intact.
int RunWave(Simulator& sim, int per_size, int seed) {
  Event gate(sim);
  int intact = 0;
  for (int i = 0; i < per_size; ++i) {
    sim.Spawn(HoldAndCount<16>(sim, gate, seed + i, intact));
    sim.Spawn(HoldAndCount<200>(sim, gate, seed + 2 * i, intact));
    sim.Spawn(HoldAndCount<900>(sim, gate, seed + 3 * i, intact));
    sim.Spawn(HoldAndCount<3000>(sim, gate, seed + 4 * i, intact));
  }
  sim.Run();  // every coroutine is now suspended on the gate
  gate.Set();
  sim.Run();
  return intact;
}

TEST(TaskTest, FramesRecycleThroughThePoolAcrossSizeClasses) {
  Simulator sim;
  constexpr int kPerSize = 25;
  // First wave: 200 frames (100 Process + 100 Task) alive at once, of
  // several size classes; each frame's state must survive its suspension
  // while the others are allocated around it.
  ASSERT_EQ(RunWave(sim, kPerSize, 1), 4 * kPerSize);

  // Second wave with the same peak: every frame comes off a free list, and
  // recycled frames still keep their own state (no block handed out twice).
  const util::Pool::Stats before = util::Pool::stats();
  ASSERT_EQ(RunWave(sim, kPerSize, 7), 4 * kPerSize);
  const util::Pool::Stats& after = util::Pool::stats();
  EXPECT_EQ(after.heap_allocs - before.heap_allocs, 0u);
  EXPECT_GE(after.pool_hits - before.pool_hits,
            static_cast<std::uint64_t>(8 * kPerSize));
}

}  // namespace
}  // namespace vmmc::sim
