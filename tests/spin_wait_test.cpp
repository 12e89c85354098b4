// Differential test for host::SpinWait: over seeded random schedules, a
// coroutine waiting through SpinWait::Until must behave exactly like the
// literal `while (!cond()) co_await sim.Delay(P);` loop it models — same
// wake ticks, same position among the events of each tick, hence the same
// order of every event of the run — while dispatching far fewer events.
//
// The one schedule the grid model leaves open (host/spin_wait.h) is an
// event scheduled exactly P before a skipped poll: whether the literal
// loop ran that poll before or after the scheduling event depends on
// where every skipped poll fell in its tick. The generator never uses a
// lead of exactly P for that reason; every other lead, P's multiples
// included, is fair game.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "vmmc/host/spin_wait.h"
#include "vmmc/mem/physical_memory.h"
#include "vmmc/sim/process.h"
#include "vmmc/sim/rng.h"
#include "vmmc/sim/simulator.h"

namespace vmmc::host {
namespace {

using sim::Tick;

constexpr mem::PhysAddr kWord = 0x1000;   // the watched word
constexpr mem::PhysAddr kNear = 0x1004;   // same page, not watched
constexpr mem::PhysAddr kOther = 0x3000;  // another page

enum class Act : std::uint8_t {
  kWriteMatch,    // stores the round's target into the watched word
  kWriteOther,    // stores a value no round waits for into it
  kWriteNear,     // stores next to it
  kNotify,        // bumps the owner's counter and calls Notify
  kNotifyIdle,    // calls Notify without changing anything
  kNoise,         // only logs
};

struct Action {
  Act act;
  Tick kick;  // offset from the round's start of the event scheduling it
  Tick lead;  // that event schedules the action `lead` ticks later
};

struct Round {
  Tick gap = 0;  // Delay before the round starts
  std::vector<Action> actions;
};

struct Plan {
  Tick period = 0;
  std::vector<Round> rounds;
  std::vector<Tick> noise;  // a free-running chain of logging events
};

// A lead other than P: below it, above it, or a multiple of it.
Tick DrawLead(sim::Rng& rng, Tick p) {
  switch (rng.UniformU64(4)) {
    case 0: return static_cast<Tick>(rng.UniformU64(static_cast<std::uint64_t>(p)));
    case 1: return p + 1 + static_cast<Tick>(rng.UniformU64(static_cast<std::uint64_t>(3 * p)));
    case 2: return p * static_cast<Tick>(2 + rng.UniformU64(4));
    default: return 0;
  }
}

Plan MakePlan(std::uint64_t seed) {
  sim::Rng rng(seed);
  static constexpr Tick kPeriods[] = {7, 100, 250, 1000};
  Plan plan;
  plan.period = kPeriods[rng.UniformU64(4)];
  const Tick p = plan.period;
  for (int r = 0; r < 40; ++r) {
    Round round;
    round.gap = rng.UniformU64(3) == 0
                    ? 0
                    : static_cast<Tick>(rng.UniformU64(static_cast<std::uint64_t>(4 * p)));
    const int n = 1 + static_cast<int>(rng.UniformU64(6));
    Tick last = 0;
    for (int i = 0; i < n; ++i) {
      Action a;
      a.act = static_cast<Act>(rng.UniformU64(6));
      a.lead = DrawLead(rng, p);
      // Land on a grid point of the round half of the time — in the
      // first period now and then, sometimes far out.
      const Tick k = rng.UniformU64(4) == 0
                         ? 1
                         : static_cast<Tick>(rng.UniformU64(rng.UniformU64(2) ? 4 : 60));
      Tick at = k * p;
      if (rng.UniformU64(2) == 0) {
        at += static_cast<Tick>(rng.UniformU64(static_cast<std::uint64_t>(p)));
      }
      a.kick = at >= a.lead ? at - a.lead : 0;
      last = std::max(last, a.kick + a.lead);
      round.actions.push_back(a);
    }
    // Every round ends: a final notification after its other actions (a
    // counter cannot be overwritten by a straggler of an earlier round).
    Action fin{Act::kNotify, 0, DrawLead(rng, p)};
    fin.kick = last + 1 + static_cast<Tick>(rng.UniformU64(static_cast<std::uint64_t>(2 * p)));
    round.actions.push_back(fin);
    plan.rounds.push_back(std::move(round));
  }
  for (int i = 0; i < 300; ++i) {
    Tick d = DrawLead(rng, p) + static_cast<Tick>(rng.UniformU64(3));
    if (d == p) ++d;
    plan.noise.push_back(d);
  }
  return plan;
}

struct Entry {
  Tick t;
  int what;
  int a;
  int b;
  bool operator==(const Entry&) const = default;
};

// Which schedule cases a run exercised (counted in spin mode).
struct Coverage {
  int on_grid_short_lead = 0;
  int on_grid_long_lead = 0;
  int first_period = 0;
  int non_matching = 0;
  int overwrite = 0;
  int notify = 0;
};

struct World {
  explicit World(const Plan& p, bool spin) : plan(p), use_spin(spin), wait(sim, p.period) {
    if (use_spin) wait.Watch(memory, kWord, 4);
  }

  std::uint32_t Word(mem::PhysAddr pa) const {
    std::uint8_t b[4] = {};
    (void)memory.Read(pa, b);
    return std::uint32_t{b[0]} | (std::uint32_t{b[1]} << 8) |
           (std::uint32_t{b[2]} << 16) | (std::uint32_t{b[3]} << 24);
  }
  void Store(mem::PhysAddr pa, std::uint32_t v) {
    const std::uint8_t b[4] = {static_cast<std::uint8_t>(v),
                               static_cast<std::uint8_t>(v >> 8),
                               static_cast<std::uint8_t>(v >> 16),
                               static_cast<std::uint8_t>(v >> 24)};
    (void)memory.Write(pa, b);
  }

  void Perform(int round, int idx, Tick t0, const Action& a) {
    const Tick p = plan.period;
    const Tick since = sim.now() - t0;
    if (since % p == 0 && since > 0) {
      (a.lead < p ? cover.on_grid_short_lead : cover.on_grid_long_lead)++;
    }
    if (since < p) ++cover.first_period;
    const std::uint32_t target = 2 * static_cast<std::uint32_t>(round) + 1;
    switch (a.act) {
      case Act::kWriteMatch:
        Store(kWord, target);
        break;
      case Act::kWriteOther:
        ++cover.non_matching;
        if (Word(kWord) % 2 == 1) ++cover.overwrite;
        Store(kWord, 2 * static_cast<std::uint32_t>(idx) + 2);
        break;
      case Act::kWriteNear:
        Store(kNear, target);
        break;
      case Act::kNotify:
        ++cover.notify;
        ++notified;
        if (use_spin) wait.Notify();
        break;
      case Act::kNotifyIdle:
        if (use_spin) wait.Notify();
        break;
      case Act::kNoise:
        break;
    }
    log.push_back({sim.now(), 1, round, idx});
  }

  sim::Process Waiter() {
    int notify_target = 0;
    for (int r = 0; r < static_cast<int>(plan.rounds.size()); ++r) {
      const Round& round = plan.rounds[r];
      if (round.gap > 0) co_await sim.Delay(round.gap);
      const Tick t0 = sim.now();
      for (int i = 0; i < static_cast<int>(round.actions.size()); ++i) {
        const Action a = round.actions[static_cast<std::size_t>(i)];
        if (a.act == Act::kNotify) ++notify_target;
        sim.In(a.kick, [this, r, i, t0, a] {
          sim.In(a.lead, [this, r, i, t0, a] { Perform(r, i, t0, a); });
        });
      }
      const std::uint32_t target = 2 * static_cast<std::uint32_t>(r) + 1;
      auto cond = [&] {
        return Word(kWord) == target || notified >= notify_target;
      };
      if (use_spin) {
        co_await wait.Until(cond);
      } else {
        while (!cond()) co_await sim.Delay(plan.period);
      }
      log.push_back({sim.now(), 2, r, 0});
      // Make the wake's place in its tick visible: a store and a logged
      // follow-up event scheduled from it.
      Store(kOther, target);
      sim.In(round.gap % 3, [this, r] { log.push_back({sim.now(), 3, r, 0}); });
    }
    done = true;
  }

  sim::Process Noise() {
    for (std::size_t i = 0; i < plan.noise.size(); ++i) {
      co_await sim.Delay(plan.noise[i]);
      log.push_back({sim.now(), 4, static_cast<int>(i), 0});
    }
  }

  void Run() {
    sim.Spawn(Noise());
    sim.Spawn(Waiter());
    sim.Run();
  }

  const Plan& plan;
  bool use_spin;
  sim::Simulator sim;
  mem::PhysicalMemory memory{64 * 1024, 0};
  SpinWait wait;
  int notified = 0;
  bool done = false;
  std::vector<Entry> log;
  Coverage cover;
};

TEST(SpinWaitTest, MatchesLiteralPollingLoopOnRandomSchedules) {
  Coverage total;
  std::uint64_t literal_events = 0;
  std::uint64_t spin_events = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE(seed);
    const Plan plan = MakePlan(seed);
    World literal(plan, false);
    literal.Run();
    World spin(plan, true);
    spin.Run();
    ASSERT_TRUE(literal.done);
    ASSERT_TRUE(spin.done);
    ASSERT_EQ(spin.log.size(), literal.log.size());
    for (std::size_t i = 0; i < literal.log.size(); ++i) {
      const Entry& want = literal.log[i];
      const Entry& got = spin.log[i];
      ASSERT_EQ(got, want) << "entry " << i << ": tick " << got.t << " vs "
                           << want.t << ", kind " << got.what << " vs "
                           << want.what << ", round " << got.a << " vs "
                           << want.a;
    }
    EXPECT_FALSE(spin.wait.waiting());
    literal_events += literal.sim.events_processed();
    spin_events += spin.sim.events_processed();
    total.on_grid_short_lead += spin.cover.on_grid_short_lead;
    total.on_grid_long_lead += spin.cover.on_grid_long_lead;
    total.first_period += spin.cover.first_period;
    total.non_matching += spin.cover.non_matching;
    total.overwrite += spin.cover.overwrite;
    total.notify += spin.cover.notify;
  }
  // Every case the same-tick rule distinguishes came up.
  EXPECT_GT(total.on_grid_short_lead, 100);
  EXPECT_GT(total.on_grid_long_lead, 100);
  EXPECT_GT(total.first_period, 100);
  EXPECT_GT(total.non_matching, 100);
  EXPECT_GT(total.overwrite, 10);
  EXPECT_GT(total.notify, 100);
  // And the empty polls are gone.
  EXPECT_LT(spin_events, literal_events);
}

sim::Process WaitFor(sim::Simulator& sim, SpinWait& wait, mem::PhysicalMemory& m,
                     std::uint32_t want, Tick& woke) {
  co_await wait.Until([&] {
    std::uint8_t b[4];
    (void)m.Read(kWord, b);
    return b[0] == want;
  });
  woke = sim.now();
}

TEST(SpinWaitTest, SameTickWriteSeenOnlyIfScheduledBeforeThePoll) {
  // P = 100, check at 0. A write landing at 300 (a skipped poll) is seen
  // there if it was scheduled before 200, and at 400 otherwise.
  for (const Tick sched : {Tick{150}, Tick{199}, Tick{201}, Tick{250}}) {
    SCOPED_TRACE(sched);
    sim::Simulator sim;
    mem::PhysicalMemory m(16 * 1024, 0);
    SpinWait wait(sim, 100);
    wait.Watch(m, kWord, 4);
    Tick woke = -1;
    sim.Spawn(WaitFor(sim, wait, m, 7, woke));
    sim.At(sched, [&] {
      sim.At(300, [&] {
        const std::uint8_t v[4] = {7, 0, 0, 0};
        (void)m.Write(kWord, v);
      });
    });
    sim.Run();
    EXPECT_EQ(woke, sched < 200 ? 300 : 400);
  }
}

TEST(SpinWaitTest, WriteOnFirstPollComparesWithTheCheck) {
  // Landing on the first poll (100): seen there only if scheduled before
  // the check at 0 reserved its seq.
  for (const bool before : {true, false}) {
    SCOPED_TRACE(before);
    sim::Simulator sim;
    mem::PhysicalMemory m(16 * 1024, 0);
    SpinWait wait(sim, 100);
    wait.Watch(m, kWord, 4);
    Tick woke = -1;
    auto write = [&] {
      sim.At(100, [&] {
        const std::uint8_t v[4] = {7, 0, 0, 0};
        (void)m.Write(kWord, v);
      });
    };
    if (before) write();
    sim.Spawn(WaitFor(sim, wait, m, 7, woke));
    if (!before) sim.At(0, write);
    sim.Run();
    EXPECT_EQ(woke, before ? 100 : 200);
  }
}

TEST(SpinWaitTest, UnwatchedWritesDoNotWake) {
  sim::Simulator sim;
  mem::PhysicalMemory m(16 * 1024, 0);
  SpinWait wait(sim, 100);
  wait.Watch(m, kWord, 4);
  Tick woke = -1;
  sim.Spawn(WaitFor(sim, wait, m, 7, woke));
  for (Tick t = 10; t < 10'000; t += 10) {
    sim.At(t, [&] {
      const std::uint8_t v[4] = {7, 0, 0, 0};
      (void)m.Write(kNear, v);
    });
  }
  sim.At(20'050, [&] {
    const std::uint8_t v[4] = {7, 0, 0, 0};
    (void)m.Write(kWord, v);
  });
  const std::uint64_t before = sim.events_processed();
  sim.Run();
  EXPECT_EQ(woke, 20'100);
  // The start, 999 stores next to the word, the write, one wake.
  EXPECT_EQ(sim.events_processed() - before, 1u + 999u + 1u + 1u);
}

}  // namespace
}  // namespace vmmc::host
