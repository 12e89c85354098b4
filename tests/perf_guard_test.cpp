// Allocation and copy guards for the event-engine hot paths.
//
// This binary overrides the global operator new/delete with counting hooks
// and asserts the structural performance properties the engine promises:
//  * a warmed Simulator schedules and dispatches events with ZERO heap
//    allocations (node pool + InlineFn inline storage),
//  * coroutine resumption (the dominant event kind) is allocation-free,
//  * packet payloads are written once at the source and travel the fabric
//    by reference — the delivered bytes live at the same address they were
//    produced at — with copy-on-write kicking in exactly once when a fault
//    flips a bit,
//  * the LCP steady-state send path serves every payload from the Buffer
//    pool (no heap growth) and never deep-copies into the retx-pool.
//
// It lives in its own test binary because the operator new override is
// global to the process.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "co_test_util.h"
#include "vmmc/host/spin_wait.h"
#include "vmmc/mem/physical_memory.h"
#include "vmmc/myrinet/fabric.h"
#include "vmmc/params.h"
#include "vmmc/sim/fault.h"
#include "vmmc/sim/process.h"
#include "vmmc/sim/simulator.h"
#include "vmmc/util/buffer.h"
#include "vmmc/vmmc/cluster.h"

// --- Global allocation counter --------------------------------------------

namespace {
std::uint64_t g_new_calls = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_new_calls;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  ++g_new_calls;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace vmmc {
namespace {

using myrinet::Fabric;
using myrinet::Packet;
using myrinet::TopologyPlan;
using sim::FaultPlan;
using sim::LinkFaultRule;
using sim::Simulator;
using sim::Tick;
using util::Buffer;

Buffer::PoolStats PoolDelta(const Buffer::PoolStats& before) {
  const Buffer::PoolStats& now = Buffer::pool_stats();
  Buffer::PoolStats d;
  d.allocs = now.allocs - before.allocs;
  d.pool_hits = now.pool_hits - before.pool_hits;
  d.heap_allocs = now.heap_allocs - before.heap_allocs;
  d.unshares = now.unshares - before.unshares;
  return d;
}

// --- Engine paths: strict zero-allocation ---------------------------------

TEST(PerfGuardTest, WarmedAtLoopIsAllocationFree) {
  Simulator sim;
  constexpr int kEvents = 20000;
  // Warm-up round populates the node pool (and any lazily-grown internal
  // storage); every node it used is on the free list afterwards.
  for (int i = 0; i < kEvents; ++i) sim.At(sim.now() + i, [] {});
  sim.Run();

  const std::uint64_t before = g_new_calls;
  for (int i = 0; i < kEvents; ++i) sim.At(sim.now() + i, [] {});
  sim.Run();
  EXPECT_EQ(g_new_calls - before, 0u)
      << "warmed At/dispatch loop must not touch the heap";
  EXPECT_EQ(sim.events_processed(), 2u * kEvents);
}

sim::Process DelayChain(Simulator& sim, int hops, int& done) {
  for (int i = 0; i < hops; ++i) co_await sim.Delay(1);
  done = 1;
}

TEST(PerfGuardTest, WarmedResumeChainIsAllocationFree) {
  Simulator sim;
  constexpr int kHops = 20000;
  int done = 0;
  sim.Spawn(DelayChain(sim, kHops, done));  // frame allocates here, once
  // Warm: run the first quarter of the chain, then measure the rest. Every
  // remaining event is a Simulator::Resume wake-up recycling one node.
  ASSERT_TRUE(
      sim.RunUntil([&] { return sim.events_processed() >= kHops / 4; }));

  const std::uint64_t before = g_new_calls;
  sim.RunUntil([&] { return done == 1; });
  EXPECT_EQ(g_new_calls - before, 0u)
      << "warmed coroutine resume path must not touch the heap";
  ASSERT_EQ(done, 1);
}

// --- Host spin-waits: a warmed wait is allocation-free ---------------------

constexpr mem::PhysAddr kSpinWord = 0x1000;

std::uint8_t SpinWordValue(const mem::PhysicalMemory& m) {
  std::uint8_t b[4];
  (void)m.Read(kSpinWord, b);
  return b[0];
}

sim::Process SpinWaiter(host::SpinWait& wait, const mem::PhysicalMemory& m,
                        int rounds, int& progress) {
  for (int i = 1; i <= rounds; ++i) {
    const auto want = static_cast<std::uint8_t>(i);
    co_await wait.Until([&] { return SpinWordValue(m) == want; });
    progress = i;
  }
}

sim::Process SpinWriter(Simulator& sim, mem::PhysicalMemory& m, int rounds) {
  for (int i = 1; i <= rounds; ++i) {
    co_await sim.Delay(1017);  // several empty polls, then a mid-period write
    const std::uint8_t other[4] = {0xEE, 0, 0, 0};
    (void)m.Write(kSpinWord, other);  // a wake that finds nothing
    co_await sim.Delay(333);
    const std::uint8_t v[4] = {static_cast<std::uint8_t>(i), 0, 0, 0};
    (void)m.Write(kSpinWord, v);
  }
}

TEST(PerfGuardTest, WarmedSpinWaitIsAllocationFree) {
  Simulator sim;
  mem::PhysicalMemory memory(16 * 1024, 0);
  host::SpinWait wait(sim, 250);
  wait.Watch(memory, kSpinWord, 4);  // set up once, armed per wait
  constexpr int kRounds = 2000;
  int progress = 0;
  sim.Spawn(SpinWaiter(wait, memory, kRounds, progress));  // frames: once
  sim.Spawn(SpinWriter(sim, memory, kRounds));
  ASSERT_TRUE(sim.RunUntil([&] { return progress >= kRounds / 4; }));

  // Every remaining wait arms the watch, sleeps through empty polls, is
  // woken by a store (a DMA write takes the same path) and re-arms or
  // resumes — all through the intrusive watch list and pooled nodes.
  const std::uint64_t before = g_new_calls;
  sim.RunUntil([&] { return progress == kRounds; });
  EXPECT_EQ(g_new_calls - before, 0u)
      << "warmed spin-wait path must not touch the heap";
  ASSERT_EQ(progress, kRounds);
}

// --- Fabric: payloads travel by reference ---------------------------------

// Endpoint that records where each delivered payload's bytes live. Storage
// is reserved up front so recording never allocates during measurement.
class PtrSink : public myrinet::Endpoint {
 public:
  PtrSink() { ptrs_.reserve(128); }
  void OnPacket(Packet packet, Tick, myrinet::Link*) override {
    ptrs_.push_back(packet.payload.data());
    last_payload_ = std::move(packet.payload);
  }
  const std::vector<const std::uint8_t*>& ptrs() const { return ptrs_; }
  const Buffer& last_payload() const { return last_payload_; }

 private:
  std::vector<const std::uint8_t*> ptrs_;
  Buffer last_payload_;
};

struct ChainFixture {
  Simulator sim;
  Params params;
  Fabric fabric{sim, params.net};
  PtrSink a, b;
  int na = -1, nb = -1;
  myrinet::Route route;

  ChainFixture() {
    TopologyPlan plan =
        BuildSwitchChain(fabric, /*num_switches=*/3, /*per_switch=*/2);
    na = fabric.AddNic(&a);
    nb = fabric.AddNic(&b);
    // First slot on the first switch, last slot on the last switch: the
    // route traverses all three switches.
    const auto& first = plan.nic_slots.front();
    const auto& last = plan.nic_slots.back();
    EXPECT_TRUE(fabric.ConnectNic(na, first.switch_id, first.port).ok());
    EXPECT_TRUE(fabric.ConnectNic(nb, last.switch_id, last.port).ok());
    auto r = fabric.ComputeRoute(na, nb);
    EXPECT_TRUE(r.ok());
    route = r.value();
    EXPECT_EQ(route.size(), 3u);
  }

  Packet MakePacket(std::uint8_t fill) const {
    Packet p;
    p.route = route;
    p.payload.assign(1024, fill);
    p.StampCrc();
    return p;
  }
};

TEST(PerfGuardTest, FabricForwardingIsZeroCopyAcrossSwitchHops) {
  constexpr int kPackets = 32;
  ChainFixture fx;
  // Warm: node pool, switch port queues, payload pool. The payload pool
  // must hold kPackets blocks of the payload's size class, since the
  // measured packets are all built (and alive) before injection.
  {
    std::vector<Packet> warm_pool;
    // +2: the sink's last_payload_ keeps one block referenced across the
    // warm-up deliveries.
    for (int i = 0; i < kPackets + 2; ++i) warm_pool.push_back(fx.MakePacket(0));
  }
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(fx.fabric.Inject(fx.na, fx.MakePacket(0x11)).ok());
  }
  fx.sim.Run();
  ASSERT_EQ(fx.b.ptrs().size(), 8u);

  // Pre-build the measured packets (payload blocks come from the warmed
  // pool; route vectors allocate here, before the measurement window).
  std::vector<Packet> packets;
  packets.reserve(kPackets);
  std::vector<const std::uint8_t*> sources;
  sources.reserve(kPackets);
  const Buffer::PoolStats pool_before = Buffer::pool_stats();
  for (int i = 0; i < kPackets; ++i) {
    packets.push_back(fx.MakePacket(static_cast<std::uint8_t>(i)));
    sources.push_back(packets.back().payload.data());
  }
  EXPECT_EQ(PoolDelta(pool_before).heap_allocs, 0u)
      << "payloads must be served from the warmed pool";

  const std::uint64_t new_before = g_new_calls;
  const std::uint64_t events_before = fx.sim.events_processed();
  for (auto& p : packets) {
    ASSERT_TRUE(fx.fabric.Inject(fx.na, std::move(p)).ok());
  }
  fx.sim.Run();
  const std::uint64_t new_delta = g_new_calls - new_before;
  const std::uint64_t events_delta = fx.sim.events_processed() - events_before;

  ASSERT_EQ(fx.b.ptrs().size(), 8u + kPackets);
  // Zero-copy proof: the delivered bytes live exactly where the source
  // wrote them, after three switch traversals and four link transmissions.
  for (int i = 0; i < kPackets; ++i) {
    EXPECT_EQ(fx.b.ptrs()[8 + static_cast<std::size_t>(i)],
              sources[static_cast<std::size_t>(i)])
        << "packet " << i << " was deep-copied in flight";
  }
  EXPECT_EQ(PoolDelta(pool_before).unshares, 0u);
  // The forwarding itself is allocation-free per event and per hop; the
  // only permitted churn is the switch port queues' std::deque chunk
  // management, amortized across many packets. Strictly below one
  // allocation per packet, let alone per hop or per event.
  EXPECT_LT(new_delta, static_cast<std::uint64_t>(kPackets) / 2)
      << "forwarding allocated on the per-packet path";
  EXPECT_GT(events_delta, static_cast<std::uint64_t>(kPackets) * 8)
      << "sanity: the run did real per-hop work";
}

TEST(PerfGuardTest, FaultBitflipCopiesOnWriteExactlyOnce) {
  ChainFixture fx;
  LinkFaultRule rule;
  rule.bitflip_rate = 1.0;  // flip a bit on every link transmission
  fx.sim.faults().Configure(FaultPlan::AllLinks(rule, /*seed=*/7));

  Packet p = fx.MakePacket(0x5A);
  const Buffer retained = p.payload;  // models the sender's retx-pool slot
  const Buffer::PoolStats before = Buffer::pool_stats();
  ASSERT_TRUE(fx.fabric.Inject(fx.na, std::move(p)).ok());
  fx.sim.Run();

  ASSERT_EQ(fx.b.ptrs().size(), 1u);
  // The first flip un-shares the in-flight payload from the retained
  // copy; the flips on the remaining links mutate the now-unique block in
  // place. Exactly one deep copy for four faulted link hops.
  EXPECT_EQ(PoolDelta(before).unshares, 1u);
  EXPECT_NE(fx.b.ptrs()[0], retained.data());
  EXPECT_FALSE(fx.b.last_payload() == retained)
      << "payload arrived unflipped despite bitflip_rate=1";
  // The retained copy is untouched — the property that keeps go-back-N
  // retransmissions correct under fault injection.
  for (std::size_t i = 0; i < retained.size(); ++i) {
    ASSERT_EQ(retained[i], 0x5A) << "retx copy corrupted at byte " << i;
  }
}

// --- LCP steady state: pooled payloads, no retx deep copies ----------------

TEST(PerfGuardTest, LcpSteadyStateServesPayloadsFromPool) {
  sim::Simulator sim;
  Params params;
  vmmc_core::ClusterOptions options;
  options.num_nodes = 2;
  vmmc_core::Cluster cluster(sim, params, options);
  ASSERT_TRUE(cluster.Boot().ok());
  auto recv = cluster.OpenEndpoint(1, "r");
  auto send = cluster.OpenEndpoint(0, "s");
  ASSERT_TRUE(recv.ok() && send.ok());

  constexpr std::uint32_t kLen = 4096;
  constexpr int kWarm = 16;
  constexpr int kMeasured = 16;
  Buffer::PoolStats warmed{};
  int sent = 0;
  bool done = false;
  auto prog = [&]() -> sim::Process {
    auto buf = recv.value()->AllocBuffer(64 * 1024);
    CO_ASSERT_TRUE(buf.ok());
    vmmc_core::ExportOptions opts;
    opts.name = "guard";
    auto id =
        co_await recv.value()->ExportBuffer(buf.value(), 64 * 1024, std::move(opts));
    CO_ASSERT_TRUE(id.ok());
    vmmc_core::ImportOptions wait;
    wait.wait = true;
    auto imp = co_await send.value()->ImportBuffer(1, "guard", wait);
    CO_ASSERT_TRUE(imp.ok());
    auto src = send.value()->AllocBuffer(kLen);
    CO_ASSERT_TRUE(src.ok());
    std::vector<std::uint8_t> payload(kLen, 0xA5);
    CO_ASSERT_TRUE(send.value()->WriteBuffer(src.value(), payload).ok());
    for (int i = 0; i < kWarm + kMeasured; ++i) {
      if (i == kWarm) warmed = Buffer::pool_stats();
      Status s = co_await send.value()->SendMsg(src.value(),
                                                imp.value().proxy_base, kLen);
      CO_ASSERT_TRUE(s.ok());
      ++sent;
    }
    done = true;
  };
  sim.Spawn(prog());
  ASSERT_TRUE(sim.RunUntil([&] { return done; }, 2'000'000'000));
  ASSERT_EQ(sent, kWarm + kMeasured);

  const Buffer::PoolStats d = PoolDelta(warmed);
  // Steady state: every chunk payload, ACK and short-send frame is served
  // from the warmed size-class pool...
  EXPECT_GT(d.allocs, static_cast<std::uint64_t>(kMeasured));
  EXPECT_EQ(d.heap_allocs, 0u) << "steady-state send path grew the heap";
  // ...and nothing deep-copies: hand-offs into the retx-pool and across
  // hops are ref bumps (no faults are configured, so no COW either).
  EXPECT_EQ(d.unshares, 0u) << "steady-state send path deep-copied a payload";
}

// --- Registration cache: warm hit/release path is allocation-free ----------

TEST(PerfGuardTest, RegCacheWarmHitAndReleaseAreAllocationFree) {
  sim::Simulator sim;
  Params params;
  vmmc_core::ClusterOptions options;
  options.num_nodes = 2;
  vmmc_core::Cluster cluster(sim, params, options);
  ASSERT_TRUE(cluster.Boot().ok());
  auto ep = cluster.OpenEndpoint(0, "rc");
  ASSERT_TRUE(ep.ok());
  vmmc_core::RegCache& rc = ep.value()->reg_cache();

  auto va = ep.value()->AllocBuffer(64 * 1024);
  ASSERT_TRUE(va.ok());
  // Warm: the cold miss allocates the entry, its frame vector and the map
  // slots; afterwards the registration sits idle in the cache.
  auto cold = rc.Acquire(va.value(), 64 * 1024, vmmc_core::RegIntent::kRecv);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(rc.Release(cold.value().region.cache_id).ok());

  const std::uint64_t before = g_new_calls;
  for (int i = 0; i < 1000; ++i) {
    auto warm = rc.Acquire(va.value(), 64 * 1024, vmmc_core::RegIntent::kRecv);
    ASSERT_TRUE(warm.ok());
    ASSERT_TRUE(warm.value().hit);
    ASSERT_TRUE(rc.Release(warm.value().region.cache_id).ok());
  }
  // The property reg_cache.h promises: the hit and release paths are
  // allocation-free (hash probe + intrusive LRU splice), so steady-state
  // rendezvous transfers do zero pin work and zero heap work.
  EXPECT_EQ(g_new_calls - before, 0u)
      << "warm Acquire/Release must not touch the heap";
  EXPECT_EQ(rc.hits(), 1000u);
}

}  // namespace
}  // namespace vmmc
