// Collectives at multi-switch scale: the paper's 4-node testbed grown to
// 8-16 nodes on ring and fat-tree fabrics. Verifies the whole stack —
// boot-time network mapping over multi-hop routes, lazy link setup, the
// ring allreduce — and that a run is bitwise deterministic (same seed =>
// identical simulated end time and fabric counters).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "co_test_util.h"
#include "vmmc/coll/communicator.h"
#include "vmmc/myrinet/topology.h"

namespace vmmc::coll {
namespace {

using vmmc_core::Cluster;
using vmmc_core::ClusterOptions;

struct RunResult {
  sim::Tick end_time = 0;
  std::uint64_t events = 0;
  std::uint64_t link_packets = 0;
  sim::Tick queue_wait = 0;
  std::uint64_t hol_stalls = 0;
  std::vector<std::int64_t> values;

  bool operator==(const RunResult&) const = default;
};

// Boots `options`, creates one lazy-link communicator per rank, runs one
// allreduce over an n-element int64 vector (the algorithm follows from
// the vector size — see Communicator::SelectAllReduce; indivisible or
// oversized n exercises the fallbacks), and fingerprints the run.
RunResult RunAllReduce(const ClusterOptions& options, std::size_t n) {
  RunResult out;
  sim::Simulator sim;
  Params params;
  Cluster cluster(sim, params, options);
  EXPECT_TRUE(cluster.Boot().ok());
  const int size = options.num_nodes;

  std::vector<std::unique_ptr<Communicator>> comms(
      static_cast<std::size_t>(size));
  int created = 0;
  auto create = [&cluster, &comms, &created, size](int r) -> sim::Process {
    CommOptions copts;
    copts.lazy_links = true;
    auto c = co_await Communicator::Create(cluster, r, size, "world", copts);
    CO_ASSERT_TRUE(c.ok());
    comms[static_cast<std::size_t>(r)] = std::move(c).value();
    ++created;
  };
  for (int r = 0; r < size; ++r) sim.Spawn(create(r));
  EXPECT_TRUE(sim.RunUntil([&] { return created == size; }, 10'000'000'000ll));

  int finished = 0;
  std::vector<std::int64_t> rank0;  // rank 0's result, for verification
  auto run = [&comms, &finished, &rank0, n, size](int r) -> sim::Process {
    std::vector<std::int64_t> values(n);
    for (std::size_t i = 0; i < values.size(); ++i) {
      values[i] = static_cast<std::int64_t>(i % 7) + r;
    }
    Status s = co_await comms[static_cast<std::size_t>(r)]->AllReduceSum(values);
    CO_ASSERT_TRUE(s.ok());
    if (r == 0) rank0 = std::move(values);
    ++finished;
  };
  for (int r = 0; r < size; ++r) sim.Spawn(run(r));
  EXPECT_TRUE(sim.RunUntil([&] { return finished == size; }, 60'000'000'000ll));

  out.end_time = sim.now();
  out.events = sim.events_processed();
  out.link_packets = cluster.fabric().total_link_packets();
  out.queue_wait = cluster.fabric().total_queue_wait();
  out.hol_stalls = cluster.fabric().total_hol_stalls();
  out.values = std::move(rank0);
  return out;
}

// The allreduce of values[i] = (i % 7) + r over ranks r = 0..size-1.
std::vector<std::int64_t> ExpectedSum(int size, std::size_t n) {
  // Sum over r of ((i % 7) + r) = size * (i % 7) + size*(size-1)/2.
  const std::int64_t rank_part =
      static_cast<std::int64_t>(size) * (size - 1) / 2;
  std::vector<std::int64_t> want(n);
  for (std::size_t i = 0; i < n; ++i) {
    want[i] = static_cast<std::int64_t>(size) *
                  static_cast<std::int64_t>(i % 7) +
              rank_part;
  }
  return want;
}

TEST(CollScaleTest, SixteenNodeFatTreeRingAllReduce) {
  auto options = ClusterOptions::FromSpec("fattree:16@8");
  ASSERT_TRUE(options.ok());
  const RunResult r = RunAllReduce(options.value(), 512);
  EXPECT_EQ(r.values, ExpectedSum(16, 512));
  EXPECT_GT(r.link_packets, 0u);
  // Exact event-count golden: the three-tier queue must dispatch the
  // byte-identical schedule the pre-rework priority queue did. Any change
  // in event order, count or timing shows up here immediately. (Update
  // only for deliberate model changes, together with EXPERIMENTS.md.)
  // Host spin-waits (host/spin_wait.h) stopped dispatching one event per
  // empty poll: 559940 -> 55761 events (10.0x fewer), while end_time and
  // link_packets stayed exactly the literal polling loop's.
  EXPECT_EQ(r.events, 55761u);
  EXPECT_EQ(r.end_time, 18021144);
  EXPECT_EQ(r.link_packets, 7415u);
}

TEST(CollScaleTest, EightNodeRingAllReduce) {
  auto options = ClusterOptions::FromSpec("ring:8@4");
  ASSERT_TRUE(options.ok());
  // 512 int64 = 4 KB: above the eager crossover, so this stays on the
  // bandwidth-bound ring algorithm.
  const RunResult r = RunAllReduce(options.value(), 512);
  EXPECT_EQ(r.values, ExpectedSum(8, 512));
  // Exact event-count golden (see the fat-tree test above); the
  // spin-waits took it from 148457 to 18841 (7.9x fewer).
  EXPECT_EQ(r.events, 18841u);
  EXPECT_EQ(r.end_time, 9268151);
}

TEST(CollScaleTest, FatTreeRunsAreDeterministic) {
  auto options = ClusterOptions::FromSpec("fattree:16@8");
  ASSERT_TRUE(options.ok());
  const RunResult a = RunAllReduce(options.value(), 512);
  const RunResult b = RunAllReduce(options.value(), 512);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_TRUE(a == b) << "same seed must reproduce times and counters";
}

TEST(CollScaleTest, RingRunsAreDeterministic) {
  auto options = ClusterOptions::FromSpec("ring:8@4");
  ASSERT_TRUE(options.ok());
  const RunResult a = RunAllReduce(options.value(), 256);
  const RunResult b = RunAllReduce(options.value(), 256);
  EXPECT_TRUE(a == b);
}

TEST(CollScaleTest, LazyLinksOnlyTouchRingNeighbours) {
  auto options = ClusterOptions::FromSpec("fattree:16@8");
  ASSERT_TRUE(options.ok());
  sim::Simulator sim;
  Params params;
  Cluster cluster(sim, params, options.value());
  ASSERT_TRUE(cluster.Boot().ok());

  std::vector<std::unique_ptr<Communicator>> comms(16);
  int created = 0;
  auto create = [&](int r) -> sim::Process {
    CommOptions copts;
    copts.lazy_links = true;
    auto c = co_await Communicator::Create(cluster, r, 16, "world", copts);
    CO_ASSERT_TRUE(c.ok());
    comms[static_cast<std::size_t>(r)] = std::move(c).value();
    ++created;
  };
  for (int r = 0; r < 16; ++r) sim.Spawn(create(r));
  ASSERT_TRUE(sim.RunUntil([&] { return created == 16; }, 10'000'000'000ll));
  for (const auto& c : comms) EXPECT_EQ(c->links_established(), 0);

  int finished = 0;
  auto run = [&](int r) -> sim::Process {
    // 1024 * 8 bytes: large enough for the ring algorithm.
    std::vector<std::int64_t> values(1024, r);
    Status s = co_await comms[static_cast<std::size_t>(r)]->AllReduceSum(values);
    CO_ASSERT_TRUE(s.ok());
    ++finished;
  };
  for (int r = 0; r < 16; ++r) sim.Spawn(run(r));
  ASSERT_TRUE(sim.RunUntil([&] { return finished == 16; }, 60'000'000'000ll));
  // A ring allreduce touches exactly the two neighbours, not all 15 peers.
  for (const auto& c : comms) EXPECT_EQ(c->links_established(), 2);

  // A small allreduce on the same communicators switches to recursive
  // doubling: partners r^1, r^2, r^4, r^8. r^1 is always a ring
  // neighbour, so exactly three channels are added on top of the two
  // ring links.
  finished = 0;
  auto run_small = [&](int r) -> sim::Process {
    std::vector<std::int64_t> values(16, r);
    Status s = co_await comms[static_cast<std::size_t>(r)]->AllReduceSum(values);
    CO_ASSERT_TRUE(s.ok());
    ++finished;
  };
  for (int r = 0; r < 16; ++r) sim.Spawn(run_small(r));
  ASSERT_TRUE(sim.RunUntil([&] { return finished == 16; }, 60'000'000'000ll));
  for (const auto& c : comms) EXPECT_EQ(c->links_established(), 5);
}

using Algo = Communicator::AllReduceAlgo;

// SelectAllReduce is a pure function of vector size, world size and the
// eager threshold; pin the whole decision table down on one cluster.
TEST(CollScaleTest, AlgorithmSelectionFollowsSizeAndShape) {
  sim::Simulator sim;
  Params params;
  ClusterOptions options;
  options.num_nodes = 4;
  Cluster cluster(sim, params, options);
  ASSERT_TRUE(cluster.Boot().ok());
  // The boundary element count: one eager message of int64.
  const std::size_t small = params.vmmc.p2p.eager_max / 8;

  // Worlds of size 4 (power of two), 3 (not) and 1, under separate tags.
  std::vector<std::unique_ptr<Communicator>> four(4), three(3), one(1);
  int created = 0;
  auto create = [&](std::vector<std::unique_ptr<Communicator>>& comms,
                    std::string tag, int r) -> sim::Process {
    CommOptions copts;
    copts.lazy_links = true;
    auto c = co_await Communicator::Create(
        cluster, r, static_cast<int>(comms.size()), std::move(tag), copts);
    CO_ASSERT_TRUE(c.ok());
    comms[static_cast<std::size_t>(r)] = std::move(c).value();
    ++created;
  };
  for (int r = 0; r < 4; ++r) sim.Spawn(create(four, "w4", r));
  for (int r = 0; r < 3; ++r) sim.Spawn(create(three, "w3", r));
  sim.Spawn(create(one, "w1", 0));
  ASSERT_TRUE(sim.RunUntil([&] { return created == 8; }, 10'000'000'000ll));

  // A lone rank never communicates, whatever the size.
  EXPECT_EQ(one[0]->SelectAllReduce(1), Algo::kSingle);
  EXPECT_EQ(one[0]->SelectAllReduce(1 << 20), Algo::kSingle);

  // At or under one eager message: latency-bound, log-round algorithms —
  // recursive doubling on power-of-two worlds, binomial tree otherwise.
  EXPECT_EQ(four[0]->SelectAllReduce(1), Algo::kRecursiveDoubling);
  EXPECT_EQ(four[0]->SelectAllReduce(small), Algo::kRecursiveDoubling);
  EXPECT_EQ(three[0]->SelectAllReduce(small), Algo::kBinomialTree);

  // One element past the threshold: bandwidth-bound. The ring needs the
  // count divisible by the world size with chunks that fit one message.
  EXPECT_EQ(four[0]->SelectAllReduce(small + 8), Algo::kRing);  // 64 | 4
  EXPECT_EQ(four[0]->SelectAllReduce(small + 1), Algo::kGatherBroadcast);
  EXPECT_EQ(three[0]->SelectAllReduce(900), Algo::kRing);
  EXPECT_EQ(three[0]->SelectAllReduce(901), Algo::kGatherBroadcast);
  // Divisible, but the per-rank chunk would exceed kMaxMessage.
  const std::size_t chunk_limit = Communicator::kMaxMessage / 8;  // elements
  EXPECT_EQ(four[0]->SelectAllReduce(4 * chunk_limit), Algo::kRing);
  EXPECT_EQ(four[0]->SelectAllReduce(4 * (chunk_limit + 1)),
            Algo::kGatherBroadcast);
}

TEST(CollScaleTest, SixteenNodeIndivisibleFallsBackToGatherBroadcast) {
  auto options = ClusterOptions::FromSpec("fattree:16@8");
  ASSERT_TRUE(options.ok());
  // 520 int64 = 4160 bytes, not divisible by 16: the ring is out, the
  // gather+broadcast fallback must still produce the exact sums.
  const RunResult r = RunAllReduce(options.value(), 520);
  EXPECT_EQ(r.values, ExpectedSum(16, 520));
  EXPECT_GT(r.link_packets, 0u);
}

TEST(CollScaleTest, SixtyFourNodeIndivisibleAllReduce) {
  auto options = ClusterOptions::FromSpec("fattree:64@16");
  ASSERT_TRUE(options.ok());
  // 67 elements: above the eager threshold and coprime with 64, so this
  // lands on gather+broadcast at the full 64-node scale.
  const RunResult r = RunAllReduce(options.value(), 67);
  EXPECT_EQ(r.values, ExpectedSum(64, 67));
}

TEST(CollScaleTest, NonPowerOfTwoWorldSmallVectorUsesBinomialTree) {
  auto options = ClusterOptions::FromSpec("ring:6@4");
  ASSERT_TRUE(options.ok());
  // 8 int64 = 64 bytes on a 6-rank world: small but not power-of-two, so
  // recursive doubling is out and the binomial tree handles it.
  const RunResult r = RunAllReduce(options.value(), 8);
  EXPECT_EQ(r.values, ExpectedSum(6, 8));
}

}  // namespace
}  // namespace vmmc::coll
