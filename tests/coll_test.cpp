// Tests for the collectives library built on VMMC: point-to-point links,
// barrier, broadcast, gather, all-reduce (ring and fallback paths).
#include <gtest/gtest.h>

#include <numeric>

#include "co_test_util.h"
#include "vmmc/coll/communicator.h"

namespace vmmc::coll {
namespace {

using vmmc_core::Cluster;
using vmmc_core::ClusterOptions;

class CollTest : public ::testing::Test {
 protected:
  void Boot(int nodes) {
    ClusterOptions options;
    options.num_nodes = nodes;
    cluster_ = std::make_unique<Cluster>(sim_, params_, options);
    ASSERT_TRUE(cluster_->Boot().ok());
  }

  // Creates one communicator per rank (spawned concurrently, as real ranks
  // would start).
  void CreateWorld(int size) {
    comms_.resize(static_cast<std::size_t>(size));
    int created = 0;
    // NOTE: rank is a coroutine *parameter* (copied into the frame); the
    // lambda object itself must outlive all spawned coroutines.
    auto create = [this, size, &created](int r) -> sim::Process {
      auto c = co_await Communicator::Create(*cluster_, r, size);
      CO_ASSERT_TRUE(c.ok());
      comms_[static_cast<std::size_t>(r)] = std::move(c).value();
      ++created;
    };
    for (int r = 0; r < size; ++r) sim_.Spawn(create(r));
    ASSERT_TRUE(sim_.RunUntil([&] { return created == size; }, 200'000'000));
  }

  sim::Simulator sim_;
  Params params_;
  std::unique_ptr<Cluster> cluster_;
  std::vector<std::unique_ptr<Communicator>> comms_;
};

TEST_F(CollTest, PointToPointRoundTrip) {
  Boot(2);
  CreateWorld(2);
  bool done = false;
  auto rank0 = [&]() -> sim::Process {
    std::vector<std::uint8_t> msg = {1, 2, 3};
    Status s = co_await comms_[0]->SendTo(1, msg);
    CO_ASSERT_TRUE(s.ok());
    std::vector<std::uint8_t> got;
    Status r = co_await comms_[0]->RecvFrom(1, got);
    CO_ASSERT_TRUE(r.ok());
    EXPECT_EQ(got, (std::vector<std::uint8_t>{4, 5, 6, 7}));
    done = true;
  };
  auto rank1 = [&]() -> sim::Process {
    std::vector<std::uint8_t> got;
    Status r = co_await comms_[1]->RecvFrom(0, got);
    CO_ASSERT_TRUE(r.ok());
    EXPECT_EQ(got, (std::vector<std::uint8_t>{1, 2, 3}));
    std::vector<std::uint8_t> reply = {4, 5, 6, 7};
    Status s = co_await comms_[1]->SendTo(0, reply);
    CO_ASSERT_TRUE(s.ok());
  };
  sim_.Spawn(rank0());
  sim_.Spawn(rank1());
  ASSERT_TRUE(sim_.RunUntil([&] { return done; }, 100'000'000));
}

TEST_F(CollTest, BackToBackMessagesRespectCredits) {
  Boot(2);
  CreateWorld(2);
  bool done = false;
  const int kMsgs = 20;
  auto sender = [&]() -> sim::Process {
    for (int i = 0; i < kMsgs; ++i) {
      std::vector<std::uint8_t> msg(100, static_cast<std::uint8_t>(i));
      Status s = co_await comms_[0]->SendTo(1, msg);
      CO_ASSERT_TRUE(s.ok());
    }
  };
  auto receiver = [&]() -> sim::Process {
    std::vector<std::uint8_t> got;
    for (int i = 0; i < kMsgs; ++i) {
      Status r = co_await comms_[1]->RecvFrom(0, got);
      CO_ASSERT_TRUE(r.ok());
      EXPECT_EQ(got[0], static_cast<std::uint8_t>(i)) << "order violated";
    }
    done = true;
  };
  sim_.Spawn(sender());
  sim_.Spawn(receiver());
  ASSERT_TRUE(sim_.RunUntil([&] { return done; }, 200'000'000));
}

class CollSizeTest : public CollTest, public ::testing::WithParamInterface<int> {};

TEST_P(CollSizeTest, BarrierSynchronizesAllRanks) {
  const int size = GetParam();
  Boot(size);
  CreateWorld(size);
  std::vector<sim::Tick> exit_times(static_cast<std::size_t>(size), 0);
  std::vector<sim::Tick> entry_times(static_cast<std::size_t>(size), 0);
  int done = 0;
  auto prog = [&](int r) -> sim::Process {
    // Stagger entries to make the synchronization observable.
    co_await sim_.Delay(static_cast<sim::Tick>(r) * 300'000);
    entry_times[static_cast<std::size_t>(r)] = sim_.now();
    Status s = co_await comms_[static_cast<std::size_t>(r)]->Barrier();
    CO_ASSERT_TRUE(s.ok());
    exit_times[static_cast<std::size_t>(r)] = sim_.now();
    ++done;
  };
  for (int r = 0; r < size; ++r) sim_.Spawn(prog(r));
  ASSERT_TRUE(sim_.RunUntil([&] { return done == size; }, 500'000'000));
  // No rank may leave the barrier before the last rank entered it.
  const sim::Tick last_entry = *std::max_element(entry_times.begin(), entry_times.end());
  for (int r = 0; r < size; ++r) {
    EXPECT_GE(exit_times[static_cast<std::size_t>(r)], last_entry) << "rank " << r;
  }
}

TEST_P(CollSizeTest, BroadcastFromEveryRoot) {
  const int size = GetParam();
  Boot(size);
  CreateWorld(size);
  for (int root = 0; root < size; ++root) {
    std::vector<std::uint8_t> payload(10'000);
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<std::uint8_t>(i * 7 + static_cast<std::size_t>(root));
    }
    int done = 0;
    std::vector<std::vector<std::uint8_t>> got(static_cast<std::size_t>(size));
    auto prog = [&](int r) -> sim::Process {
      std::vector<std::uint8_t>& mine = got[static_cast<std::size_t>(r)];
      if (r == root) mine = payload;
      Status s = co_await comms_[static_cast<std::size_t>(r)]->Broadcast(root, mine);
      CO_ASSERT_TRUE(s.ok());
      ++done;
    };
    for (int r = 0; r < size; ++r) sim_.Spawn(prog(r));
    ASSERT_TRUE(sim_.RunUntil([&] { return done == size; }, 500'000'000));
    for (int r = 0; r < size; ++r) {
      EXPECT_EQ(got[static_cast<std::size_t>(r)], payload)
          << "rank " << r << " root " << root;
    }
  }
}

TEST_P(CollSizeTest, AllReduceSumRingPath) {
  const int size = GetParam();
  Boot(size);
  CreateWorld(size);
  // Divisible by any size we test: the ring path.
  const std::size_t n = 24 * 35;  // divisible by 2..8
  int done = 0;
  std::vector<std::vector<std::int64_t>> vals(static_cast<std::size_t>(size));
  auto prog = [&](int r) -> sim::Process {
    Status s = co_await comms_[static_cast<std::size_t>(r)]->AllReduceSum(
        vals[static_cast<std::size_t>(r)]);
    CO_ASSERT_TRUE(s.ok());
    ++done;
  };
  for (int r = 0; r < size; ++r) {
    auto& v = vals[static_cast<std::size_t>(r)];
    v.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = static_cast<std::int64_t>(i) * (r + 1);
    }
    sim_.Spawn(prog(r));
  }
  ASSERT_TRUE(sim_.RunUntil([&] { return done == size; }, 500'000'000));
  // Expected: sum over r of i*(r+1) = i * size*(size+1)/2.
  const std::int64_t factor = static_cast<std::int64_t>(size) * (size + 1) / 2;
  for (int r = 0; r < size; ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(vals[static_cast<std::size_t>(r)][i],
                static_cast<std::int64_t>(i) * factor)
          << "rank " << r << " index " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, CollSizeTest, ::testing::Values(2, 3, 5, 8));

TEST_F(CollTest, AllReduceFallbackForIndivisibleSizes) {
  Boot(3);
  CreateWorld(3);
  const std::size_t n = 7;  // not divisible by 3: gather+broadcast path
  int done = 0;
  std::vector<std::vector<std::int64_t>> vals(3);
  auto prog = [&](int r) -> sim::Process {
    Status s = co_await comms_[static_cast<std::size_t>(r)]->AllReduceSum(
        vals[static_cast<std::size_t>(r)]);
    CO_ASSERT_TRUE(s.ok());
    ++done;
  };
  for (int r = 0; r < 3; ++r) {
    vals[static_cast<std::size_t>(r)].assign(n, r + 1);
    sim_.Spawn(prog(r));
  }
  ASSERT_TRUE(sim_.RunUntil([&] { return done == 3; }, 500'000'000));
  for (int r = 0; r < 3; ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(vals[static_cast<std::size_t>(r)][i], 6);  // 1+2+3
    }
  }
}

TEST_F(CollTest, GatherConcatenatesInRankOrder) {
  Boot(4);
  CreateWorld(4);
  int done = 0;
  std::vector<std::uint8_t> all;
  auto prog = [&](int r) -> sim::Process {
    std::vector<std::uint8_t> mine(3, static_cast<std::uint8_t>('A' + r));
    Status s = co_await comms_[static_cast<std::size_t>(r)]->Gather(
        2, mine, r == 2 ? &all : nullptr);
    CO_ASSERT_TRUE(s.ok());
    ++done;
  };
  for (int r = 0; r < 4; ++r) sim_.Spawn(prog(r));
  ASSERT_TRUE(sim_.RunUntil([&] { return done == 4; }, 500'000'000));
  EXPECT_EQ(std::string(all.begin(), all.end()), "AAABBBCCCDDD");
}

TEST_F(CollTest, ErrorsOnBadArguments) {
  Boot(2);
  CreateWorld(2);
  bool done = false;
  auto prog = [&]() -> sim::Process {
    std::vector<std::uint8_t> tiny = {1};
    Status s1 = co_await comms_[0]->SendTo(5, tiny);
    EXPECT_EQ(s1.code(), ErrorCode::kInvalidArgument);
    std::vector<std::uint8_t> huge(Communicator::kMaxMessage + 1);
    Status s2 = co_await comms_[0]->SendTo(1, huge);
    EXPECT_EQ(s2.code(), ErrorCode::kInvalidArgument);
    std::vector<std::uint8_t> data;
    Status s3 = co_await comms_[0]->Broadcast(9, data);
    EXPECT_EQ(s3.code(), ErrorCode::kInvalidArgument);
    done = true;
  };
  sim_.Spawn(prog());
  ASSERT_TRUE(sim_.RunUntil([&] { return done; }, 100'000'000));
}

}  // namespace
}  // namespace vmmc::coll
