// allreduce64: 64 nodes on a two-level fat tree of 16-port switches
// (fattree:64@16, the BM_MacroAllreduce64 shape). One lazy-link
// coll::Communicator per rank; every rank runs the same seeded sequence of
// AllReduceSum calls in a closed loop. The vector lengths hit three of
// SelectAllReduce's algorithms: recursive doubling (the vector fits one
// eager message), ring (large and divisible by 64) and gather+broadcast
// (large and indivisible). Each rank checks its result against the
// closed-form sum.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "vmmc/coll/communicator.h"

namespace perfbench {
namespace {

using vmmc::Params;
using vmmc::Status;
using vmmc::coll::CommOptions;
using vmmc::coll::Communicator;
using vmmc::sim::kMillisecond;
using vmmc::sim::Process;
using vmmc::sim::Simulator;
using vmmc::vmmc_core::Cluster;
using vmmc::vmmc_core::ClusterOptions;

enum Algo : int { kRd = 0, kRing = 1, kGb = 2 };
constexpr Communicator::AllReduceAlgo kSelected[] = {
    Communicator::AllReduceAlgo::kRecursiveDoubling,
    Communicator::AllReduceAlgo::kRing,
    Communicator::AllReduceAlgo::kGatherBroadcast,
};

constexpr int kRanks = 64;
constexpr std::int64_t kRankSum = kRanks * (kRanks - 1) / 2;
// Measured calls per algorithm: 112 calls, 7168 per-rank samples. They run
// in sixteen blocks of one bandwidth-bound call (ring or gather+broadcast,
// in seeded order) followed by six recursive-doubling calls, so every seed
// has the same number of small calls that start while the previous large
// call's slowest ranks are still finishing, and the median lands among the
// small calls that do not.
constexpr int kCalls[] = {96, 8, 8};
constexpr int kSmallPerBlock = 6;
// Vector lengths (int64 elements) per algorithm: recursive doubling while
// the vector fits eager_max (448 B); ring over 64 * [kRingMinK, kRingMaxK],
// whose per-step chunks stay eager; gather+broadcast over indivisible
// lengths in [kGbMin, kGbMax], whose messages are rendezvous and fit one
// page.
constexpr std::size_t kRdMax = 56;
constexpr std::uint32_t kRingMinK = 16;
constexpr std::uint32_t kRingMaxK = 56;
constexpr std::uint32_t kGbMin = 256;
constexpr std::uint32_t kGbMax = 511;
constexpr Tick kOpDeadline = 1000 * kMillisecond;
constexpr Tick kSetupLimit = 60'000 * kMillisecond;

struct Call {
  Algo algo;
  std::size_t n;
  // Rank r contributes a[i] + r * b[i], so the sum is
  // kRanks * a[i] + kRankSum * b[i].
  std::vector<std::int64_t> a;
  std::vector<std::int64_t> b;
};

struct Allreduce {
  explicit Allreduce(SpanLog& span_log) : log(span_log) {}

  Simulator sim;
  Params params;
  SpanLog& log;
  std::uint64_t seed = 0;
  std::unique_ptr<Cluster> cluster;
  std::vector<std::unique_ptr<Communicator>> comms =
      std::vector<std::unique_ptr<Communicator>>(kRanks);
  std::vector<Call> plan;  // warm-up calls first, then the measured calls
  std::size_t warmup = 0;
  std::vector<OpRecord> records;  // records[call * kRanks + rank]
  std::vector<Tick> issue = std::vector<Tick>(kRanks, -1);
  int pending = 0;
  std::string setup_error;
};

Call MakeCall(Rng& rng, Algo algo, std::size_t n) {
  Call c{algo, n, std::vector<std::int64_t>(n), std::vector<std::int64_t>(n)};
  for (std::size_t i = 0; i < n; ++i) {
    c.a[i] = static_cast<std::int64_t>(rng.Below(1ull << 31)) - (1ll << 30);
    c.b[i] = static_cast<std::int64_t>(rng.Below(1ull << 21)) - (1ll << 20);
  }
  return c;
}

void BuildPlan(Allreduce& ar) {
  Rng rng(Mix(ar.seed, 0xA11));
  // One untimed warm-up call per algorithm at its largest length: every
  // lazy link the algorithm uses is built during setup. Only
  // gather+broadcast sends rendezvous messages, which register channel
  // buffers; its warm-up at the longest length makes each buffer's first
  // registration cover every later one-page message. That works around the
  // RegCache bug noted in pingpong.cpp, which would otherwise fail a
  // longer message of the same page count.
  ar.plan.push_back(MakeCall(rng, kRd, kRdMax));
  ar.plan.push_back(MakeCall(rng, kRing, kRanks * std::size_t{kRingMaxK}));
  ar.plan.push_back(MakeCall(rng, kGb, kGbMax));
  ar.warmup = ar.plan.size();

  std::vector<std::pair<Algo, std::size_t>> small;
  std::vector<std::pair<Algo, std::size_t>> large;
  for (std::uint32_t n : StratifiedLogSizes(rng, kCalls[kRd], 1, kRdMax)) {
    small.emplace_back(kRd, n);
  }
  for (std::uint32_t k :
       StratifiedLogSizes(rng, kCalls[kRing], kRingMinK, kRingMaxK)) {
    large.emplace_back(kRing, std::size_t{k} * kRanks);
  }
  for (std::uint32_t n : StratifiedLogSizes(rng, kCalls[kGb], kGbMin, kGbMax)) {
    large.emplace_back(kGb, n % kRanks == 0 ? n + 1 : n);
  }
  Shuffle(small, rng);
  Shuffle(large, rng);
  for (std::size_t b = 0; b < large.size(); ++b) {
    ar.plan.push_back(MakeCall(rng, large[b].first, large[b].second));
    for (std::size_t j = 0; j < kSmallPerBlock; ++j) {
      const auto& [algo, n] = small[b * kSmallPerBlock + j];
      ar.plan.push_back(MakeCall(rng, algo, n));
    }
  }

  ar.records.assign(ar.plan.size() * kRanks, OpRecord{});
  for (std::size_t c = 0; c < ar.plan.size(); ++c) {
    for (int r = 0; r < kRanks; ++r) {
      OpRecord& rec = ar.records[c * kRanks + static_cast<std::size_t>(r)];
      rec.kind = ar.plan[c].algo;
      rec.group = static_cast<int>(c);
      rec.bytes = static_cast<std::uint32_t>(ar.plan[c].n * 8);
    }
  }
}

Process CreateRank(Allreduce& ar, int rank) {
  CommOptions options;
  options.lazy_links = true;
  auto comm = co_await Communicator::Create(*ar.cluster, rank, kRanks, "world", options);
  if (!comm.ok()) {
    ar.setup_error = comm.status().ToString();
    co_return;
  }
  ar.comms[static_cast<std::size_t>(rank)] = std::move(comm).value();
  --ar.pending;
}

Process Rank(Allreduce& ar, int rank, std::size_t first, std::size_t last) {
  Communicator& comm = *ar.comms[static_cast<std::size_t>(rank)];
  std::vector<std::int64_t> v;
  for (std::size_t c = first; c < last; ++c) {
    const Call& call = ar.plan[c];
    v.resize(call.n);
    for (std::size_t i = 0; i < call.n; ++i) v[i] = call.a[i] + rank * call.b[i];
    const std::size_t id = c * kRanks + static_cast<std::size_t>(rank);
    OpRecord& rec = ar.records[id];
    rec.issue = ar.sim.now();
    ar.issue[static_cast<std::size_t>(rank)] = rec.issue;
    const int op = ar.log.Begin("bench", "op.allreduce", rec.issue,
                                 static_cast<std::int64_t>(id), -1, rec.bytes, call.algo);
    const int span = ar.log.Begin("coll", "Communicator::AllReduceSum", rec.issue,
                                   static_cast<std::int64_t>(id), op, rec.bytes,
                                   call.algo);
    Status s = co_await comm.AllReduceSum(v);
    ar.log.End(span, ar.sim.now());
    OpStatus status = s.ok() ? OpStatus::kOk : OpStatus::kError;
    for (std::size_t i = 0; s.ok() && i < call.n; ++i) {
      if (v[i] != kRanks * call.a[i] + kRankSum * call.b[i]) {
        status = OpStatus::kBadData;
        break;
      }
    }
    rec.Finish(ar.sim.now(), status);
    ar.log.End(op, rec.done);
    ar.issue[static_cast<std::size_t>(rank)] = -1;
  }
  --ar.pending;
}

// Runs plan calls [first, last) on every rank; a rank's call that takes
// longer than `deadline` of simulated time stops the run.
bool RunCalls(Allreduce& ar, std::size_t first, std::size_t last, Tick deadline) {
  ar.pending = kRanks;
  for (int r = 0; r < kRanks; ++r) ar.sim.Spawn(Rank(ar, r, first, last));
  auto overdue = [&ar, deadline] {
    for (Tick t : ar.issue) {
      if (t >= 0 && ar.sim.now() > t + deadline) return true;
    }
    return false;
  };
  return Drive(ar.sim, [&ar] { return ar.pending == 0; }, overdue, kMillisecond);
}

// Latency by algorithm, and the spread of finish times across the ranks
// of each call (the slowest rank sets the collective's result time).
void AlgoMetrics(const std::vector<OpRecord>& ops, std::vector<LayerValue>& out) {
  std::vector<Tick> by_algo[3];
  std::vector<std::pair<Tick, Tick>> finish;  // per call: first, last done
  std::vector<bool> call_ok;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const OpRecord& op = ops[i];
    const std::size_t call = i / kRanks;
    if (call >= finish.size()) {
      finish.emplace_back(op.done, op.done);
      call_ok.push_back(true);
    }
    call_ok[call] = call_ok[call] && op.ok;
    if (!op.ok) continue;
    by_algo[op.kind].push_back(op.done - op.issue);
    finish[call].first = std::min(finish[call].first, op.done);
    finish[call].second = std::max(finish[call].second, op.done);
  }
  std::vector<double> skew;
  for (std::size_t c = 0; c < finish.size(); ++c) {
    if (call_ok[c]) {
      skew.push_back(static_cast<double>(finish[c].second - finish[c].first) / 1000);
    }
  }
  out.push_back(P50Us("coll.rd_us_p50", by_algo[kRd]));
  out.push_back(P50Us("coll.ring_us_p50", by_algo[kRing]));
  out.push_back(P50Us("coll.gb_us_p50", by_algo[kGb]));
  out.push_back({"coll.skew_us_p50", Median(skew), static_cast<long>(skew.size()), false});
}

}  // namespace

Outcome RunAllreduce64(std::uint64_t seed, SpanLog& log) {
  const double t0 = WallNow();
  Outcome out;
  // Never torn down: suspended coroutines still point into it when the
  // run ends, and the driver process exits right after.
  Allreduce& ar = *new Allreduce(log);
  ar.seed = seed;
  BuildPlan(ar);
  auto options = ClusterOptions::FromSpec("fattree:64@16");
  if (!options.ok()) {
    out.error = "bad topology spec";
    return out;
  }
  ar.cluster = std::make_unique<Cluster>(ar.sim, ar.params, options.value());
  Simulator& sim = ar.sim;

  const int boot = log.Begin("vmmc", "Cluster::Boot", sim.now());
  Status booted = ar.cluster->Boot();
  log.End(boot, sim.now());
  if (!booted.ok()) {
    out.error = "boot failed: " + booted.ToString();
    return out;
  }
  out.boot_sim = ar.cluster->boot_time();

  ar.pending = kRanks;
  for (int r = 0; r < kRanks; ++r) sim.Spawn(CreateRank(ar, r));
  if (!RunPhase(sim, log, "coll", "Communicator::Create", ar.pending, kSetupLimit)) {
    out.error = "Communicator::Create failed: " + ar.setup_error;
    return out;
  }
  for (const Call& call : ar.plan) {
    if (ar.comms[0]->SelectAllReduce(call.n) != kSelected[call.algo]) {
      out.error = "vector length " + std::to_string(call.n) +
                  " does not select the planned algorithm";
      return out;
    }
  }

  const int warm = log.Begin("coll", "coll.warmup", sim.now());
  // Warm-up calls also build the lazy links, over the daemons' Ethernet.
  const bool warmed = RunCalls(ar, 0, ar.warmup, kSetupLimit);
  log.End(warm, sim.now());
  for (std::size_t i = 0; i < ar.warmup * kRanks; ++i) {
    if (!warmed || !ar.records[i].ok) {
      out.error = "warm-up call failed";
      return out;
    }
  }

  out.nodes = ar.cluster->num_nodes();
  out.sram_used_max = MaxSramUsed(*ar.cluster);
  out.before = Snapshot::Take(*ar.cluster);
  out.measure_sim_begin = sim.now();
  const double t1 = WallNow();
  out.setup_wall_s = t1 - t0;
  // A stall or a missed deadline ends the phase early; the ops it left
  // unfinished count as failed.
  RunCalls(ar, ar.warmup, ar.plan.size(), kOpDeadline);
  out.measure_wall_s = WallNow() - t1;
  out.after = Snapshot::Take(*ar.cluster);
  out.ops.assign(ar.records.begin() + static_cast<std::ptrdiff_t>(ar.warmup * kRanks),
                 ar.records.end());
  AlgoMetrics(out.ops, out.layer);
  return out;
}

}  // namespace perfbench
