// MPI-style collective operations over VMMC — the kind of message-passing
// layer the paper positions VMMC as a substrate for (§1: "a key enabling
// technology ... is a high-performance communication mechanism that
// supports protected, user-level message passing").
//
// A Communicator gives one rank (one process, one node) a P2pChannel to
// every peer it talks to. The channel picks the wire protocol per message
// (eager copy-through below the crossover, zero-copy reader-pull
// rendezvous above it — see vmmc/p2p.h); the communicator picks the
// collective algorithm per vector size:
//
//   Barrier()            dissemination barrier, ceil(log2 N) rounds
//   Broadcast(root,...)  binomial tree
//   AllReduceSum(...)    selected by payload size (SelectAllReduce):
//                          - one rank: nothing to do;
//                          - vectors that fit one eager message are
//                            latency-bound: recursive doubling when the
//                            world is a power of two, binomial-tree
//                            reduce + broadcast otherwise;
//                          - larger divisible vectors are bandwidth-
//                            bound: ring reduce-scatter + all-gather;
//                          - larger indivisible vectors: gather at rank
//                            0, reduce, broadcast.
//   Gather(root,...)     direct sends to the root
//   SendTo/RecvFrom      the raw point-to-point layer
//
// All operations are coroutines; every rank of the communicator must call
// the same collective in the same order (MPI semantics).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "vmmc/host/spin_wait.h"
#include "vmmc/sim/process.h"
#include "vmmc/sim/task.h"
#include "vmmc/vmmc/cluster.h"
#include "vmmc/vmmc/p2p.h"

namespace vmmc::coll {

struct CommOptions {
  // false: Create() builds all N-1 point-to-point channels up front (N^2
  // exported buffers across the job — fine at paper scale). true: a
  // channel materializes on first SendTo/RecvFrom touching that peer, so
  // a ring allreduce on 64 nodes sets up 2 channels per rank instead of
  // 63. Both sides of a lazy channel converge because the import
  // handshake waits for the peer's export.
  bool lazy_links = false;
};

class Communicator {
 public:
  using Options = CommOptions;

  // Which algorithm AllReduceSum will run for an n-element vector.
  enum class AllReduceAlgo {
    kSingle,             // size() == 1: no communication
    kRecursiveDoubling,  // small vector, power-of-two world
    kBinomialTree,       // small vector, any world size
    kRing,               // large vector divisible by size()
    kGatherBroadcast,    // large indivisible vector
  };

  // One call per rank; ranks are node ids. `tag` isolates independent
  // communicators in the daemon's export namespace.
  static sim::Task<Result<std::unique_ptr<Communicator>>> Create(
      vmmc_core::Cluster& cluster, int rank, int size,
      std::string tag = "world", Options options = {});

  int rank() const { return rank_; }
  int size() const { return size_; }
  vmmc_core::Endpoint& endpoint() { return *ep_; }

  // --- point to point (message-passing semantics over the channels) ---
  // Blocks until the peer consumed the previous message on this channel;
  // the channel then stages `data`, so the caller's bytes are free to
  // change as soon as this returns (eager and rendezvous alike).
  sim::Task<Status> SendTo(int peer, std::span<const std::uint8_t> data);
  // Blocks until the next message from `peer` arrives and stores its
  // bytes in `out` (resized to the message; its capacity is kept).
  sim::Task<Status> RecvFrom(int peer, std::vector<std::uint8_t>& out);

  // --- collectives ---
  sim::Task<Status> Barrier();
  // Root's `data` is distributed to everyone (in place on non-roots).
  sim::Task<Status> Broadcast(int root, std::vector<std::uint8_t>& data);
  // Element-wise sum across ranks, result everywhere; the algorithm is
  // chosen by SelectAllReduce.
  sim::Task<Status> AllReduceSum(std::vector<std::int64_t>& values);
  // Everyone's data concatenated (rank order) at the root.
  sim::Task<Status> Gather(int root, std::span<const std::uint8_t> mine,
                           std::vector<std::uint8_t>* all);

  // The algorithm AllReduceSum would pick for an n-element int64 vector.
  // "Small" is one eager message (P2pParams::eager_max): such vectors are
  // latency-bound, so log-round algorithms win; larger vectors are
  // bandwidth-bound, so the ring's n/size-sized transfers win.
  AllReduceAlgo SelectAllReduce(std::size_t n) const;

  // Number of collective operations completed (diagnostics).
  std::uint64_t operations() const { return operations_; }
  // Point-to-point channels established so far (== size-1 when eager;
  // grows on demand when lazy).
  int links_established() const { return static_cast<int>(channels_.size()); }
  // Channel protocol counters summed over all peers (diagnostics; shows
  // which wire protocol a collective actually used).
  vmmc_core::P2pChannel::Stats p2p_stats() const;

  static constexpr std::uint32_t kMaxMessage = 64 * 1024;

 private:
  Communicator(vmmc_core::Cluster& cluster, int rank, int size, std::string tag)
      : cluster_(cluster), rank_(rank), size_(size), tag_(std::move(tag)) {}

  sim::Task<Status> SetupLink(int peer);
  // Validates `peer` and, under Options::lazy_links, builds the channel
  // on first use.
  sim::Task<Status> EnsureLink(int peer);
  // Materializes the channels to `a` and `b` concurrently. Needed before
  // a cyclic exchange (ring step, barrier round) under lazy_links: each
  // side's import handshake waits for the peer's export, so two setups
  // that form a cycle across ranks deadlock when run sequentially.
  sim::Task<Status> EnsureLinks(int a, int b);
  static sim::Process EnsureOne(Communicator* self, int peer, int* pending,
                                Status* first_error, host::SpinWait* done);

  // AllReduceSum bodies, one per algorithm.
  sim::Task<Status> AllReduceRecursiveDoubling(std::vector<std::int64_t>& values);
  sim::Task<Status> AllReduceBinomial(std::vector<std::int64_t>& values);
  sim::Task<Status> AllReduceRing(std::vector<std::int64_t>& values);
  sim::Task<Status> AllReduceGatherBroadcast(std::vector<std::int64_t>& values);

  vmmc_core::Cluster& cluster_;
  int rank_;
  int size_;
  std::string tag_;
  Options options_;
  std::unique_ptr<vmmc_core::Endpoint> ep_;
  std::map<int, std::unique_ptr<vmmc_core::P2pChannel>> channels_;
  std::uint64_t operations_ = 0;

  // Scratch the collectives pack into and receive into. Collectives on
  // one communicator run one at a time (MPI semantics), and these keep
  // their capacity across steps and calls, so a warm collective does not
  // allocate. Broadcast pieces travel through recv_bytes_; its `data`
  // argument may be send_bytes_ but never recv_bytes_.
  std::vector<std::uint8_t> send_bytes_;
  std::vector<std::uint8_t> recv_bytes_;
  std::vector<std::int64_t> recv_values_;
  std::vector<std::uint8_t> gathered_;  // Gather output at the root
};

}  // namespace vmmc::coll
