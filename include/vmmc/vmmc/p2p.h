// MPI-style point-to-point channels over VMMC with automatic protocol
// selection:
//
//  * EAGER (len <= P2pParams::eager_max): the message is bcopy'd through
//    an exported slot buffer — one host copy on each side, minimal
//    latency for small messages;
//  * RENDEZVOUS (larger): zero-copy reader-pull (the RGET scheme). The
//    sender registers its source buffer through the registration cache
//    and posts a small RTS carrying the region's rtag; the receiver
//    registers its destination and issues a one-sided RdmaRead straight
//    from source to destination memory, then acks. No host copy touches
//    the payload on either side, and repeated transfers from the same
//    buffer hit warm pin-downs in the cache.
//
// A rendezvous Send completes when the RTS is posted, not when the data
// is pulled; the source buffer must stay untouched until the channel's
// next Send (which fences on the consumption ack) or an explicit Flush.
// The span-based Send stages through channel-owned memory, so only the
// zero-copy VirtAddr variant carries that obligation.
//
// Each direction of a channel is one exported slot:
//   [payload (eager capacity)] [u32 len] [u32 kind] [u32 seq]
// plus an exported ack word; the trailer is sent as a separate in-order
// message so "seq changed" commits a complete payload, and the ack write
// is what gives one-deep credit flow control.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "vmmc/host/spin_wait.h"
#include "vmmc/vmmc/api.h"

namespace vmmc::vmmc_core {

class P2pChannel {
 public:
  // Builds this side of the channel between `ep`'s process and node
  // `peer`. Both sides must call with the same `tag` (it namespaces the
  // exports); the import handshake waits for the peer, so the two
  // Creates may run in either order. `params` sets the eager/rendezvous
  // crossover and poll interval (see P2pParams for the tuned defaults).
  static sim::Task<Result<std::unique_ptr<P2pChannel>>> Create(
      Endpoint& ep, int peer, std::string tag, P2pParams params);

  int peer() const { return peer_; }
  const P2pParams& params() const { return params_; }

  // Sends from simulated user memory; zero-copy on the rendezvous path
  // (see the buffer-reuse note above).
  sim::Task<Status> Send(mem::VirtAddr src, std::uint32_t len);
  // Convenience: stages `data` into channel-owned memory first, so the
  // caller's bytes are free to change as soon as this returns.
  sim::Task<Status> Send(std::span<const std::uint8_t> data);

  // Receives the next message into [dst, dst+cap) of simulated user
  // memory; returns its length. The rendezvous pull lands directly here.
  sim::Task<Result<std::uint32_t>> RecvInto(mem::VirtAddr dst,
                                            std::uint32_t cap);
  // Convenience: receives via an internal bounce buffer into `out`,
  // resized to the message (its capacity is kept, so a caller that
  // reuses one vector receives without allocating).
  sim::Task<Status> Recv(std::vector<std::uint8_t>& out);

  // Waits until the peer consumed the last message and releases the
  // pending source registration (rendezvous zero-copy sends only).
  sim::Task<Status> Flush();

  struct Stats {
    std::uint64_t eager_sends = 0;
    std::uint64_t rendezvous_sends = 0;
    std::uint64_t eager_recvs = 0;
    std::uint64_t rendezvous_recvs = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  P2pChannel(Endpoint& ep, int peer, std::string tag, P2pParams params)
      : ep_(ep),
        peer_(peer),
        tag_(std::move(tag)),
        params_(params),
        ack_wait_(ep.machine().kernel().simulator(), params.poll),
        recv_wait_(ep.machine().kernel().simulator(), params.poll) {}

  // Slot geometry. kKindEager payloads use [0, eager_cap); the RTS is a
  // 12-byte record {u32 rtag, u64 region offset} in the same area.
  static constexpr std::uint32_t kKindEager = 1;
  static constexpr std::uint32_t kKindRts = 2;
  static constexpr std::uint32_t kRtsBytes = 12;
  std::uint32_t eager_cap() const {
    return params_.eager_max < kRtsBytes ? kRtsBytes : params_.eager_max;
  }

  sim::Task<Status> SetupBuffers();
  // Blocks until the peer acked message `seq`; retires the pending
  // rendezvous source registration once it has.
  sim::Task<Status> WaitAcked(std::uint32_t seq);
  sim::Task<Status> SendTrailer(std::uint32_t len, std::uint32_t kind);
  std::uint32_t ReadWord(mem::VirtAddr va) const;
  void WriteWord(mem::VirtAddr va, std::uint32_t v);

  Endpoint& ep_;
  int peer_;
  std::string tag_;
  P2pParams params_;

  // Receive side (exported by us).
  mem::VirtAddr recv_slot = 0;
  mem::VirtAddr ack_out = 0;
  std::uint32_t next_recv_seq = 1;
  // Send side (imported from the peer).
  ProxyAddr send_slot = 0;
  ProxyAddr peer_ack = 0;
  mem::VirtAddr send_staging = 0;
  mem::VirtAddr ack_word = 0;
  std::uint32_t next_send_seq = 1;

  // Source registration of the last rendezvous send, held until acked.
  MemRegion pending_region_{};
  bool pending_region_live_ = false;

  // Lazily grown staging for span-based rendezvous sends / Recv().
  mem::VirtAddr rdv_staging_ = 0;
  std::uint32_t rdv_staging_cap_ = 0;
  mem::VirtAddr recv_bounce_ = 0;
  std::uint32_t recv_bounce_cap_ = 0;
  sim::Task<Result<mem::VirtAddr>> EnsureScratch(mem::VirtAddr* va,
                                                 std::uint32_t* cap,
                                                 std::uint32_t need);

  // Spins on ack_word and on the receive trailer's seq word.
  host::SpinWait ack_wait_;
  host::SpinWait recv_wait_;

  Stats stats_;
  obs::Counter* eager_sends_m_ = nullptr;
  obs::Counter* rdv_sends_m_ = nullptr;
};

}  // namespace vmmc::vmmc_core
