// The VMMC LANai control program (§4) — the software state machine that
// runs on the NIC and implements virtual memory-mapped communication:
//
//  * per-process send queues in SRAM; short sends (<= 128 B) carry their
//    data in the queue entry, long sends carry only {virtual address,
//    length, proxy address} (§4.5);
//  * per-process outgoing page tables and software TLBs in SRAM (§4.4/4.5);
//  * long messages chunked at the page size, first chunk aligned to the
//    source page boundary; host-DMA and net-DMA pipelined; headers
//    precomputed while the previous chunk's host DMA is in flight (§4.5);
//  * two-address scatter on receive for chunks crossing a destination page
//    boundary (§4.5);
//  * completion word DMAed back to user space when the last chunk is
//    safely in LANai SRAM (§4.5);
//  * software-TLB misses serviced by the host driver via interrupt, up to
//    32 translations per interrupt (§4.5);
//  * notifications raised through the driver and a signal (§2, §5.1);
//  * a tight sending loop for one-way traffic, abandoned when packets
//    arrive (§5.3 — the cause of the bidirectional bandwidth drop).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "vmmc/host/kernel.h"
#include "vmmc/lanai/nic_card.h"
#include "vmmc/myrinet/packet.h"
#include "vmmc/obs/metrics.h"
#include "vmmc/obs/trace.h"
#include "vmmc/params.h"
#include "vmmc/sim/sync.h"
#include "vmmc/sim/task.h"
#include "vmmc/util/buffer.h"
#include "vmmc/util/pool.h"
#include "vmmc/util/ring.h"
#include "vmmc/vmmc/go_back_n.h"
#include "vmmc/vmmc/page_tables.h"
#include "vmmc/vmmc/sw_tlb.h"
#include "vmmc/vmmc/wire.h"

namespace vmmc::vmmc_core {

// Per-node routing table produced by the mapping phase: source route to
// every destination node.
using RouteTable = std::vector<myrinet::Route>;

// Values the LCP writes into the user-space completion word.
enum class SendStatus : std::uint32_t {
  kPending = 0,
  kDone = 1,
  kBadProxy = 2,    // proxy page not mapped / crosses import boundary
  kBadLength = 3,   // exceeds the 8 MB limit
  kBadAddress = 4,  // source virtual address unmapped
};

// One-sided RDMA-write addressing attached to a send request: the data
// lands in an rtag-registered region on the destination instead of going
// through the proxy/outgoing page table. Allocated per RDMA write from the
// shared size-class pool (util/pool.h), and null on the ordinary two-sided
// path, which keeps SendRequest small.
struct DirectSend {
  static void* operator new(std::size_t n) { return util::Pool::Allocate(n); }
  static void operator delete(void* p, std::size_t n) noexcept {
    util::Pool::Free(p, n);
  }

  std::uint32_t dst_node = 0;
  std::uint32_t rtag = 0;    // remote registered region
  std::uint64_t offset = 0;  // byte offset into that region
  // Remote completion notification: after the last data chunk, a 4-byte
  // fin chunk carrying fin_value lands at (fin_rtag, fin_offset) on the
  // same node. In-order go-back-N delivery guarantees it arrives after
  // the data. fin_rtag 0: no fin.
  std::uint32_t fin_rtag = 0;
  std::uint64_t fin_offset = 0;
  std::uint32_t fin_value = 0;
};

// One-sided RDMA-read: ask src_node to stream len bytes starting at
// (src_rtag, src_offset) into our local (dst_rtag, dst_offset) region,
// then drop fin_value at (fin_rtag, fin_offset) here so we can spin on
// it. On a remote protection violation the server sets bit 31 of
// fin_value instead of sending data. Pooled like DirectSend.
struct ReadRequest {
  static void* operator new(std::size_t n) { return util::Pool::Allocate(n); }
  static void operator delete(void* p, std::size_t n) noexcept {
    util::Pool::Free(p, n);
  }

  std::uint32_t src_node = 0;
  std::uint32_t src_rtag = 0;
  std::uint64_t src_offset = 0;
  std::uint32_t dst_rtag = 0;
  std::uint64_t dst_offset = 0;
  std::uint32_t fin_rtag = 0;
  std::uint64_t fin_offset = 0;
  std::uint32_t fin_value = 0;
};

// One entry of a per-process send queue. The host writes it with PIO; the
// LCP consumes it.
struct SendRequest {
  std::uint32_t len = 0;                   // message length in bytes
  ProxyAddr proxy = 0;
  mem::VirtAddr src_va = 0;                // long sends
  util::Buffer inline_data;                // short sends (pooled, COW)
  bool notify = false;
  std::uint32_t slot = 0;                  // completion slot
  std::unique_ptr<DirectSend> direct;      // one-sided write (null: proxy)
  std::unique_ptr<ReadRequest> read;       // one-sided read (null otherwise)
};

// NIC-resident state of one process using VMMC (all accounted in SRAM).
class ProcState {
 public:
  ProcState(sim::Simulator& sim, const VmmcParams& params,
            host::UserProcess& process, SwTlb::Counters tlb_counters);

  int pid() const { return process_->pid(); }
  host::UserProcess& process() { return *process_; }
  OutgoingPageTable& outgoing() { return outgoing_; }
  SwTlb& tlb() { return tlb_; }

  // Send queue, bounded by send_queue_entries; the host acquires a slot
  // token before writing an entry.
  sim::Semaphore& queue_slots() { return queue_slots_; }
  util::Ring<SendRequest>& send_queue() { return send_queue_; }

  // Completion words live in pinned user memory at completion_base; the
  // events model the cache line the user spins on.
  mem::VirtAddr completion_base = 0;
  std::vector<std::unique_ptr<sim::Event>> completion_events;

  // TLB-miss handshake with the driver.
  std::optional<mem::Vpn> pending_miss;
  sim::Event tlb_filled;

  // A long send in progress: the main loop advances it one chunk at a
  // time so incoming packets are serviced between chunks (§5.3).
  struct ActiveLongSend {
    SendRequest req;
    std::uint32_t offset = 0;
    bool first_chunk = true;
    // Destination node, resolved at pickup. The main loop skips this
    // process while the go-back-N window to that node is closed (a short
    // send parks here too when it hits a closed window).
    std::uint32_t dst_node = 0;
    // Direct send with a fin: the data chunks are out, the 4-byte fin
    // chunk is still owed (kept as a stage so window-gating applies).
    bool fin_stage = false;
  };
  std::optional<ActiveLongSend> active;

  // SRAM regions backing this state (freed on unregister).
  std::vector<std::uint32_t> sram_regions;

 private:
  host::UserProcess* process_;
  OutgoingPageTable outgoing_;
  SwTlb tlb_;
  sim::Semaphore queue_slots_;
  util::Ring<SendRequest> send_queue_;
};

// A notification waiting for the driver to deliver (§2: invoke a user-level
// handler in the receiving process after delivery).
struct PendingNotification {
  int pid = -1;
  std::uint32_t export_id = 0;
  std::uint32_t msg_len = 0;
};

class VmmcLcp : public lanai::Lcp {
 public:
  VmmcLcp(sim::Simulator& sim, const Params& params, int node_id,
          RouteTable routes);

  // --- LCP main loop (runs on the LANai) ---
  sim::Process Run(lanai::NicCard& nic) override;

  // Fabric drop notice (misroute / empty route): triggers an immediate
  // go-back-N retransmission toward that destination instead of waiting
  // out the RTO.
  void OnDropNotice(const myrinet::Packet& packet) override;

  // --- host-visible interface (driver / daemon / library reach these
  //     structures through PIO and shared SRAM; the callers charge the
  //     access costs) ---
  Result<ProcState*> RegisterProcess(host::UserProcess& process);
  Status UnregisterProcess(int pid);
  ProcState* FindProc(int pid);
  std::size_t process_count() const { return procs_.size(); }

  IncomingPageTable& incoming() { return *incoming_; }

  // --- registered receive regions (rkey model) ---
  // rtag-addressed chunks resolve against this SRAM table instead of
  // carrying physical addresses: dst_pa0 = (rtag << 32) | offset. One
  // 32-bit tag replaces shipping the whole frame list to every sender.
  // Frames must already be pinned by the registrar (export, registration
  // cache); `first_page_offset` is the offset of region byte 0 within
  // frames[0].
  struct RecvRegion {
    int pid = -1;
    std::uint64_t first_page_offset = 0;
    std::uint64_t len = 0;
    std::vector<mem::Pfn> frames;
    std::uint32_t sram_region = 0;
  };
  Result<std::uint32_t> CreateRecvRegion(int pid,
                                         std::uint64_t first_page_offset,
                                         std::uint64_t len,
                                         std::vector<mem::Pfn> frames);
  Status ReleaseRecvRegion(std::uint32_t rtag);
  // Raises the region's length bound to `len` (never lowers it); the
  // frame list must already cover it.
  Status GrowRecvRegion(std::uint32_t rtag, std::uint64_t len);
  const RecvRegion* FindRecvRegion(std::uint32_t rtag) const;
  std::size_t recv_region_count() const { return recv_regions_.size(); }

  // Host posts a send request (after charging the PIO writes) and rings
  // the doorbell.
  Status PostSend(ProcState& proc, SendRequest request);

  // Driver: TLB-miss service (§4.5).
  std::optional<std::pair<int, mem::Vpn>> TakePendingTlbMiss();
  void CompleteTlbFill(int pid,
                       const std::vector<std::pair<mem::Vpn, mem::Pfn>>& fills);

  // Driver: pending notifications.
  std::optional<PendingNotification> PopNotification();

  // --- metrics ---
  // Every count the LCP keeps, as the registry instruments of its node,
  // bound once in the constructor: tests and benches read the same
  // counters a metrics dump lists. Counter names are node<N>.lcp.<field>
  // (node<N>.tlb.{hit,miss,eviction} for the software TLBs, shared by
  // every process on the node).
  struct Metrics {
    Metrics(obs::Registry& m, obs::Tracer& tracer, const std::string& node);

    obs::Counter& sends;                // requests picked up
    obs::Counter& short_sends;          // <= short_send_max, inline data
    obs::Counter& long_sends;           // chunked (proxy or RDMA write)
    obs::Counter& chunks_sent;
    obs::Counter& bytes_sent;
    obs::Counter& chunks_received;
    obs::Counter& bytes_received;
    obs::Counter& send_errors;          // completions other than kDone
    obs::Counter& protection_violations;  // sender- and receive-side rejects
    obs::Counter& crc_drops;
    obs::Counter& tlb_miss_interrupts;
    obs::Counter& notifications;        // raised toward the driver
    // §5.3: long-send chunks sent from the tight loop vs the main loop.
    obs::Counter& tight_loop_chunks;
    obs::Counter& main_loop_chunks;
    // Reliability layer (go-back-N).
    obs::Counter& acks_sent;
    obs::Counter& acks_received;
    obs::Counter& retransmits;          // data packets re-queued
    obs::Counter& retransmit_timeouts;  // RTO expiries
    obs::Counter& duplicate_chunks;     // receiver: already delivered
    obs::Counter& out_of_order_chunks;  // receiver: gap, discarded
    obs::Counter& drop_notices;         // fabric misroute reports
    obs::Counter& window_stalls;        // sends parked on a full window
    // One-sided RDMA (rtag-addressed; 0 unless the RDMA API is used).
    obs::Counter& rdma_writes;          // direct-send requests picked up
    obs::Counter& rdma_read_requests;   // read requests sent by this node
    obs::Counter& rdma_reads_served;    // read requests served for peers
    obs::Counter& rdma_fins_sent;       // completion fin chunks emitted
    SwTlb::Counters tlb;
    obs::Gauge& send_queue_depth;
    obs::Gauge& retx_in_use;
    obs::Histo& host_dma_ns;   // per-chunk host-DMA phase
    obs::Histo& translate_ns;  // per-chunk source translation
    int track;                 // "node<N>.lcp" span track
  };
  const Metrics& metrics() const { return metrics_; }

  // True once the main loop has initialized its SRAM structures.
  bool running() const { return running_; }

  // Node id (== NIC id) once running; -1 before.
  int node_id() const { return nic_ != nullptr ? nic_->nic_id() : -1; }

 private:
  // Starts a freshly picked-up request: full processing for short sends,
  // an ActiveLongSend for long ones.
  sim::Process StartSend(lanai::NicCard& nic, ProcState& proc, SendRequest req);
  sim::Process HandleShortSend(lanai::NicCard& nic, ProcState& proc,
                               SendRequest& req);
  // Advances an active long send by one chunk.
  sim::Process SendOneChunk(lanai::NicCard& nic, ProcState& proc);
  void FinishRequest(ProcState& proc, std::uint32_t slot, SendStatus status);
  sim::Process HandleRecv(lanai::NicCard& nic, lanai::ReceivedPacket rp);
  // --- one-sided RDMA ---
  // Emits a kRdmaRead request packet (window already checked by caller).
  sim::Process SendReadRequest(lanai::NicCard& nic, ProcState& proc,
                               SendRequest& req);
  // Parses an incoming kRdmaRead and queues it for serving.
  void HandleReadRequest(const ChunkHeader& h,
                         std::span<const std::uint8_t> data);
  // Serves one chunk (or the fin) of the front read request.
  sim::Process ServeReadChunk(lanai::NicCard& nic);
  // 4-byte rtag-addressed completion chunk.
  sim::Process SendFinChunk(lanai::NicCard& nic, std::uint32_t dst_node,
                            std::uint32_t rtag, std::uint64_t offset,
                            std::uint32_t value);
  // Resolves an rtag-addressed target to scatter addresses.
  struct RtagTarget {
    std::uint64_t pa0 = 0;
    std::uint64_t pa1 = 0;
    std::uint32_t seg0 = 0;
  };
  Result<RtagTarget> ResolveRtag(std::uint32_t rtag, std::uint64_t offset,
                                 std::uint32_t chunk_len) const;
  // Translates a source page, interrupting the host on a TLB miss.
  sim::Task<Result<mem::Pfn>> TranslateSrc(lanai::NicCard& nic, ProcState& proc,
                                           mem::Vpn vpn);
  // Validates the destination of a chunk; fills pa0/pa1.
  Result<std::pair<std::uint64_t, std::uint64_t>> ResolveChunkTarget(
      ProcState& proc, ProxyAddr proxy, std::uint32_t chunk_len,
      std::uint32_t* dst_node);
  void WriteCompletion(ProcState& proc, std::uint32_t slot, SendStatus status);
  // Dedicated transmit pump: keeps net-DMA busy while the main path host-
  // DMAs the next chunk (the §4.5 pipelining).
  sim::Process TxPump(lanai::NicCard& nic);
  ProcState* NextProcWithWork();

  // --- reliability layer (go-back-N; see go_back_n.h and DESIGN.md) ---
  // Window + SRAM retransmit-pool admission for one more packet to `dst`.
  bool WindowOpen(std::uint32_t dst_node) const;
  // The one framer of sequenced packets (kData and kRdmaRead): stamps `h`
  // with this node, `dst_node` and the next go-back-N seq, encodes it into
  // the ChunkHeader::kWireSize bytes of room at the front of `payload`
  // (ChunkPayload, or a buffer the data was DMAed into behind that room),
  // attaches the route, keeps the retransmit copy (arming the RTO timer
  // if it is the first unacked packet) and counts the chunk. The caller
  // hands the packet to the transmit engine; the window must be open.
  myrinet::Packet FrameChunk(lanai::NicCard& nic, std::uint32_t dst_node,
                             ChunkHeader h, util::Buffer payload);
  sim::Process HandleAck(lanai::NicCard& nic, lanai::ReceivedPacket rp);
  // Builds and queues a cumulative ACK toward `src_node`; resets the
  // delayed-ack state for that peer.
  sim::Process SendAck(lanai::NicCard& nic, std::uint32_t src_node);
  sim::Process DelayedAck(lanai::NicCard& nic, std::uint32_t src_node,
                          std::uint64_t gen);
  // Re-queues every unacked packet toward `dst` (go-back-N resend).
  sim::Process RetransmitWindow(lanai::NicCard& nic, std::uint32_t dst_node);
  sim::Process RtoTimer(lanai::NicCard& nic, std::uint32_t dst_node,
                        std::uint64_t gen);
  sim::Process FastRetransmit(lanai::NicCard& nic, std::uint32_t dst_node);
  void ArmRtoTimer(lanai::NicCard& nic, std::uint32_t dst_node);

  const Params& params_;
  RouteTable routes_;
  lanai::NicCard* nic_ = nullptr;
  Metrics metrics_;

  std::vector<std::unique_ptr<ProcState>> procs_;
  std::size_t rr_cursor_ = 0;  // round-robin over send queues
  std::unique_ptr<IncomingPageTable> incoming_;  // sized at Run (needs machine)
  util::Ring<PendingNotification> notifications_;
  // Ordered by rtag: UnregisterProcess walks this map freeing SRAM
  // regions, and the free-list order must not depend on hash order
  // (vmmc-lint R2 / determinism contract).
  std::map<std::uint32_t, RecvRegion> recv_regions_;
  std::uint32_t next_rtag_ = 1;  // 0 means "no region" on the wire

  // Read requests waiting to be served, FIFO. The main loop serves one
  // chunk per iteration between receive handling and local send work.
  struct ReadServe {
    std::uint32_t requester = 0;
    std::uint32_t src_rtag = 0;
    std::uint64_t src_offset = 0;
    std::uint32_t dst_rtag = 0;
    std::uint64_t dst_offset = 0;
    std::uint32_t len = 0;
    std::uint32_t offset = 0;
    bool fin_stage = false;
    std::uint32_t fin_rtag = 0;
    std::uint64_t fin_offset = 0;
    std::uint32_t fin_value = 0;
  };
  util::Ring<ReadServe> read_serves_;

  // Pipelining machinery.
  struct TxItem {
    myrinet::Packet packet;
    bool release_staging = false;
  };
  std::unique_ptr<sim::Mailbox<TxItem>> tx_box_;
  std::unique_ptr<sim::Semaphore> staging_;  // 2 chunk staging buffers

  // Per-peer go-back-N state, indexed by node id; sized at Run. The
  // retransmit buffer lives in a shared SRAM pool of retx_pool_entries
  // framed chunks (allocated at Run); retx_in_use_ tracks its occupancy.
  struct PeerTx {
    explicit PeerTx(std::uint32_t window) : gbn(window) {}
    GbnSender gbn;
    util::Ring<myrinet::Packet> unacked;  // seqs [gbn.base(), gbn.next_seq())
    sim::Tick cur_rto = 0;
    std::uint64_t timer_gen = 0;  // bumping it cancels the armed timer
    bool fast_retx_pending = false;  // coalesces bursts of drop notices
  };
  struct PeerRx {
    GbnReceiver gbn;
    std::uint32_t unacked_data = 0;  // accepted chunks since the last ACK
    std::uint64_t ack_gen = 0;       // bumping it cancels the delayed ACK
  };
  std::vector<PeerTx> peer_tx_;
  std::vector<PeerRx> peer_rx_;
  std::uint32_t retx_in_use_ = 0;

  void UpdateQueueDepth();

  bool running_ = false;
};

}  // namespace vmmc::vmmc_core
