// Central timing/capacity parameters for the simulated platform.
//
// Every constant is motivated by a measurement or statement in the paper
// (section references in comments). Values the paper does not state are
// fitted so that the micro-benchmarks in bench/ reproduce the paper's
// figures; those are marked "fitted".
//
// The platform being modelled (paper §5.1): Dell Dimension P166 PCs
// (166 MHz Pentium, 512 KB L2, Intel 430FX, 64 MB EDO), Myrinet M2F-PCI32
// interfaces (LANai 4.1 @ 33 MHz, 256 KB SRAM), M2F-SW8 switch, Linux 2.0.
#pragma once

#include <cstdint>

#include "vmmc/sim/time.h"

namespace vmmc {

// ---------------------------------------------------------------------------
// PCI bus (§5.2 "Hardware Limits")
// ---------------------------------------------------------------------------
struct PciParams {
  // Measured memory-mapped I/O costs over PCI (§5.2): read 0.422 us,
  // write 0.121 us.
  sim::Tick pio_read = 422;
  sim::Tick pio_write = 121;

  // Raw DMA engine stream rate once a burst is running. Fitted with
  // dma_block_overhead so that Figure 1 reproduces: ~110 MB/s at 4 KB
  // blocks, ~128 MB/s at 64 KB blocks (PCI theoretical peak is 132 MB/s).
  double dma_peak_mb_s = 129.4;

  // Bus arbitration + DMA engine start cost per transfer. The paper's
  // receive-side budget (§5.2) charges "about 2 us" for arbitration +
  // host-DMA initiation + putting one word in host memory.
  sim::Tick dma_init = 1500;  // fitted

  // Additional per-block software cost of the LANai descriptor loop used
  // when streaming blocks back-to-back (Figure 1 measures DMA bandwidth
  // including this loop). Fitted: 1.5 + 4.1 + 4096B/129.4MBs = 37.2 us
  // per 4 KB block -> 110 MB/s.
  sim::Tick dma_loop_sw = 4100;  // fitted
};

// ---------------------------------------------------------------------------
// Host CPU / OS (§5.1, §5.4)
// ---------------------------------------------------------------------------
struct HostParams {
  double cpu_mhz = 166.0;

  // Library bcopy bandwidth measured in §5.4: "in the range of 50 MB/s
  // depending on the size of the data copied".
  double bcopy_mb_s = 50.0;
  sim::Tick bcopy_call = 300;  // fitted per-call cost of the copy routine

  // User-level VMMC library entry: argument checking, protocol selection
  // (short vs long), send-queue slot management. Fitted so that the
  // synchronous send overhead of a small message is ~3 us (Figure 4).
  sim::Tick lib_send_overhead = 2000;

  // Spin-loop poll granularity when waiting on a completion word in cache
  // (§4.5: "the user program [spins] on a cache location").
  sim::Tick spin_poll = 250;  // fitted

  // Kernel interrupt entry + dispatch to a driver handler (Linux 2.0).
  sim::Tick interrupt_entry = 4000;  // fitted

  // Signal delivery to a user-level handler (used for notifications,
  // §4.1/§5.1 "code that invokes notifications using signals").
  sim::Tick signal_delivery = 18000;  // fitted (tens of us on Linux 2.0)

  // Generic system call / daemon request overhead (export/import path).
  sim::Tick syscall = 5000;  // fitted; setup path only, not performance critical
};

// ---------------------------------------------------------------------------
// Myrinet fabric (§3). Link errors are not a parameter: sim::FaultPlan
// (sim/fault.h) injects them.
// ---------------------------------------------------------------------------
struct NetParams {
  // "The network link can deliver 1.28 Gbits/sec bandwidth in each
  // direction" (§3) = 160 MB/s.
  double link_mb_s = 160.0;

  // Cut-through forwarding latency per switch hop (fitted; Myricom quotes
  // sub-microsecond switch latency).
  sim::Tick switch_latency = 300;

  // Cable propagation per link (ns).
  sim::Tick link_latency = 50;

  // Per-output-port buffering inside a switch, in bytes (the slack that
  // stands in for wormhole flit buffers; fitted — Myricom does not publish
  // it). A routed packet that does not fit waits on its inbound wire,
  // stalling that upstream link, and every packet behind it on that wire,
  // until the output drains: head-of-line blocking and incast
  // tree-saturation emerge from this bound. A port always accepts at least
  // one packet regardless of size (guarantees progress). Must be > 0; the
  // switch rejects 0.
  std::uint32_t switch_port_queue_bytes = 16 * 1024;
};

// ---------------------------------------------------------------------------
// LANai network interface (§3, §4.5) — LANai 4.1 @ 33 MHz, 256 KB SRAM.
// ---------------------------------------------------------------------------
struct LanaiParams {
  double clock_mhz = 33.0;
  std::uint32_t sram_bytes = 256 * 1024;

  // Main-loop dispatch: time from "work becomes available" to the LCP
  // picking it up when idle (poll loop granularity). Fitted.
  sim::Tick main_loop_poll = 590;

  // Scanning the send queues of all possible senders (§6: "Picking up a
  // send request in Myrinet requires scanning send queues of all possible
  // senders"). Base cost plus a per-registered-process increment.
  sim::Tick pickup_base = 800;
  sim::Tick pickup_per_process = 200;

  // Software virtual->physical translation via the SRAM TLB (§4.5).
  sim::Tick tlb_lookup = 500;

  // Building the chunk header: indexing the outgoing page table, computing
  // the two scatter addresses (§4.5). §6: translation + header preparation
  // in software makes Myrinet send initiation >= 2x SHRIMP's 2-3 us.
  sim::Tick header_prep = 800;

  // Starting a network-DMA (SRAM -> wire or wire -> SRAM).
  sim::Tick net_dma_init = 400;

  // LANai-side copy of short-send payload from the send queue into the
  // network buffer (§5.3), per 4-byte word.
  sim::Tick short_copy_per_word = 60;
  sim::Tick short_copy_base = 300;

  // Receive path: parse header, check the incoming page table, compute
  // scatter lengths (§4.5).
  sim::Tick recv_process = 800;

  // Per-chunk bookkeeping in the tight sending loop (request state update,
  // scatter-address computation, DMA programming; §5.3). Fitted so a long
  // send sustains ~108 MB/s = 98% of the Figure 1 limit at 4 KB.
  sim::Tick chunk_overhead = 4150;

  // Extra per-chunk cost when the LCP must run through its main software
  // state machine instead of the tight sending loop (§5.3, bidirectional
  // traffic: 91 vs 108.4 MB/s).
  sim::Tick main_loop_extra = 9400;

  // SRAM reserved for LCP code + global data + network staging buffers;
  // what remains is available for per-process queues/tables (§4.4, §6).
  std::uint32_t lcp_reserved_bytes = 64 * 1024;

  // Completion-status write-back to user space, one word via LANai->host
  // DMA (§4.5); overlaps with subsequent work, so only the init cost hits
  // the critical path.
  sim::Tick completion_writeback = 300;

  // Cost of raising a host interrupt (TLB miss service, notifications).
  sim::Tick raise_interrupt = 500;

  // Resolving an rtag-addressed chunk against the SRAM registered-region
  // table (one hash probe + bounds check + frame-list index; cheaper than
  // tlb_lookup, which walks a set-associative structure). Charged only on
  // kFlagRtag packets, so the paper-path figures are unaffected.
  sim::Tick rtag_lookup = 250;  // fitted
};

// ---------------------------------------------------------------------------
// LCP reliability protocol (beyond the paper: §4.2 detects CRC errors but
// never recovers; this go-back-N layer, always on, retransmits so every
// VMMC send survives injected faults — see DESIGN.md "Fault model and
// retransmission").
// ---------------------------------------------------------------------------
struct ReliabilityParams {
  // Go-back-N window per destination node, bounded globally by the SRAM
  // retransmit pool below.
  std::uint32_t window = 16;

  // Retransmit pool in LANai SRAM: slots of (header + chunk_bytes) each,
  // shared across destinations. The window closes when the pool is full.
  std::uint32_t retx_pool_entries = 16;

  // Cumulative-ACK policy: ack immediately after this many unacked data
  // chunks, or when the delayed-ack timer expires. 8 = window/2 keeps the
  // sender pipeline full while acks stay off the fast path (a per-chunk
  // ack would knock the sender out of its §5.3 tight loop).
  std::uint32_t ack_every = 8;
  sim::Tick ack_delay = 50'000;  // 50 us

  // Retransmit timeout with exponential backoff. RTT for a 4 KB chunk is
  // ~40 us; 250 us tolerates delayed-ack batching without spurious resends.
  sim::Tick rto = 250'000;
  sim::Tick rto_max = 4'000'000;

  // LANai costs: building/parsing an ACK is a few header words, much less
  // than full recv_process.
  sim::Tick ack_send = 300;
  sim::Tick ack_process = 300;
};

// ---------------------------------------------------------------------------
// Registration (pin-down) cache — beyond the paper. The core idea of
// "User Mode Memory Page Management" (PAPERS.md): keep user buffers
// pinned across transfers so the steady state pays no pin/syscall cost.
// ---------------------------------------------------------------------------
struct RegCacheParams {
  // Master switch. Off makes every RegisterMemory a cold pin and every
  // UnregisterMemory an immediate unpin — the ablation baseline.
  bool enabled = true;

  // Total bytes the cache may keep pinned (idle entries included). LRU
  // eviction unpins idle entries to get under budget; entries with live
  // references are never evicted.
  std::uint64_t budget_bytes = 8ull * 1024 * 1024;

  // Cold-miss costs: one kernel crossing for the pin-down call, then a
  // per-page walk+lock (mirrors the driver's TLB-fill service cost).
  sim::Tick pin_page = 300;
  // Cache hit: a hash lookup and refcount bump in the user library.
  sim::Tick hit_lookup = 150;  // fitted
};

// ---------------------------------------------------------------------------
// MPI-style point-to-point protocol selection (MPICH2-over-InfiniBand
// playbook, PAPERS.md): eager copy-through below the crossover,
// rendezvous zero-copy RDMA above it.
// ---------------------------------------------------------------------------
struct P2pParams {
  // Protocol crossover in bytes: messages <= eager_max are copied through
  // the preposted slot; larger ones post an RTS and the receiver pulls
  // the payload with a zero-copy RdmaRead (reader-pull rendezvous).
  // Tuned from bench/abl_rendezvous (EXPERIMENTS.md "Eager vs rendezvous
  // crossover"): with the default host/NIC costs eager still wins at
  // 384 B and loses at 512 B, so the default splits the bracket.
  std::uint32_t eager_max = 448;

  // Spin granularity while waiting on slot/fin words.
  sim::Tick poll = 1'000;
};

// ---------------------------------------------------------------------------
// VMMC protocol constants (§4.4, §4.5)
// ---------------------------------------------------------------------------
struct VmmcParams {
  // Short-send threshold: "currently up to 128 bytes" (§4.5); §5.3 argues
  // why not lower (sync overhead) or higher (SRAM size).
  std::uint32_t short_send_max = 128;

  // Long messages are sent in chunks of the page size (§4.5).
  std::uint32_t chunk_bytes = 4096;

  // Maximum long-send size: 8 MB (§4.5).
  std::uint64_t max_send_bytes = 8ull * 1024 * 1024;

  // Send queue depth per process (entries live in LANai SRAM).
  std::uint32_t send_queue_entries = 16;

  // Outgoing page table per process: limits total imported receive buffer
  // space; "current limit is 8 MBytes" (§4.4) = 2048 proxy pages.
  std::uint32_t outgoing_pt_pages = 2048;

  // Software TLB: two-way set associative, translations for up to 8 MB of
  // address space per process (§4.5) = 2048 pages.
  std::uint32_t tlb_ways = 2;
  std::uint32_t tlb_total_entries = 2048;

  // "On one interrupt, translations for up to 32 pages are inserted into
  // the SRAM TLB" (§4.5).
  std::uint32_t tlb_fill_batch = 32;

  // Optimizations credited for reaching 98% of the bandwidth limit (§5.3):
  // host-DMA/net-DMA pipelining and header precomputation. Exposed as
  // switches for the ablation benches.
  bool pipeline_dma = true;
  bool precompute_headers = true;

  // Go-back-N retransmission layer (beyond the paper).
  ReliabilityParams reliability;

  // Registration cache and point-to-point protocol selection (beyond the
  // paper; ROADMAP item 3).
  RegCacheParams regcache;
  P2pParams p2p;
};

// ---------------------------------------------------------------------------
// Ethernet control network (daemons; §4.1) and the UDP/RPC baseline.
// ---------------------------------------------------------------------------
struct EthernetParams {
  double bandwidth_mb_s = 1.1;        // 10 Mb/s minus framing overhead
  sim::Tick frame_latency = 100'000;  // per-frame one-way latency + stack
  std::uint32_t mtu = 1500;
  // Kernel UDP socket path costs (send/receive syscall + protocol stack).
  sim::Tick udp_stack = 120'000;
};

// ---------------------------------------------------------------------------
// vRPC (§5.4): SunRPC-compatible RPC over VMMC.
// ---------------------------------------------------------------------------
struct VrpcParams {
  // Collapsed SunRPC compatibility layers on the client (stub + runtime;
  // §5.4 "collapse certain layers into a new single thin layer"). Fitted
  // so a null RPC round trip lands near the paper's 66 us.
  sim::Tick client_stub = 6'000;
  // Server-side dispatch: duplicate-xid cache, auth, procedure lookup.
  sim::Tick server_dispatch = 6'000;
  // Fixed XDR marshal/unmarshal cost per message, plus a per-byte rate
  // (XDR touches every byte on the 166 MHz host).
  sim::Tick xdr_per_call = 2'000;
  // Bulk opaque data is not byte-transformed by XDR (it is moved by the
  // receive copy, charged separately); only headers/structures are walked.
  double xdr_mb_s = 2000.0;
  // The leaner costs of the non-compatible fast-path RPC ([2]: dropping
  // SunRPC compatibility allows bandwidth close to raw VMMC).
  sim::Tick fast_client_stub = 2'000;
  sim::Tick fast_server_dispatch = 2'000;
  // Request/reply slot size for the VMMC transport.
  std::uint32_t slot_bytes = 256 * 1024;
  // Server/client poll granularity on commit words.
  sim::Tick poll = 1'000;
};

// ---------------------------------------------------------------------------
// SHRIMP comparison platform (§6)
// ---------------------------------------------------------------------------
struct ShrimpParams {
  // EISA bus: user-to-user bandwidth equals the achievable hardware limit
  // of 23 MB/s (§6).
  double eisa_dma_mb_s = 23.0;
  sim::Tick eisa_dma_init = 1200;

  // EISA memory-mapped I/O is slower than PCI.
  sim::Tick pio_write = 500;   // fitted
  sim::Tick pio_read = 1200;   // fitted

  // "A user process can initiate a deliberate update transfer with just
  // two memory-mapped I/O instructions" (§6); the NIC state machine takes
  // "about 2-3 us to verify permissions, access the outgoing page table,
  // build a packet and start sending data".
  sim::Tick hw_engine_process = 1500;  // fitted into the 2-3 us budget

  // Receive side: hardware state machine DMAs into pinned buffers.
  sim::Tick hw_recv_process = 800;

  // One-word deliberate-update latency is about 7 us (§6).

  // Automatic update (§6 footnote: the snooping card captures writes from
  // the memory bus and sends them to the destination — no send instruction
  // at all). Costs: the user's stores, plus packetization in the snoop
  // hardware; no EISA DMA fetch is needed since the data comes off the bus.
  sim::Tick snoop_pack = 800;
  sim::Tick store_per_word = 30;  // write to own memory through the bus
};

// Everything in one bag; most constructors take a const Params&.
struct Params {
  PciParams pci;
  VrpcParams vrpc;
  HostParams host;
  NetParams net;
  LanaiParams lanai;
  VmmcParams vmmc;
  EthernetParams ethernet;
  ShrimpParams shrimp;
};

// The default-calibrated parameter set (matches the paper's platform).
inline const Params& DefaultParams() {
  static const Params p{};
  return p;
}

}  // namespace vmmc
