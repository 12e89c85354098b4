#include "vmmc/vmmc/lcp.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "vmmc/util/log.h"

namespace vmmc::vmmc_core {

using mem::kPageSize;

namespace {
// Sinks used until Run binds the registry (and forever for an LCP that is
// constructed but never booted), so the counting paths never branch.
obs::Counter g_unbound_counter;
obs::Gauge g_unbound_gauge;
obs::Histo g_unbound_histo;
}  // namespace

ProcState::ProcState(sim::Simulator& sim, const VmmcParams& params,
                     host::UserProcess& process)
    : tlb_filled(sim),
      process_(&process),
      outgoing_(params.outgoing_pt_pages),
      tlb_(params.tlb_total_entries, params.tlb_ways),
      queue_slots_(sim, params.send_queue_entries) {
  completion_events.reserve(params.send_queue_entries);
  for (std::uint32_t i = 0; i < params.send_queue_entries; ++i) {
    completion_events.push_back(std::make_unique<sim::Event>(sim));
  }
}

VmmcLcp::VmmcLcp(const Params& params, RouteTable routes)
    : params_(params), routes_(std::move(routes)) {
  obs_.sends = &g_unbound_counter;
  obs_.chunks_sent = &g_unbound_counter;
  obs_.bytes_sent = &g_unbound_counter;
  obs_.chunks_received = &g_unbound_counter;
  obs_.bytes_received = &g_unbound_counter;
  obs_.tlb_miss_interrupts = &g_unbound_counter;
  obs_.protection_violations = &g_unbound_counter;
  obs_.crc_drops = &g_unbound_counter;
  obs_.notifications = &g_unbound_counter;
  obs_.send_queue_depth = &g_unbound_gauge;
  obs_.host_dma_ns = &g_unbound_histo;
  obs_.translate_ns = &g_unbound_histo;
  obs_.acks_sent = &g_unbound_counter;
  obs_.acks_received = &g_unbound_counter;
  obs_.retransmits = &g_unbound_counter;
  obs_.retransmit_timeouts = &g_unbound_counter;
  obs_.duplicate_chunks = &g_unbound_counter;
  obs_.out_of_order_chunks = &g_unbound_counter;
  obs_.drop_notices = &g_unbound_counter;
  obs_.window_stalls = &g_unbound_counter;
  obs_.retx_in_use = &g_unbound_gauge;
  obs_.rdma_writes = &g_unbound_counter;
  obs_.rdma_reads_served = &g_unbound_counter;
}

void VmmcLcp::BindObs() {
  const std::string node = "node" + std::to_string(nic_->nic_id());
  obs::Registry& m = nic_->simulator().metrics();
  obs_.sends = &m.GetCounter(node + ".lcp.sends");
  obs_.chunks_sent = &m.GetCounter(node + ".lcp.chunks_sent");
  obs_.bytes_sent = &m.GetCounter(node + ".lcp.bytes_sent");
  obs_.chunks_received = &m.GetCounter(node + ".lcp.chunks_received");
  obs_.bytes_received = &m.GetCounter(node + ".lcp.bytes_received");
  obs_.tlb_miss_interrupts = &m.GetCounter(node + ".lcp.tlb_miss_interrupts");
  obs_.protection_violations =
      &m.GetCounter(node + ".lcp.protection_violations");
  obs_.crc_drops = &m.GetCounter(node + ".lcp.crc_drops");
  obs_.notifications = &m.GetCounter(node + ".lcp.notifications");
  obs_.send_queue_depth = &m.GetGauge(node + ".lcp.send_queue_depth");
  obs_.host_dma_ns = &m.GetHisto(node + ".lcp.host_dma_ns");
  obs_.translate_ns = &m.GetHisto(node + ".lcp.translate_ns");
  obs_.tlb_hits = &m.GetCounter(node + ".tlb.hit");
  obs_.tlb_misses = &m.GetCounter(node + ".tlb.miss");
  obs_.tlb_evictions = &m.GetCounter(node + ".tlb.eviction");
  obs_.acks_sent = &m.GetCounter(node + ".lcp.acks_sent");
  obs_.acks_received = &m.GetCounter(node + ".lcp.acks_received");
  obs_.retransmits = &m.GetCounter(node + ".lcp.retransmits");
  obs_.retransmit_timeouts = &m.GetCounter(node + ".lcp.retransmit_timeouts");
  obs_.duplicate_chunks = &m.GetCounter(node + ".lcp.duplicate_chunks");
  obs_.out_of_order_chunks = &m.GetCounter(node + ".lcp.out_of_order_chunks");
  obs_.drop_notices = &m.GetCounter(node + ".lcp.drop_notices");
  obs_.window_stalls = &m.GetCounter(node + ".lcp.window_stalls");
  obs_.retx_in_use = &m.GetGauge(node + ".lcp.retx_in_use");
  obs_.rdma_writes = &m.GetCounter(node + ".lcp.rdma_writes");
  obs_.rdma_reads_served = &m.GetCounter(node + ".lcp.rdma_reads_served");
  obs_.track = nic_->simulator().tracer().RegisterTrack(node + ".lcp");
}

// ---------------------------------------------------------------------------
// Host-visible interface
// ---------------------------------------------------------------------------

Result<ProcState*> VmmcLcp::RegisterProcess(host::UserProcess& process) {
  assert(nic_ != nullptr && "LCP not running yet (boot the cluster first)");
  if (FindProc(process.pid()) != nullptr) {
    return AlreadyExists("process already registered with VMMC");
  }
  const VmmcParams& vp = params_.vmmc;
  lanai::Sram& sram = nic_->sram();
  const std::string tag = std::to_string(process.pid());

  // Every per-process structure is accounted in SRAM; running out is the
  // resource pressure §6 attributes to the Myrinet design.
  auto queue = sram.Allocate(
      "sendq-" + tag, vp.send_queue_entries * (16 + vp.short_send_max));
  if (!queue.ok()) return queue.status();
  auto opt = sram.Allocate("outpt-" + tag, vp.outgoing_pt_pages * 4);
  if (!opt.ok()) {
    (void)sram.Free(queue.value());
    return opt.status();
  }
  auto tlb = sram.Allocate("tlb-" + tag, vp.tlb_total_entries * 8);
  if (!tlb.ok()) {
    (void)sram.Free(queue.value());
    (void)sram.Free(opt.value());
    return tlb.status();
  }

  auto state = std::make_unique<ProcState>(nic_->simulator(), vp, process);
  state->sram_regions = {queue.value(), opt.value(), tlb.value()};
  // All processes on a node share the node<N>.tlb.* counters: the paper's
  // TLB pressure question is per NIC, not per process.
  state->tlb().BindMetrics(obs_.tlb_hits, obs_.tlb_misses, obs_.tlb_evictions);
  procs_.push_back(std::move(state));
  return procs_.back().get();
}

Status VmmcLcp::UnregisterProcess(int pid) {
  // Drop any registered regions the process still owns (a process that
  // dies mid-RDMA must not leave dangling rtags behind).
  for (auto it = recv_regions_.begin(); it != recv_regions_.end();) {
    if (it->second.pid == pid) {
      (void)nic_->sram().Free(it->second.sram_region);
      it = recv_regions_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = procs_.begin(); it != procs_.end(); ++it) {
    if ((*it)->pid() == pid) {
      for (std::uint32_t off : (*it)->sram_regions) (void)nic_->sram().Free(off);
      procs_.erase(it);
      rr_cursor_ = 0;
      return OkStatus();
    }
  }
  return NotFound("pid not registered");
}

ProcState* VmmcLcp::FindProc(int pid) {
  for (auto& p : procs_) {
    if (p->pid() == pid) return p.get();
  }
  return nullptr;
}

Status VmmcLcp::PostSend(ProcState& proc, SendRequest request) {
  if (request.slot >= proc.completion_events.size()) {
    return InvalidArgument("bad completion slot");
  }
  proc.send_queue().push_back(std::move(request));
  UpdateQueueDepth();
  nic_->NotifyWork();
  return OkStatus();
}

// Total entries queued across all processes, as a sim-time-weighted gauge:
// its TimeWeightedMean is the average backlog the LCP ran against.
void VmmcLcp::UpdateQueueDepth() {
  std::size_t depth = 0;
  for (const auto& p : procs_) depth += p->send_queue().size();
  obs_.send_queue_depth->Set(nic_->simulator().now(),
                             static_cast<double>(depth));
}

std::optional<std::pair<int, mem::Vpn>> VmmcLcp::TakePendingTlbMiss() {
  for (auto& p : procs_) {
    if (p->pending_miss.has_value()) {
      mem::Vpn vpn = *p->pending_miss;
      p->pending_miss.reset();
      return std::make_pair(p->pid(), vpn);
    }
  }
  return std::nullopt;
}

void VmmcLcp::CompleteTlbFill(
    int pid, const std::vector<std::pair<mem::Vpn, mem::Pfn>>& fills) {
  ProcState* proc = FindProc(pid);
  if (proc == nullptr) return;
  for (const auto& [vpn, pfn] : fills) proc->tlb().Insert(vpn, pfn);
  proc->tlb_filled.Set();
}

std::optional<PendingNotification> VmmcLcp::PopNotification() {
  if (notifications_.empty()) return std::nullopt;
  PendingNotification n = notifications_.front();
  notifications_.pop_front();
  return n;
}

// ---------------------------------------------------------------------------
// Registered receive regions (rkey model)
// ---------------------------------------------------------------------------

Result<std::uint32_t> VmmcLcp::CreateRecvRegion(int pid,
                                                std::uint64_t first_page_offset,
                                                std::uint64_t len,
                                                std::vector<mem::Pfn> frames) {
  assert(nic_ != nullptr && "LCP not running yet");
  if (len == 0 || frames.empty()) {
    return InvalidArgument("empty recv region");
  }
  if (first_page_offset + len > frames.size() * kPageSize) {
    return InvalidArgument("recv region length exceeds its frame list");
  }
  const std::uint32_t rtag = next_rtag_++;
  // The table entry lives in SRAM: a fixed header plus one word-pair per
  // frame. Running out of SRAM is the same §6 resource pressure every
  // other per-process structure is subject to.
  auto sram = nic_->sram().Allocate(
      "rtag-" + std::to_string(rtag),
      16 + 8 * static_cast<std::uint32_t>(frames.size()));
  if (!sram.ok()) return sram.status();
  RecvRegion region;
  region.pid = pid;
  region.first_page_offset = first_page_offset;
  region.len = len;
  region.frames = std::move(frames);
  region.sram_region = sram.value();
  recv_regions_.emplace(rtag, std::move(region));
  return rtag;
}

Status VmmcLcp::ReleaseRecvRegion(std::uint32_t rtag) {
  auto it = recv_regions_.find(rtag);
  if (it == recv_regions_.end()) return NotFound("no such rtag");
  (void)nic_->sram().Free(it->second.sram_region);
  recv_regions_.erase(it);
  return OkStatus();
}

Status VmmcLcp::GrowRecvRegion(std::uint32_t rtag, std::uint64_t len) {
  auto it = recv_regions_.find(rtag);
  if (it == recv_regions_.end()) return NotFound("no such rtag");
  RecvRegion& r = it->second;
  if (r.first_page_offset + len > r.frames.size() * kPageSize) {
    return InvalidArgument("recv region length exceeds its frame list");
  }
  r.len = std::max(r.len, len);
  return OkStatus();
}

const VmmcLcp::RecvRegion* VmmcLcp::FindRecvRegion(std::uint32_t rtag) const {
  auto it = recv_regions_.find(rtag);
  return it == recv_regions_.end() ? nullptr : &it->second;
}

Result<VmmcLcp::RtagTarget> VmmcLcp::ResolveRtag(std::uint32_t rtag,
                                                 std::uint64_t offset,
                                                 std::uint32_t chunk_len) const {
  auto it = recv_regions_.find(rtag);
  if (it == recv_regions_.end()) return NotFound("unknown rtag");
  const RecvRegion& r = it->second;
  if (chunk_len == 0 || offset > r.len || offset + chunk_len > r.len) {
    return PermissionDenied("rtag access outside the registered region");
  }
  // Chunks are at most a page, so they span at most one frame boundary.
  assert(chunk_len <= kPageSize);
  const std::uint64_t abs = r.first_page_offset + offset;
  const std::uint64_t page = abs / kPageSize;
  RtagTarget t;
  t.pa0 = mem::PageAddr(r.frames[page]) + abs % kPageSize;
  const std::uint64_t last_page = (abs + chunk_len - 1) / kPageSize;
  if (last_page != page) {
    t.pa1 = mem::PageAddr(r.frames[page + 1]);
    t.seg0 = static_cast<std::uint32_t>(kPageSize - abs % kPageSize);
  } else {
    t.seg0 = chunk_len;
  }
  return t;
}

// ---------------------------------------------------------------------------
// LCP main loop
// ---------------------------------------------------------------------------

sim::Process VmmcLcp::Run(lanai::NicCard& nic) {
  nic_ = &nic;
  BindObs();
  // Code + global data + staging buffers; capacity pressure for §6.
  auto reserved = nic.sram().Allocate("lcp-code+staging",
                                      params_.lanai.lcp_reserved_bytes);
  assert(reserved.ok());
  (void)reserved;

  incoming_ = std::make_unique<IncomingPageTable>(nic.machine().memory().num_frames());
  tx_box_ = std::make_unique<sim::Mailbox<TxItem>>(nic.simulator());
  staging_ = std::make_unique<sim::Semaphore>(nic.simulator(), 2);

  // Go-back-N peer state, one sender/receiver pair per reachable node,
  // and the shared SRAM retransmit pool backing the unacked packets.
  const ReliabilityParams& rel = params_.vmmc.reliability;
  peer_tx_.clear();
  peer_rx_.clear();
  for (std::size_t i = 0; i < routes_.size(); ++i) {
    peer_tx_.emplace_back(rel.window);
    peer_rx_.emplace_back();
  }
  if (rel.enabled) {
    auto pool = nic.sram().Allocate(
        "retx-pool",
        rel.retx_pool_entries *
            (static_cast<std::uint32_t>(ChunkHeader::kWireSize) +
             params_.vmmc.chunk_bytes));
    assert(pool.ok() && "SRAM too small for the retransmit pool");
    (void)pool;
  }

  nic.simulator().Spawn(TxPump(nic));
  running_ = true;

  for (;;) {
    co_await nic.AwaitWork();
    while (nic.work_pending()) co_await nic.AwaitWork();  // collapse tokens
    co_await nic.cpu().Exec(params_.lanai.main_loop_poll);

    for (;;) {
      // Incoming packets first: the LCP "needs to be responsive to
      // unexpected, external events, such as the arrival of incoming data
      // packets" (§5.3).
      if (auto rp = nic.rx_queue().TryGet()) {
        co_await HandleRecv(nic, std::move(*rp));
        continue;
      }
      // One-sided reads we are serving for remote requesters: one chunk
      // per iteration, between receive handling and local send pickup, so
      // neither side starves the other for more than a chunk. A front
      // request blocked on a closed window is not runnable; the ACK that
      // reopens it posts a work token like any other packet.
      if (!read_serves_.empty() &&
          (!reliable() || WindowOpen(read_serves_.front().requester))) {
        co_await ServeReadChunk(nic);
        continue;
      }
      ProcState* proc = NextProcWithWork();
      if (proc == nullptr) break;
      if (proc->active.has_value()) {
        // Advance the long send in flight by one chunk, then loop back so
        // incoming packets interleave with outgoing chunks.
        co_await SendOneChunk(nic, *proc);
        continue;
      }
      // Picking up a new send request requires scanning the send queues
      // of all possible senders (§6).
      co_await nic.cpu().Exec(params_.lanai.pickup_base +
                              params_.lanai.pickup_per_process *
                                  static_cast<sim::Tick>(procs_.size()));
      SendRequest req = std::move(proc->send_queue().front());
      proc->send_queue().pop_front();
      UpdateQueueDepth();
      co_await StartSend(nic, *proc, std::move(req));
    }
  }
}

ProcState* VmmcLcp::NextProcWithWork() {
  if (procs_.empty()) return nullptr;
  for (std::size_t i = 0; i < procs_.size(); ++i) {
    std::size_t idx = (rr_cursor_ + i) % procs_.size();
    ProcState& p = *procs_[idx];
    if (p.active.has_value()) {
      // A send parked on a closed go-back-N window is not runnable until
      // an ACK reopens the window; the inner loop re-polls after every
      // received packet, so progress resumes as soon as the ACK lands.
      if (reliable() && !WindowOpen(p.active->dst_node)) continue;
    } else if (p.send_queue().empty()) {
      continue;
    }
    rr_cursor_ = (idx + 1) % procs_.size();
    return &p;
  }
  return nullptr;
}

// Completes a request: completion word, slot, SRAM queue-entry release.
void VmmcLcp::FinishRequest(ProcState& proc, std::uint32_t slot,
                            SendStatus status) {
  WriteCompletion(proc, slot, status);
  proc.queue_slots().Release();
}

sim::Process VmmcLcp::TxPump(lanai::NicCard& nic) {
  for (;;) {
    TxItem item = co_await tx_box_->Get();
    co_await nic.NetSend(std::move(item.packet));
    if (item.release_staging) staging_->Release();
  }
}

void VmmcLcp::WriteCompletion(ProcState& proc, std::uint32_t slot,
                              SendStatus status) {
  if (proc.completion_base != 0) {
    (void)proc.process().address_space().WriteU32(
        proc.completion_base + slot * 4, static_cast<std::uint32_t>(status));
  }
  proc.completion_events[slot]->Set();
  if (status != SendStatus::kDone) ++stats_.send_errors;
}

// ---------------------------------------------------------------------------
// Send path
// ---------------------------------------------------------------------------

Result<std::pair<std::uint64_t, std::uint64_t>> VmmcLcp::ResolveChunkTarget(
    ProcState& proc, ProxyAddr proxy, std::uint32_t chunk_len,
    std::uint32_t* dst_node) {
  const std::uint64_t first_page = ProxyPage(proxy);
  auto t0 = proc.outgoing().Lookup(static_cast<std::uint32_t>(first_page));
  if (!t0.ok()) return t0.status();
  const std::uint64_t pa0 = mem::PageAddr(t0.value().pfn) + ProxyOffset(proxy);
  std::uint64_t pa1 = 0;
  if (chunk_len > 0 &&
      mem::PageNumber(proxy + chunk_len - 1) != first_page) {
    auto t1 = proc.outgoing().Lookup(static_cast<std::uint32_t>(first_page + 1));
    if (!t1.ok()) return t1.status();
    if (t1.value().node != t0.value().node) {
      return PermissionDenied("chunk spans imports on different nodes");
    }
    pa1 = mem::PageAddr(t1.value().pfn);
  }
  *dst_node = t0.value().node;
  return std::make_pair(pa0, pa1);
}

sim::Task<Result<mem::Pfn>> VmmcLcp::TranslateSrc(lanai::NicCard& nic,
                                                  ProcState& proc,
                                                  mem::Vpn vpn) {
  const sim::Tick t0 = nic.simulator().now();
  for (int attempt = 0; attempt < 2; ++attempt) {
    co_await nic.cpu().Exec(params_.lanai.tlb_lookup);
    mem::Pfn pfn = 0;
    if (proc.tlb().Lookup(vpn, &pfn)) {
      obs_.translate_ns->Observe(
          static_cast<double>(nic.simulator().now() - t0));
      co_return pfn;
    }
    if (attempt == 1) break;
    // Miss: interrupt the host; the driver pins the pages and inserts up
    // to 32 translations (§4.5), then wakes us.
    ++stats_.tlb_miss_interrupts;
    obs_.tlb_miss_interrupts->Inc();
    auto miss_span = obs_.track >= 0
                         ? nic.simulator().tracer().Scope(obs_.track, "tlb_miss")
                         : obs::Tracer::Span();
    proc.pending_miss = vpn;
    proc.tlb_filled.Reset();
    co_await nic.cpu().Exec(params_.lanai.raise_interrupt);
    nic.RaiseHostInterrupt();
    co_await proc.tlb_filled.Wait();
  }
  // The driver could not translate: the source page is not mapped.
  obs_.translate_ns->Observe(static_cast<double>(nic.simulator().now() - t0));
  co_return Result<mem::Pfn>(NotFound("source page unmapped"));
}

sim::Process VmmcLcp::StartSend(lanai::NicCard& nic, ProcState& proc,
                                SendRequest req) {
  ++stats_.sends_processed;
  obs_.sends->Inc();
  if (req.len == 0 || req.len > params_.vmmc.max_send_bytes) {
    FinishRequest(proc, req.slot, SendStatus::kBadLength);
    co_return;
  }
  if (req.read != nullptr) {
    // One-sided read: a single control packet toward the serving node.
    const std::uint32_t dst_node = req.read->src_node;
    if (dst_node >= routes_.size()) {
      FinishRequest(proc, req.slot, SendStatus::kBadProxy);
      co_return;
    }
    ++stats_.rdma_read_requests;
    if (!reliable() || WindowOpen(dst_node)) {
      co_await SendReadRequest(nic, proc, req);
    } else {
      ++stats_.window_stalls;
      obs_.window_stalls->Inc();
      proc.active = ProcState::ActiveLongSend{std::move(req), 0, true, dst_node};
    }
    co_return;
  }
  if (req.direct != nullptr) {
    // One-sided write: rtag addressing, no proxy validation here — the
    // serving side's region table is the protection boundary. Any length
    // goes through the chunked path (the data is in user memory, not the
    // PIO-written queue entry).
    const std::uint32_t dst_node = req.direct->dst_node;
    if (dst_node >= routes_.size()) {
      FinishRequest(proc, req.slot, SendStatus::kBadProxy);
      co_return;
    }
    ++stats_.rdma_writes;
    obs_.rdma_writes->Inc();
    ++stats_.long_sends;
    proc.active = ProcState::ActiveLongSend{std::move(req), 0, true, dst_node};
    co_return;
  }
  // Resolve and validate the first chunk's destination now; the remaining
  // pages are validated chunk by chunk.
  std::uint32_t dst_node = 0;
  const std::uint32_t first_len = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(req.len, kPageSize - ProxyOffset(req.proxy)));
  auto first_target = ResolveChunkTarget(proc, req.proxy, first_len, &dst_node);
  if (!first_target.ok()) {
    ++stats_.protection_violations;
    obs_.protection_violations->Inc();
    FinishRequest(proc, req.slot, SendStatus::kBadProxy);
    co_return;
  }
  if (dst_node >= routes_.size()) {
    FinishRequest(proc, req.slot, SendStatus::kBadProxy);
    co_return;
  }

  if (req.len <= params_.vmmc.short_send_max) {
    if (!reliable() || WindowOpen(dst_node)) {
      co_await HandleShortSend(nic, proc, req);
    } else {
      // Window to the destination is closed: park the short send as a
      // degenerate active send; SendOneChunk dispatches it once an ACK
      // reopens the window.
      ++stats_.window_stalls;
      obs_.window_stalls->Inc();
      proc.active = ProcState::ActiveLongSend{std::move(req), 0, true, dst_node};
    }
    co_return;
  }
  ++stats_.long_sends;
  proc.active = ProcState::ActiveLongSend{std::move(req), 0, true, dst_node};
}

sim::Process VmmcLcp::HandleShortSend(lanai::NicCard& nic, ProcState& proc,
                                      SendRequest& req) {
  ++stats_.short_sends;
  auto span = obs_.track >= 0
                  ? nic.simulator().tracer().Scope(obs_.track, "short_send")
                  : obs::Tracer::Span();
  std::uint32_t dst_node = 0;
  auto target = ResolveChunkTarget(proc, req.proxy, req.len, &dst_node);
  assert(target.ok());  // validated by StartSend

  // The LANai copies the message data from the send queue into the network
  // buffer (§5.3).
  const sim::Tick words = (req.len + 3) / 4;
  co_await nic.cpu().Exec(params_.lanai.short_copy_base +
                          words * params_.lanai.short_copy_per_word +
                          params_.lanai.header_prep);

  ChunkHeader h;
  h.type = PacketType::kData;
  h.flags = ChunkHeader::kFlagLastChunk |
            (req.notify ? ChunkHeader::kFlagNotify : 0);
  h.src_node = static_cast<std::uint16_t>(nic.nic_id());
  h.msg_len = req.len;
  h.chunk_len = req.len;
  h.dst_pa0 = target.value().first;
  h.dst_pa1 = target.value().second;
  if (reliable()) {
    h.flags |= ChunkHeader::kFlagReliable;
    h.dst_node = static_cast<std::uint16_t>(dst_node);
    h.seq = peer_tx_[dst_node].gbn.next_seq();
  }

  myrinet::Packet pkt;
  pkt.route = routes_[dst_node];
  pkt.payload = EncodeChunk(h, req.inline_data);
  if (reliable()) RecordSentPacket(nic, dst_node, pkt);

  // Hand the packet to the transmit engine first; the completion word is
  // correct either way (the data already lives in SRAM, PIO-copied by the
  // host) and keeping it off the wire's critical path saves latency.
  ++stats_.chunks_sent;
  stats_.bytes_sent += req.len;
  obs_.chunks_sent->Inc();
  obs_.bytes_sent->Inc(req.len);
  tx_box_->Put(TxItem{std::move(pkt), /*release_staging=*/false});
  co_await nic.cpu().Exec(params_.lanai.completion_writeback);
  FinishRequest(proc, req.slot, SendStatus::kDone);
  co_return;
}

sim::Process VmmcLcp::SendOneChunk(lanai::NicCard& nic, ProcState& proc) {
  assert(proc.active.has_value());
  if (proc.active->req.read != nullptr) {
    // A read request parked on a closed window; the scheduler only
    // re-runs it once the window reopened.
    co_await SendReadRequest(nic, proc, proc.active->req);
    proc.active.reset();
    co_return;
  }
  if (proc.active->fin_stage) {
    // Data chunks of a direct send are out; emit the completion fin.
    const DirectSend& d = *proc.active->req.direct;
    co_await SendFinChunk(nic, proc.active->dst_node, d.fin_rtag,
                          d.fin_offset, d.fin_value);
    proc.active.reset();
    co_return;
  }
  if (proc.active->req.direct == nullptr &&
      proc.active->req.len <= params_.vmmc.short_send_max) {
    // A short send parked on a closed window (StartSend); the scheduler
    // only re-runs it once the window reopened.
    co_await HandleShortSend(nic, proc, proc.active->req);
    proc.active.reset();
    co_return;
  }
  auto span = obs_.track >= 0
                  ? nic.simulator().tracer().Scope(obs_.track, "chunk")
                  : obs::Tracer::Span();
  ProcState::ActiveLongSend& as = *proc.active;
  const SendRequest& req = as.req;

  const mem::VirtAddr src = req.src_va + as.offset;
  const ProxyAddr dst = req.proxy + as.offset;
  // First chunk runs to the source page boundary (§4.5); after that the
  // source is page aligned and chunks are chunk_bytes (the page size by
  // default; smaller values exist for the chunk-size ablation).
  const std::uint64_t chunk_cap =
      std::min<std::uint64_t>(params_.vmmc.chunk_bytes,
                              kPageSize - mem::PageOffset(src));
  const std::uint32_t chunk_len = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(req.len - as.offset, chunk_cap));
  const bool last = as.offset + chunk_len == req.len;

  // Tight sending loop vs main software state machine (§5.3): the tight
  // loop is used only while no incoming packets demand attention and this
  // is the only work source.
  const bool tight = params_.vmmc.tight_send_loop && nic.rx_queue().empty() &&
                     !nic.work_pending();
  co_await nic.cpu().Exec(params_.lanai.chunk_overhead +
                          (tight ? 0 : params_.lanai.main_loop_extra));
  if (tight) {
    ++stats_.tight_loop_chunks;
  } else {
    ++stats_.main_loop_chunks;
  }

  // Source translation through the per-process software TLB.
  auto pfn = co_await TranslateSrc(nic, proc, mem::PageNumber(src));
  if (!pfn.ok()) {
    FinishRequest(proc, req.slot, SendStatus::kBadAddress);
    proc.active.reset();
    co_return;
  }
  const mem::PhysAddr src_pa = mem::PageAddr(pfn.value()) + mem::PageOffset(src);

  // Destination for this chunk: rtag-encoded for direct sends (the
  // serving node translates and validates), proxy-resolved otherwise.
  std::uint32_t dst_node = 0;
  std::uint64_t pa0 = 0;
  std::uint64_t pa1 = 0;
  if (req.direct != nullptr) {
    dst_node = req.direct->dst_node;
    pa0 = ChunkHeader::PackRtag(req.direct->rtag,
                                req.direct->offset + as.offset);
  } else {
    auto target = ResolveChunkTarget(proc, dst, chunk_len, &dst_node);
    if (!target.ok()) {
      ++stats_.protection_violations;
      obs_.protection_violations->Inc();
      FinishRequest(proc, req.slot, SendStatus::kBadProxy);
      proc.active.reset();
      co_return;
    }
    pa0 = target.value().first;
    pa1 = target.value().second;
  }
  as.dst_node = dst_node;
  if (reliable() && !WindowOpen(dst_node)) {
    // A proxy region can span imports from different nodes, so a later
    // chunk may target a node whose window is closed even though the
    // scheduler admitted the send by its previous destination. Park; the
    // updated dst_node gates re-scheduling.
    ++stats_.window_stalls;
    obs_.window_stalls->Inc();
    co_return;
  }

  // Header preparation is overlapped with the previous chunk's host DMA
  // when precomputation is on (§4.5); the first header is always paid.
  if (as.first_chunk || !params_.vmmc.precompute_headers) {
    co_await nic.cpu().Exec(params_.lanai.header_prep);
  }
  as.first_chunk = false;

  // Stage the chunk: host memory -> LANai SRAM (pipelined with the
  // network DMA of previous chunks through the staging buffers).
  if (params_.vmmc.pipeline_dma) co_await staging_->Acquire();
  // Zero-copy: DMA the chunk bytes straight into the payload buffer, right
  // after where the wire header will be encoded. The bytes are written
  // here once and every later handoff (switch hops, retx-pool) shares them.
  auto payload =
      myrinet::Buffer::Uninitialized(ChunkHeader::kWireSize + chunk_len);
  const sim::Tick dma_t0 = nic.simulator().now();
  co_await nic.HostDmaRead(
      src_pa, std::span<std::uint8_t>(
                  payload.MutableData() + ChunkHeader::kWireSize, chunk_len));
  obs_.host_dma_ns->Observe(
      static_cast<double>(nic.simulator().now() - dma_t0));

  if (last) {
    // "When the last chunk of a long message is safely stored in the
    // LANai buffer, the LANai reports ... completion status back to user
    // space" (§4.5).
    co_await nic.cpu().Exec(params_.lanai.completion_writeback);
    FinishRequest(proc, req.slot, SendStatus::kDone);
  }

  ChunkHeader h;
  h.type = PacketType::kData;
  h.flags = (last ? ChunkHeader::kFlagLastChunk : 0) |
            (req.notify ? ChunkHeader::kFlagNotify : 0) |
            (req.direct != nullptr ? ChunkHeader::kFlagRtag : 0);
  h.src_node = static_cast<std::uint16_t>(nic.nic_id());
  h.msg_len = req.len;
  h.chunk_len = chunk_len;
  h.dst_pa0 = pa0;
  h.dst_pa1 = pa1;
  if (reliable()) {
    h.flags |= ChunkHeader::kFlagReliable;
    h.dst_node = static_cast<std::uint16_t>(dst_node);
    h.seq = peer_tx_[dst_node].gbn.next_seq();
  }

  myrinet::Packet pkt;
  pkt.route = routes_[dst_node];
  EncodeHeaderInto(h, payload.MutableData());
  pkt.payload = std::move(payload);
  if (reliable()) RecordSentPacket(nic, dst_node, pkt);

  ++stats_.chunks_sent;
  stats_.bytes_sent += chunk_len;
  obs_.chunks_sent->Inc();
  obs_.bytes_sent->Inc(chunk_len);
  if (params_.vmmc.pipeline_dma) {
    tx_box_->Put(TxItem{std::move(pkt), /*release_staging=*/true});
  } else {
    co_await nic.NetSend(std::move(pkt));
  }
  as.offset += chunk_len;
  if (last) {
    if (req.direct != nullptr && req.direct->fin_rtag != 0) {
      as.fin_stage = true;  // the 4-byte fin chunk still has to go out
    } else {
      proc.active.reset();
    }
  }
}

// ---------------------------------------------------------------------------
// One-sided RDMA: read requests, read serving, completion fins
// ---------------------------------------------------------------------------

sim::Process VmmcLcp::SendReadRequest(lanai::NicCard& nic, ProcState& proc,
                                      SendRequest& req) {
  const ReadRequest& rr = *req.read;
  auto span = obs_.track >= 0
                  ? nic.simulator().tracer().Scope(obs_.track, "read_req")
                  : obs::Tracer::Span();
  // A read request is a control short-send: header build plus a three-word
  // payload copy (the fin triple).
  co_await nic.cpu().Exec(params_.lanai.short_copy_base +
                          3 * params_.lanai.short_copy_per_word +
                          params_.lanai.header_prep);
  ChunkHeader h;
  h.type = PacketType::kRdmaRead;
  h.flags = ChunkHeader::kFlagRtag;
  h.src_node = static_cast<std::uint16_t>(nic.nic_id());
  h.msg_len = req.len;  // bytes to read
  h.chunk_len = 12;
  h.dst_pa0 = ChunkHeader::PackRtag(rr.dst_rtag, rr.dst_offset);
  h.dst_pa1 = ChunkHeader::PackRtag(rr.src_rtag, rr.src_offset);
  if (reliable()) {
    h.flags |= ChunkHeader::kFlagReliable;
    h.dst_node = static_cast<std::uint16_t>(rr.src_node);
    h.seq = peer_tx_[rr.src_node].gbn.next_seq();
  }
  std::uint8_t fin[12];
  for (int i = 0; i < 4; ++i) {
    fin[i] = static_cast<std::uint8_t>(rr.fin_rtag >> (8 * i));
    fin[4 + i] = static_cast<std::uint8_t>(rr.fin_offset >> (8 * i));
    fin[8 + i] = static_cast<std::uint8_t>(rr.fin_value >> (8 * i));
  }
  myrinet::Packet pkt;
  pkt.route = routes_[rr.src_node];
  pkt.payload = EncodeChunk(h, fin);
  if (reliable()) RecordSentPacket(nic, rr.src_node, pkt);
  ++stats_.chunks_sent;
  obs_.chunks_sent->Inc();
  tx_box_->Put(TxItem{std::move(pkt), /*release_staging=*/false});
  // The request is on its way; the caller's completion word flips now and
  // the data's arrival is signalled by the fin word, not this slot.
  co_await nic.cpu().Exec(params_.lanai.completion_writeback);
  FinishRequest(proc, req.slot, SendStatus::kDone);
}

sim::Process VmmcLcp::SendFinChunk(lanai::NicCard& nic, std::uint32_t dst_node,
                                   std::uint32_t rtag, std::uint64_t offset,
                                   std::uint32_t value) {
  co_await nic.cpu().Exec(params_.lanai.header_prep +
                          params_.lanai.short_copy_base +
                          params_.lanai.short_copy_per_word);
  ChunkHeader h;
  h.type = PacketType::kData;
  h.flags = ChunkHeader::kFlagRtag | ChunkHeader::kFlagLastChunk;
  h.src_node = static_cast<std::uint16_t>(nic.nic_id());
  h.msg_len = 4;
  h.chunk_len = 4;
  h.dst_pa0 = ChunkHeader::PackRtag(rtag, offset);
  if (reliable()) {
    h.flags |= ChunkHeader::kFlagReliable;
    h.dst_node = static_cast<std::uint16_t>(dst_node);
    h.seq = peer_tx_[dst_node].gbn.next_seq();
  }
  std::uint8_t bytes[4];
  for (int i = 0; i < 4; ++i) {
    bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
  myrinet::Packet pkt;
  pkt.route = routes_[dst_node];
  pkt.payload = EncodeChunk(h, bytes);
  if (reliable()) RecordSentPacket(nic, dst_node, pkt);
  ++stats_.chunks_sent;
  ++stats_.rdma_fins_sent;
  stats_.bytes_sent += 4;
  obs_.chunks_sent->Inc();
  obs_.bytes_sent->Inc(4);
  tx_box_->Put(TxItem{std::move(pkt), /*release_staging=*/false});
}

void VmmcLcp::HandleReadRequest(const ChunkHeader& h,
                                std::span<const std::uint8_t> data) {
  if (data.size() < 12 || h.msg_len == 0 ||
      h.msg_len > params_.vmmc.max_send_bytes ||
      h.src_node >= routes_.size()) {
    ++stats_.protection_violations;
    obs_.protection_violations->Inc();
    return;
  }
  auto u32 = [&](std::size_t at) {
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | data[at + static_cast<std::size_t>(i)];
    return v;
  };
  ReadServe rs;
  rs.requester = h.src_node;
  rs.src_rtag = ChunkHeader::RtagOf(h.dst_pa1);
  rs.src_offset = ChunkHeader::RtagOffsetOf(h.dst_pa1);
  rs.dst_rtag = ChunkHeader::RtagOf(h.dst_pa0);
  rs.dst_offset = ChunkHeader::RtagOffsetOf(h.dst_pa0);
  rs.len = h.msg_len;
  rs.fin_rtag = u32(0);
  rs.fin_offset = u32(4);
  rs.fin_value = u32(8);
  ++stats_.rdma_reads_served;
  obs_.rdma_reads_served->Inc();
  read_serves_.push_back(std::move(rs));
}

sim::Process VmmcLcp::ServeReadChunk(lanai::NicCard& nic) {
  assert(!read_serves_.empty());
  ReadServe& rs = read_serves_.front();
  if (rs.fin_stage) {
    co_await SendFinChunk(nic, rs.requester, rs.fin_rtag, rs.fin_offset,
                          rs.fin_value);
    read_serves_.pop_front();
    co_return;
  }
  auto span = obs_.track >= 0
                  ? nic.simulator().tracer().Scope(obs_.track, "read_serve")
                  : obs::Tracer::Span();
  // Serving a read is outgoing-chunk work driven by the main state
  // machine (it always competes with local sends and receive handling, so
  // there is no tight-loop discount), plus the region-table probe.
  co_await nic.cpu().Exec(params_.lanai.chunk_overhead +
                          params_.lanai.rtag_lookup);
  const std::uint32_t chunk_len = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(rs.len - rs.offset, params_.vmmc.chunk_bytes));
  auto src = ResolveRtag(rs.src_rtag, rs.src_offset + rs.offset, chunk_len);
  if (!src.ok()) {
    ++stats_.protection_violations;
    obs_.protection_violations->Inc();
    if (rs.fin_rtag != 0) {
      // Tell the requester instead of leaving it spinning forever.
      rs.fin_value |= 0x8000'0000u;
      rs.fin_stage = true;
    } else {
      read_serves_.pop_front();
    }
    co_return;
  }
  const bool last = rs.offset + chunk_len == rs.len;
  if (params_.vmmc.pipeline_dma) co_await staging_->Acquire();
  auto payload =
      myrinet::Buffer::Uninitialized(ChunkHeader::kWireSize + chunk_len);
  const sim::Tick dma_t0 = nic.simulator().now();
  co_await nic.HostDmaRead(
      src.value().pa0,
      std::span<std::uint8_t>(payload.MutableData() + ChunkHeader::kWireSize,
                              src.value().seg0));
  if (src.value().pa1 != 0) {
    co_await nic.HostDmaRead(
        src.value().pa1,
        std::span<std::uint8_t>(payload.MutableData() +
                                    ChunkHeader::kWireSize + src.value().seg0,
                                chunk_len - src.value().seg0));
  }
  obs_.host_dma_ns->Observe(static_cast<double>(nic.simulator().now() - dma_t0));

  ChunkHeader h;
  h.type = PacketType::kData;
  h.flags = ChunkHeader::kFlagRtag | (last ? ChunkHeader::kFlagLastChunk : 0);
  h.src_node = static_cast<std::uint16_t>(nic.nic_id());
  h.msg_len = rs.len;
  h.chunk_len = chunk_len;
  h.dst_pa0 = ChunkHeader::PackRtag(rs.dst_rtag, rs.dst_offset + rs.offset);
  if (reliable()) {
    h.flags |= ChunkHeader::kFlagReliable;
    h.dst_node = static_cast<std::uint16_t>(rs.requester);
    h.seq = peer_tx_[rs.requester].gbn.next_seq();
  }
  myrinet::Packet pkt;
  pkt.route = routes_[rs.requester];
  EncodeHeaderInto(h, payload.MutableData());
  pkt.payload = std::move(payload);
  if (reliable()) RecordSentPacket(nic, rs.requester, pkt);

  ++stats_.chunks_sent;
  stats_.bytes_sent += chunk_len;
  obs_.chunks_sent->Inc();
  obs_.bytes_sent->Inc(chunk_len);
  if (params_.vmmc.pipeline_dma) {
    tx_box_->Put(TxItem{std::move(pkt), /*release_staging=*/true});
  } else {
    co_await nic.NetSend(std::move(pkt));
  }
  rs.offset += chunk_len;
  if (last) {
    if (rs.fin_rtag != 0) {
      rs.fin_stage = true;
    } else {
      read_serves_.pop_front();
    }
  }
}

// ---------------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------------

sim::Process VmmcLcp::HandleRecv(lanai::NicCard& nic, lanai::ReceivedPacket rp) {
  // ACKs take a slim dedicated path: no state-machine charge, and the work
  // token their arrival posted is retired here, so ACK traffic does not
  // knock an ongoing send out of the tight loop (§5.3) for the rest of the
  // message the way real incoming data does.
  if (rp.crc_ok && !rp.packet.payload.empty() &&
      rp.packet.payload[0] == static_cast<std::uint8_t>(PacketType::kAck)) {
    nic.TryConsumeWorkToken();
    co_await HandleAck(nic, std::move(rp));
    co_return;
  }
  auto span = obs_.track >= 0
                  ? nic.simulator().tracer().Scope(obs_.track, "recv")
                  : obs::Tracer::Span();
  // With traffic in both directions the receive work also runs through
  // the main software state machine instead of a dedicated drain loop
  // (§5.3): charge the state-machine overhead when send work is pending.
  bool mixed = false;
  for (const auto& p : procs_) {
    if (p->active.has_value() || !p->send_queue().empty()) {
      mixed = true;
      break;
    }
  }
  co_await nic.cpu().Exec(params_.lanai.recv_process +
                          (mixed ? params_.lanai.main_loop_extra : 0));
  if (!rp.crc_ok) {
    // Detected but not recovered (§4.2).
    ++stats_.crc_drops;
    obs_.crc_drops->Inc();
    co_return;
  }
  auto decoded = DecodeChunk(rp.packet.payload);
  if (!decoded.has_value()) {
    ++stats_.protection_violations;
    obs_.protection_violations->Inc();
    co_return;
  }
  const ChunkHeader& h = decoded->header;
  if (h.type != PacketType::kData && h.type != PacketType::kRdmaRead) {
    co_return;  // mapping traffic: not ours
  }

  if (h.reliable()) {
    // A misrouted or corrupted-header delivery: never apply, never ACK —
    // acknowledging somebody else's sequence number would poison both
    // go-back-N channels.
    if (h.dst_node != static_cast<std::uint16_t>(nic.nic_id()) ||
        h.src_node >= peer_rx_.size()) {
      ++stats_.protection_violations;
      obs_.protection_violations->Inc();
      co_return;
    }
    PeerRx& rx = peer_rx_[h.src_node];
    switch (rx.gbn.OnData(h.seq)) {
      case GbnReceiver::Verdict::kAccept:
        break;
      case GbnReceiver::Verdict::kDuplicate:
        // Already delivered; the ACK that should have advanced the sender
        // was lost or is still in flight. Re-ACK immediately.
        ++stats_.duplicate_chunks;
        obs_.duplicate_chunks->Inc();
        co_await SendAck(nic, h.src_node);
        co_return;
      case GbnReceiver::Verdict::kOutOfOrder:
        // A gap upstream: discard and re-advertise what we still expect so
        // the sender goes back without waiting out its RTO.
        ++stats_.out_of_order_chunks;
        obs_.out_of_order_chunks->Inc();
        co_await SendAck(nic, h.src_node);
        co_return;
    }
    // Accepted: the sequence number is consumed even if the protection
    // checks below reject the chunk — retransmitting a chunk the importer
    // has revoked would retry forever.
    ++rx.unacked_data;
    if (rx.unacked_data >= params_.vmmc.reliability.ack_every) {
      co_await SendAck(nic, h.src_node);
    } else if (rx.unacked_data == 1) {
      ++rx.ack_gen;
      nic.simulator().Spawn(DelayedAck(nic, h.src_node, rx.ack_gen));
    }
  }

  // One-sided read request: queue it for the serving loop (the GBN checks
  // above already guaranteed in-order exactly-once admission).
  if (h.type == PacketType::kRdmaRead) {
    HandleReadRequest(h, decoded->data);
    co_return;
  }

  // rtag-addressed chunks resolve against the registered-region table
  // before the page-table checks; a miss or an out-of-bounds offset is a
  // protection violation like any other.
  std::uint64_t pa0 = h.dst_pa0;
  std::uint64_t pa1 = h.dst_pa1;
  std::uint32_t seg0 = h.ScatterLen0();
  if (h.rtag_addressed()) {
    co_await nic.cpu().Exec(params_.lanai.rtag_lookup);
    auto t = ResolveRtag(ChunkHeader::RtagOf(h.dst_pa0),
                         ChunkHeader::RtagOffsetOf(h.dst_pa0), h.chunk_len);
    if (!t.ok()) {
      ++stats_.protection_violations;
      obs_.protection_violations->Inc();
      co_return;
    }
    pa0 = t.value().pa0;
    pa1 = t.value().pa1;
    seg0 = t.value().seg0;
  }

  // Check the incoming page table before any DMA touches host memory: a
  // frame may be written only if its export enabled reception (§4.4).
  const IncomingEntry* e0 = incoming_->Find(mem::PageNumber(pa0));
  if (e0 == nullptr || !e0->recv_enabled) {
    ++stats_.protection_violations;
    obs_.protection_violations->Inc();
    co_return;
  }
  const IncomingEntry* e1 = nullptr;
  if (pa1 != 0 && seg0 < h.chunk_len) {
    e1 = incoming_->Find(mem::PageNumber(pa1));
    if (e1 == nullptr || !e1->recv_enabled) {
      ++stats_.protection_violations;
      obs_.protection_violations->Inc();
      co_return;
    }
  }

  // Two-piece scatter into pinned receive-buffer frames (§4.5). No host
  // CPU copy: this is the zero-copy receive path.
  co_await nic.HostDmaWrite(pa0, decoded->data.subspan(0, seg0));
  if (e1 != nullptr) {
    co_await nic.HostDmaWrite(pa1, decoded->data.subspan(seg0));
  }
  ++stats_.chunks_received;
  stats_.bytes_received += h.chunk_len;
  obs_.chunks_received->Inc();
  obs_.bytes_received->Inc(h.chunk_len);

  // Notification: only on the last chunk, only if the sender asked and the
  // export allows it (§2, §4.4).
  if (h.last_chunk() && h.notify() && e0->notify) {
    ++stats_.notifications_raised;
    obs_.notifications->Inc();
    notifications_.push_back(
        PendingNotification{e0->owner_pid, e0->export_id, h.msg_len});
    co_await nic.cpu().Exec(params_.lanai.raise_interrupt);
    nic.RaiseHostInterrupt();
  }
}

// ---------------------------------------------------------------------------
// Reliability layer: go-back-N over the lossy fabric (see DESIGN.md).
//
// Every reliable data packet carries a per-{src,dst} sequence number and a
// copy lives in the SRAM retransmit pool until the destination's cumulative
// ACK covers it. Loss is repaired three ways: the receiver re-ACKs on
// duplicates and gaps, the fabric's drop notice triggers a fast window
// resend, and a per-destination RTO timer (exponential backoff) catches
// everything else, including lost ACKs.
// ---------------------------------------------------------------------------

bool VmmcLcp::WindowOpen(std::uint32_t dst_node) const {
  // Invalid destinations are rejected by the send path itself.
  if (dst_node >= peer_tx_.size()) return true;
  return peer_tx_[dst_node].gbn.can_send() &&
         retx_in_use_ < params_.vmmc.reliability.retx_pool_entries;
}

void VmmcLcp::RecordSentPacket(lanai::NicCard& nic, std::uint32_t dst_node,
                               const myrinet::Packet& packet) {
  PeerTx& tx = peer_tx_[dst_node];
  const bool first_unacked = !tx.gbn.has_unacked();
  const std::uint32_t seq = tx.gbn.OnSend();
  tx.unacked.push_back(RetxSlot{packet, seq});
  ++retx_in_use_;
  obs_.retx_in_use->Set(nic.simulator().now(),
                        static_cast<double>(retx_in_use_));
  if (first_unacked) {
    tx.cur_rto = params_.vmmc.reliability.rto;
    ArmRtoTimer(nic, dst_node);
  }
}

sim::Process VmmcLcp::HandleAck(lanai::NicCard& nic, lanai::ReceivedPacket rp) {
  co_await nic.cpu().Exec(params_.vmmc.reliability.ack_process);
  auto decoded = DecodeChunk(rp.packet.payload);
  if (!decoded.has_value()) co_return;
  const ChunkHeader& h = decoded->header;
  // src_node is the acking receiver; h.seq is the next sequence number it
  // expects from us.
  if (h.type != PacketType::kAck ||
      h.dst_node != static_cast<std::uint16_t>(nic.nic_id()) ||
      h.src_node >= peer_tx_.size()) {
    co_return;
  }
  ++stats_.acks_received;
  obs_.acks_received->Inc();
  PeerTx& tx = peer_tx_[h.src_node];
  const std::uint32_t newly = tx.gbn.OnAck(h.seq);
  if (newly == 0) co_return;
  for (std::uint32_t i = 0; i < newly && !tx.unacked.empty(); ++i) {
    tx.unacked.pop_front();
  }
  retx_in_use_ -= std::min(newly, retx_in_use_);
  obs_.retx_in_use->Set(nic.simulator().now(),
                        static_cast<double>(retx_in_use_));
  // Progress: the backoff resets and the timer restarts from now; a fully
  // drained window needs no timer at all.
  tx.cur_rto = params_.vmmc.reliability.rto;
  if (tx.gbn.has_unacked()) {
    ArmRtoTimer(nic, h.src_node);
  } else {
    ++tx.timer_gen;  // cancel the armed timer
  }
}

sim::Process VmmcLcp::SendAck(lanai::NicCard& nic, std::uint32_t src_node) {
  PeerRx& rx = peer_rx_[src_node];
  rx.unacked_data = 0;
  ++rx.ack_gen;  // cancels a delayed ACK in flight
  co_await nic.cpu().Exec(params_.vmmc.reliability.ack_send);
  ChunkHeader h;
  h.type = PacketType::kAck;
  h.flags = ChunkHeader::kFlagReliable;
  h.src_node = static_cast<std::uint16_t>(nic.nic_id());
  h.dst_node = static_cast<std::uint16_t>(src_node);
  h.seq = rx.gbn.CumAck();
  myrinet::Packet pkt;
  pkt.route = routes_[src_node];
  pkt.payload = EncodeChunk(h, {});
  ++stats_.acks_sent;
  obs_.acks_sent->Inc();
  tx_box_->Put(TxItem{std::move(pkt), /*release_staging=*/false});
}

sim::Process VmmcLcp::DelayedAck(lanai::NicCard& nic, std::uint32_t src_node,
                                 std::uint64_t gen) {
  co_await nic.simulator().Delay(params_.vmmc.reliability.ack_delay);
  if (!running_) co_return;
  PeerRx& rx = peer_rx_[src_node];
  if (rx.ack_gen != gen || rx.unacked_data == 0) co_return;
  co_await SendAck(nic, src_node);
}

sim::Process VmmcLcp::RetransmitWindow(lanai::NicCard& nic,
                                      std::uint32_t dst_node) {
  PeerTx& tx = peer_tx_[dst_node];
  if (tx.unacked.empty()) co_return;
  // Snapshot first: an ACK landing during the Exec below pops the list.
  std::vector<myrinet::Packet> resend;
  resend.reserve(tx.unacked.size());
  for (std::size_t i = 0; i < tx.unacked.size(); ++i) {
    resend.push_back(tx.unacked[i].packet);
  }
  co_await nic.cpu().Exec(params_.lanai.header_prep *
                          static_cast<sim::Tick>(resend.size()));
  for (myrinet::Packet& pkt : resend) {
    ++stats_.retransmits;
    obs_.retransmits->Inc();
    tx_box_->Put(TxItem{std::move(pkt), /*release_staging=*/false});
  }
}

sim::Process VmmcLcp::RtoTimer(lanai::NicCard& nic, std::uint32_t dst_node,
                               std::uint64_t gen) {
  co_await nic.simulator().Delay(peer_tx_[dst_node].cur_rto);
  if (!running_) co_return;
  PeerTx& tx = peer_tx_[dst_node];
  if (tx.timer_gen != gen || !tx.gbn.has_unacked()) co_return;
  ++stats_.retransmit_timeouts;
  obs_.retransmit_timeouts->Inc();
  tx.cur_rto =
      std::min<sim::Tick>(tx.cur_rto * 2, params_.vmmc.reliability.rto_max);
  co_await RetransmitWindow(nic, dst_node);
  ArmRtoTimer(nic, dst_node);
}

sim::Process VmmcLcp::FastRetransmit(lanai::NicCard& nic,
                                     std::uint32_t dst_node) {
  PeerTx& tx = peer_tx_[dst_node];
  tx.fast_retx_pending = false;
  if (!tx.gbn.has_unacked()) co_return;
  co_await RetransmitWindow(nic, dst_node);
  ArmRtoTimer(nic, dst_node);
}

// Arming always supersedes: the generation bump kills every older timer,
// so exactly one RTO timer per destination is ever live.
void VmmcLcp::ArmRtoTimer(lanai::NicCard& nic, std::uint32_t dst_node) {
  PeerTx& tx = peer_tx_[dst_node];
  ++tx.timer_gen;
  nic.simulator().Spawn(RtoTimer(nic, dst_node, tx.timer_gen));
}

void VmmcLcp::OnDropNotice(const myrinet::Packet& packet) {
  ++stats_.drop_notices;
  obs_.drop_notices->Inc();
  if (!running_ || !reliable() || nic_ == nullptr) return;
  auto decoded = DecodeChunk(packet.payload);
  if (!decoded.has_value()) return;
  const ChunkHeader& h = decoded->header;
  // Dropped ACKs are left to the receiver's re-ACK-on-duplicate path.
  if ((h.type != PacketType::kData && h.type != PacketType::kRdmaRead) ||
      !h.reliable()) {
    return;
  }
  if (h.src_node != static_cast<std::uint16_t>(nic_->nic_id())) return;
  const std::uint32_t dst = h.dst_node;
  if (dst >= peer_tx_.size()) return;
  PeerTx& tx = peer_tx_[dst];
  // React only to a drop of something still unacked, and coalesce bursts:
  // one fast resend covers the whole window.
  if (!tx.gbn.has_unacked() || tx.fast_retx_pending) return;
  if (SeqBefore(h.seq, tx.gbn.base()) || !SeqBefore(h.seq, tx.gbn.next_seq())) {
    return;
  }
  tx.fast_retx_pending = true;
  nic_->simulator().Spawn(FastRetransmit(*nic_, dst));
}

}  // namespace vmmc::vmmc_core
