#include "vmmc/vmmc/api.h"

#include <cassert>

namespace vmmc::vmmc_core {

namespace {
obs::Counter& HostCounter(host::Machine& machine, VmmcDaemon& daemon,
                          const char* leaf) {
  return machine.kernel().simulator().metrics().GetCounter(
      "node" + std::to_string(daemon.node_id()) + ".host." + leaf);
}
}  // namespace

Endpoint::Endpoint(const Params& params, host::Machine& machine, VmmcLcp& lcp,
                   VmmcDriver& driver, VmmcDaemon& daemon,
                   host::UserProcess& process)
    : params_(params),
      machine_(&machine),
      lcp_(&lcp),
      driver_(&driver),
      daemon_(&daemon),
      process_(&process),
      send_posts_(HostCounter(machine, daemon, "send_posts")),
      pio_post_ns_(HostCounter(machine, daemon, "pio_post_ns")) {}

Result<std::unique_ptr<Endpoint>> Endpoint::Open(
    const Params& params, host::Machine& machine, VmmcLcp& lcp,
    VmmcDriver& driver, VmmcDaemon& daemon, host::UserProcess& process) {
  auto state = lcp.RegisterProcess(process);
  if (!state.ok()) return state.status();

  std::unique_ptr<Endpoint> ep(
      new Endpoint(params, machine, lcp, driver, daemon, process));
  ep->state_ = state.value();

  // Completion-word array: pinned user memory the LANai DMAs one-word
  // statuses into and the user spins on (§4.5).
  const std::uint32_t entries = params.vmmc.send_queue_entries;
  auto base = process.address_space().HeapAlloc(entries * 4, 64);
  if (!base.ok()) {
    (void)lcp.UnregisterProcess(process.pid());
    return base.status();
  }
  Status pin = process.address_space().Pin(base.value(), entries * 4);
  if (!pin.ok()) {
    (void)lcp.UnregisterProcess(process.pid());
    return pin;
  }
  ep->state_->completion_base = base.value();

  ep->slots_.resize(entries);
  for (std::uint32_t i = 0; i < entries; ++i) ep->free_slots_.push_back(i);
  ep->slot_tokens_ = std::make_unique<sim::Semaphore>(
      machine.kernel().simulator(), entries);

  // Registration cache for one-sided RDMA. The address-space release
  // listener cannot be unsubscribed, so it holds a weak reference that
  // goes inert once the endpoint (and with it the cache) is destroyed.
  ep->reg_cache_ = std::make_shared<RegCache>(
      params, process, lcp, *ep->state_, machine.kernel().simulator(),
      daemon.node_id());
  std::weak_ptr<RegCache> weak_cache = ep->reg_cache_;
  process.address_space().AddReleaseListener(
      [weak_cache](mem::VirtAddr va, std::uint64_t len) {
        if (auto cache = weak_cache.lock()) cache->InvalidateRange(va, len);
      });

  // Notification path: driver -> signal -> this handler -> user handlers.
  Endpoint* raw = ep.get();
  process.SetSignalHandler(host::kSigVmmcNotify, [raw](int) -> sim::Process {
    return raw->NotificationSignalHandler();
  });

  return ep;
}

Endpoint::~Endpoint() {
  if (fin_region_.cache_id != 0 && reg_cache_ != nullptr) {
    (void)reg_cache_->Release(fin_region_.cache_id);
  }
  // The cache unpins and tears down NIC state through the LCP, so it must
  // go before the process is unregistered there.
  reg_cache_.reset();
  if (state_ != nullptr) (void)lcp_->UnregisterProcess(process_->pid());
}

// ---------------------------------------------------------------------------
// Buffers
// ---------------------------------------------------------------------------

Result<mem::VirtAddr> Endpoint::AllocBuffer(std::uint32_t len) {
  if (len == 0) return InvalidArgument("zero-size buffer");
  // Page-aligned and page-granular so the buffer can be exported.
  return process_->address_space().HeapAlloc(mem::RoundUpToPage(len),
                                             mem::kPageSize);
}

Status Endpoint::FreeBuffer(mem::VirtAddr va) {
  return process_->address_space().HeapFree(va);
}

Status Endpoint::WriteBuffer(mem::VirtAddr va, std::span<const std::uint8_t> data) {
  return process_->address_space().Write(va, data);
}

Status Endpoint::ReadBuffer(mem::VirtAddr va, std::span<std::uint8_t> out) const {
  return process_->address_space().Read(va, out);
}

// ---------------------------------------------------------------------------
// Export / import
// ---------------------------------------------------------------------------

sim::Task<Result<ExportId>> Endpoint::ExportBuffer(mem::VirtAddr va,
                                                   std::uint32_t len,
                                                   ExportOptions options) {
  co_return co_await daemon_->Export(*process_, va, len, std::move(options));
}

sim::Task<Status> Endpoint::UnexportBuffer(ExportId id) {
  co_return co_await daemon_->Unexport(*process_, id);
}

sim::Task<Result<ImportedBuffer>> Endpoint::ImportBuffer(int remote_node,
                                                         const std::string& name,
                                                         ImportOptions options) {
  sim::Simulator& sim = machine_->kernel().simulator();
  int attempts = 0;
  for (;;) {
    auto result = co_await daemon_->Import(*state_, remote_node, name);
    if (result.ok() || !options.wait ||
        result.status().code() != ErrorCode::kNotFound ||
        ++attempts >= options.max_attempts) {
      co_return result;
    }
    co_await sim.Delay(options.retry_interval);
  }
}

sim::Task<Status> Endpoint::UnimportBuffer(const ImportedBuffer& buffer) {
  co_return co_await daemon_->Unimport(*state_, buffer);
}

// ---------------------------------------------------------------------------
// Sends
// ---------------------------------------------------------------------------

Status Endpoint::ToStatus(SendStatus s) const {
  switch (s) {
    case SendStatus::kDone:
      return OkStatus();
    case SendStatus::kPending:
      return InternalError("completion word still pending");
    case SendStatus::kBadProxy:
      return PermissionDenied("destination proxy address not imported");
    case SendStatus::kBadLength:
      return InvalidArgument("send length out of range");
    case SendStatus::kBadAddress:
      return NotFound("send buffer address not mapped");
  }
  return InternalError("unknown completion status");
}

sim::Task<Result<SendHandle>> Endpoint::SendMsgAsync(mem::VirtAddr src,
                                                     ProxyAddr dst,
                                                     std::uint32_t len,
                                                     SendOptions options) {
  sim::Simulator& sim = machine_->kernel().simulator();
  // Library entry: argument checks, protocol selection (§4.5 — "The VMMC
  // basic library decides which format to use for a particular SendMsg").
  co_await sim.Delay(params_.host.lib_send_overhead);
  if (len == 0 || len > params_.vmmc.max_send_bytes) {
    co_return Result<SendHandle>(InvalidArgument("length out of range"));
  }

  const bool short_send = len <= params_.vmmc.short_send_max;
  SendRequest req;
  req.len = len;
  req.proxy = dst;
  req.notify = options.notify;

  if (short_send) {
    // The data is copied into the SRAM send queue with memory-mapped I/O;
    // validate the source now (a fault here is the user's SIGSEGV).
    req.inline_data = util::Buffer::Uninitialized(len);
    Status read = process_->address_space().Read(
        src, {req.inline_data.MutableData(), req.inline_data.size()});
    if (!read.ok()) co_return Result<SendHandle>(read);
  } else {
    req.src_va = src;
  }

  // Queue-slot flow control: wait for space in the SRAM ring and a free
  // completion slot.
  co_await slot_tokens_->Acquire();
  co_await state_->queue_slots().Acquire();
  assert(!free_slots_.empty());
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  slots_[slot].in_use = true;
  slots_[slot].generation = next_generation_++;
  req.slot = slot;
  state_->completion_events[slot]->Reset();
  (void)process_->address_space().WriteU32(
      state_->completion_base + slot * 4,
      static_cast<std::uint32_t>(SendStatus::kPending));

  // Post the request: PIO writes into the SRAM send queue. Short requests
  // carry the data (4 header words + payload); long requests are fixed
  // size (§4.5).
  const int words = short_send ? 4 + static_cast<int>((len + 3) / 4) : 6;
  co_await machine_->pci().PioWrite(words);
  send_posts_.Inc();
  pio_post_ns_.Inc(
      static_cast<std::uint64_t>(machine_->pci().PioWriteCost(words)));

  Status posted = lcp_->PostSend(*state_, std::move(req));
  if (!posted.ok()) {
    slots_[slot].in_use = false;
    free_slots_.push_back(slot);
    slot_tokens_->Release();
    state_->queue_slots().Release();
    co_return Result<SendHandle>(posted);
  }
  co_return SendHandle{slot, slots_[slot].generation};
}

bool Endpoint::CheckSend(const SendHandle& handle) const {
  if (handle.slot >= slots_.size() || !slots_[handle.slot].in_use ||
      slots_[handle.slot].generation != handle.generation) {
    return true;  // already completed and reaped
  }
  return state_->completion_events[handle.slot]->is_set();
}

sim::Task<Status> Endpoint::WaitSend(SendHandle handle) {
  sim::Simulator& sim = machine_->kernel().simulator();
  if (handle.slot >= slots_.size() || !slots_[handle.slot].in_use ||
      slots_[handle.slot].generation != handle.generation) {
    co_return InvalidArgument("stale send handle");
  }
  // Spin on the completion word in cache (§4.5).
  co_await state_->completion_events[handle.slot]->Wait();
  co_await sim.Delay(params_.host.spin_poll);

  auto word = process_->address_space().ReadU32(state_->completion_base +
                                                handle.slot * 4);
  const SendStatus status =
      word.ok() ? static_cast<SendStatus>(word.value()) : SendStatus::kPending;

  slots_[handle.slot].in_use = false;
  free_slots_.push_back(handle.slot);
  slot_tokens_->Release();
  co_return ToStatus(status);
}

sim::Process Endpoint::ReapSlot(SendHandle handle) {
  // Background bookkeeping for fire-and-forget short sends: recycle the
  // slot once the LCP writes the completion word; surface errors through
  // the deferred-error counter (a short send has no synchronous failure
  // channel in the paper's model).
  co_await state_->completion_events[handle.slot]->Wait();
  auto word = process_->address_space().ReadU32(state_->completion_base +
                                                handle.slot * 4);
  if (!word.ok() ||
      static_cast<SendStatus>(word.value()) != SendStatus::kDone) {
    ++deferred_send_errors_;
  }
  slots_[handle.slot].in_use = false;
  free_slots_.push_back(handle.slot);
  slot_tokens_->Release();
}

sim::Task<Status> Endpoint::SendMsg(mem::VirtAddr src, ProxyAddr dst,
                                    std::uint32_t len, SendOptions options) {
  auto handle = co_await SendMsgAsync(src, dst, len, options);
  if (!handle.ok()) co_return handle.status();
  if (len <= params_.vmmc.short_send_max) {
    // The data was PIO-copied into the interface at post time: the send
    // buffer is already reusable, so a synchronous short send returns now
    // (§5.3: sync and async short-send overheads are equal).
    machine_->kernel().simulator().Spawn(ReapSlot(handle.value()));
    co_return OkStatus();
  }
  co_return co_await WaitSend(handle.value());
}

// ---------------------------------------------------------------------------
// One-sided RDMA
// ---------------------------------------------------------------------------

sim::Task<Result<MemRegion>> Endpoint::RegisterMemory(mem::VirtAddr va,
                                                      std::uint64_t len,
                                                      RegIntent intent) {
  auto acq = reg_cache_->Acquire(va, len, intent);
  if (!acq.ok()) co_return acq.status();
  if (acq.value().cost > 0) {
    co_await machine_->kernel().simulator().Delay(acq.value().cost);
  }
  co_return acq.value().region;
}

sim::Task<Status> Endpoint::UnregisterMemory(const MemRegion& region) {
  auto cost = reg_cache_->Release(region.cache_id);
  if (!cost.ok()) co_return cost.status();
  if (cost.value() > 0) {
    co_await machine_->kernel().simulator().Delay(cost.value());
  }
  co_return OkStatus();
}

sim::Task<Result<SendHandle>> Endpoint::PostOneSided(SendRequest req) {
  co_await slot_tokens_->Acquire();
  co_await state_->queue_slots().Acquire();
  assert(!free_slots_.empty());
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  slots_[slot].in_use = true;
  slots_[slot].generation = next_generation_++;
  req.slot = slot;
  state_->completion_events[slot]->Reset();
  (void)process_->address_space().WriteU32(
      state_->completion_base + slot * 4,
      static_cast<std::uint32_t>(SendStatus::kPending));

  // A one-sided descriptor is the 6-word long-send format plus the
  // extension words: destination node, rtag, 64-bit offset, fin triple.
  const int words = 12;
  co_await machine_->pci().PioWrite(words);
  send_posts_.Inc();
  pio_post_ns_.Inc(
      static_cast<std::uint64_t>(machine_->pci().PioWriteCost(words)));

  Status posted = lcp_->PostSend(*state_, std::move(req));
  if (!posted.ok()) {
    slots_[slot].in_use = false;
    free_slots_.push_back(slot);
    slot_tokens_->Release();
    state_->queue_slots().Release();
    co_return Result<SendHandle>(posted);
  }
  co_return SendHandle{slot, slots_[slot].generation};
}

sim::Task<Result<SendHandle>> Endpoint::RdmaWriteAsync(mem::VirtAddr src,
                                                       RemoteTarget dst,
                                                       std::uint32_t len,
                                                       RdmaOptions options) {
  sim::Simulator& sim = machine_->kernel().simulator();
  co_await sim.Delay(params_.host.lib_send_overhead);
  if (len == 0 || len > params_.vmmc.max_send_bytes) {
    co_return Result<SendHandle>(InvalidArgument("length out of range"));
  }
  if (dst.node < 0 || dst.rtag == 0) {
    co_return Result<SendHandle>(InvalidArgument("invalid remote target"));
  }
  SendRequest req;
  req.len = len;
  req.src_va = src;
  req.direct = std::make_unique<DirectSend>(
      DirectSend{static_cast<std::uint32_t>(dst.node), dst.rtag, dst.offset,
                 options.fin_rtag, options.fin_offset, options.fin_value});
  co_return co_await PostOneSided(std::move(req));
}

sim::Task<Status> Endpoint::RdmaWrite(mem::VirtAddr src, RemoteTarget dst,
                                      std::uint32_t len, RdmaOptions options) {
  auto handle = co_await RdmaWriteAsync(src, dst, len, options);
  if (!handle.ok()) co_return handle.status();
  co_return co_await WaitSend(handle.value());
}

sim::Task<Status> Endpoint::EnsureFinRegion() {
  if (fin_base_ != 0) co_return OkStatus();
  auto base = memory().HeapAlloc(kMaxOutstandingReads * 4, 64);
  if (!base.ok()) co_return base.status();
  sim::Simulator& sim = machine_->kernel().simulator();
  std::vector<std::unique_ptr<host::SpinWait>> waits;
  for (std::uint32_t i = 0; i < kMaxOutstandingReads; ++i) {
    waits.push_back(
        std::make_unique<host::SpinWait>(sim, params_.vmmc.p2p.poll));
    if (Status s = waits.back()->Watch(memory(), base.value() + i * 4);
        !s.ok()) {
      (void)memory().HeapFree(base.value());
      co_return s;
    }
  }
  auto region = co_await RegisterMemory(base.value(), kMaxOutstandingReads * 4,
                                        RegIntent::kRecv);
  if (!region.ok()) {
    (void)memory().HeapFree(base.value());
    co_return region.status();
  }
  fin_base_ = base.value();
  fin_region_ = region.value();
  fin_waits_ = std::move(waits);
  for (std::uint32_t i = 0; i < kMaxOutstandingReads; ++i) {
    free_fin_slots_.push_back(i);
  }
  co_return OkStatus();
}

sim::Task<Status> Endpoint::RdmaRead(RemoteTarget src, std::uint32_t len,
                                     const MemRegion& dst,
                                     std::uint64_t dst_offset) {
  sim::Simulator& sim = machine_->kernel().simulator();
  co_await sim.Delay(params_.host.lib_send_overhead);
  if (len == 0 || len > params_.vmmc.max_send_bytes) {
    co_return InvalidArgument("length out of range");
  }
  if (src.node < 0 || src.rtag == 0) {
    co_return InvalidArgument("invalid remote source");
  }
  if (dst.rtag == 0) {
    co_return InvalidArgument("destination region is not receive-registered");
  }
  if (dst_offset + len > dst.len) {
    co_return OutOfRange("read overruns the destination region");
  }
  if (Status s = co_await EnsureFinRegion(); !s.ok()) co_return s;
  if (free_fin_slots_.empty()) {
    co_return ResourceExhausted("too many outstanding reads");
  }
  const std::uint32_t fin_slot = free_fin_slots_.back();
  free_fin_slots_.pop_back();
  // Nonzero op id with bit 31 clear (the server sets bit 31 on failure).
  const std::uint32_t op = (next_read_op_++ & 0x3fff'ffffu) + 1;
  (void)memory().WriteU32(fin_base_ + fin_slot * 4, 0);

  SendRequest req;
  req.len = len;
  req.read = std::make_unique<ReadRequest>(
      ReadRequest{static_cast<std::uint32_t>(src.node), src.rtag, src.offset,
                  dst.rtag, dst_offset, fin_region_.rtag, fin_slot * 4, op});
  auto handle = co_await PostOneSided(std::move(req));
  Status sent = handle.status();
  if (handle.ok()) sent = co_await WaitSend(handle.value());
  if (!sent.ok()) {
    free_fin_slots_.push_back(fin_slot);
    co_return sent;
  }

  // Spin until the server's fin chunk lands in our fin word.
  const mem::VirtAddr fin_word = fin_base_ + fin_slot * 4;
  co_await fin_waits_[fin_slot]->Until([&] {
    auto word = memory().ReadU32(fin_word);
    return word.ok() &&
           (word.value() == op || word.value() == (op | 0x8000'0000u));
  });
  free_fin_slots_.push_back(fin_slot);
  if (memory().ReadU32(fin_word).value() != op) {
    co_return PermissionDenied("remote rejected the read source range");
  }
  co_return OkStatus();
}

// ---------------------------------------------------------------------------
// Notifications
// ---------------------------------------------------------------------------

void Endpoint::SetNotificationHandler(ExportId id, NotificationHandler handler) {
  handlers_[id] = std::move(handler);
}

sim::Process Endpoint::NotificationSignalHandler() {
  sim::Simulator& sim = machine_->kernel().simulator();
  co_await sim.Delay(2000);  // library handler dispatch
  for (const UserNotification& n : driver_->DrainNotifications(process_->pid())) {
    ++notifications_received_;
    auto it = handlers_.find(n.export_id);
    if (it != handlers_.end()) co_await it->second(n);
  }
}

}  // namespace vmmc::vmmc_core
