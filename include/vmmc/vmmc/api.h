// The VMMC basic library (§4.1): the user-level API a program links with
// to communicate using VMMC calls. One Endpoint per (process, NIC).
//
// Core operations, following the paper:
//   ExportBuffer  — offer part of the address space as a receive buffer;
//   ImportBuffer  — map a remote receive buffer into the destination proxy
//                   space; returns a proxy address;
//   SendMsg       — deliberate-update transfer, synchronous (returns when
//                   the send buffer is reusable);
//   SendMsgAsync / CheckSend / WaitSend — asynchronous variant (§5.3);
//   SetNotificationHandler — user-level handler invoked after a message
//                   with a notification is delivered (§2).
//
// There is no receive operation: data lands directly in exported memory
// without interrupting the receiver's CPU (§2).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "vmmc/host/machine.h"
#include "vmmc/host/spin_wait.h"
#include "vmmc/sim/task.h"
#include "vmmc/vmmc/daemon.h"
#include "vmmc/vmmc/driver.h"
#include "vmmc/vmmc/lcp.h"
#include "vmmc/vmmc/reg_cache.h"

namespace vmmc::vmmc_core {

// Ticket for an asynchronous send: names the completion slot (and its
// generation, so a recycled slot cannot satisfy a stale handle). Poll with
// CheckSend, retire with WaitSend.
struct SendHandle {
  std::uint32_t slot = 0;
  std::uint64_t generation = 0;
};

// Per-send flags.
struct SendOptions {
  bool notify = false;  // invoke the importer's notification handler (§2)
};

// Controls ImportBuffer's handling of a not-yet-exported name.
struct ImportOptions {
  // Retry until the export appears (the exporter may not have run yet).
  bool wait = false;
  int max_attempts = 200;                             // retries before giving up
  sim::Tick retry_interval = 500 * sim::kMicrosecond;  // between retries (ns tick)
};

// Where a one-sided operation lands on (or pulls from) a peer: the node,
// the peer's registered-region tag, and a byte offset into that region.
// The rtag comes out of the peer's RegisterMemory (MemRegion::rtag) or an
// import (ImportedBuffer::rtag) and must be communicated out of band —
// exactly the rkey exchange of later RDMA interconnects.
struct RemoteTarget {
  int node = -1;
  std::uint32_t rtag = 0;
  std::uint64_t offset = 0;
};

// Remote completion notification for RdmaWrite: after the data, a 4-byte
// fin chunk carrying `fin_value` lands at (fin_rtag, fin_offset) on the
// destination node; the receiver spins on that word. fin_rtag 0: none.
struct RdmaOptions {
  std::uint32_t fin_rtag = 0;
  std::uint64_t fin_offset = 0;
  std::uint32_t fin_value = 0;
};

class Endpoint {
 public:
  using NotificationHandler =
      std::function<sim::Process(const UserNotification&)>;

  // Opens VMMC for `process`: registers it with the LCP (allocating its
  // SRAM structures), sets up the completion-word array, and installs the
  // notification signal handler.
  static Result<std::unique_ptr<Endpoint>> Open(const Params& params,
                                                host::Machine& machine,
                                                VmmcLcp& lcp, VmmcDriver& driver,
                                                VmmcDaemon& daemon,
                                                host::UserProcess& process);
  ~Endpoint();
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  host::UserProcess& process() { return *process_; }
  mem::AddressSpace& memory() { return process_->address_space(); }
  host::Machine& machine() { return *machine_; }
  int node_id() const { return daemon_->node_id(); }

  // --- buffer management helpers (user-space malloc over the simulated
  //     address space; page-aligned so buffers are exportable; `len` in
  //     bytes) ---
  Result<mem::VirtAddr> AllocBuffer(std::uint32_t len);
  Status FreeBuffer(mem::VirtAddr va);
  Status WriteBuffer(mem::VirtAddr va, std::span<const std::uint8_t> data);
  Status ReadBuffer(mem::VirtAddr va, std::span<std::uint8_t> out) const;

  // --- export / import ---
  // Offers [va, va+len) (page-aligned, len in bytes) as a receive buffer
  // under options.name; pins the pages and enables them for receive.
  sim::Task<Result<ExportId>> ExportBuffer(mem::VirtAddr va, std::uint32_t len,
                                           ExportOptions options);
  // Withdraws an export; in-flight deliveries to it become violations.
  sim::Task<Status> UnexportBuffer(ExportId id);
  // Maps the buffer exported under `name` on `remote_node` into this
  // process's destination proxy space; the returned proxy address is
  // what SendMsg targets.
  sim::Task<Result<ImportedBuffer>> ImportBuffer(int remote_node,
                                                 const std::string& name,
                                                 ImportOptions options = {});
  // Releases the proxy mapping (outgoing page-table entries).
  sim::Task<Status> UnimportBuffer(const ImportedBuffer& buffer);

  // --- data transfer ---
  // Synchronous send: returns once the send buffer is reusable — for short
  // messages right after the data is PIO-copied to the interface, for long
  // messages once the last chunk is in LANai SRAM (§5.3).
  sim::Task<Status> SendMsg(mem::VirtAddr src, ProxyAddr dst, std::uint32_t len,
                            SendOptions options = {});
  // Asynchronous send: returns after posting the request (§5.3).
  sim::Task<Result<SendHandle>> SendMsgAsync(mem::VirtAddr src, ProxyAddr dst,
                                             std::uint32_t len,
                                             SendOptions options = {});
  // Non-blocking completion test (does not consume the handle).
  bool CheckSend(const SendHandle& handle) const;
  // Blocks (spins) until the send completes; consumes the handle.
  sim::Task<Status> WaitSend(SendHandle handle);

  // --- one-sided RDMA (registration cache + rtag addressing) ---
  // Registers [va, va+len) through the pin-down cache. A warm hit costs a
  // hash probe; a cold miss costs the pin syscall plus per-page work. The
  // returned region's rtag (nonzero for kRecv/kBoth) is what remote peers
  // target with RdmaWrite/RdmaRead.
  sim::Task<Result<MemRegion>> RegisterMemory(mem::VirtAddr va,
                                              std::uint64_t len,
                                              RegIntent intent);
  // Drops the reference; the cache keeps the pin-down warm for reuse.
  sim::Task<Status> UnregisterMemory(const MemRegion& region);
  RegCache& reg_cache() { return *reg_cache_; }

  // One-sided write: src bytes land in the remote registered region with
  // no receiver involvement. Async returns a SendHandle (local completion
  // = last chunk in LANai SRAM, same as SendMsg); the sync variant waits
  // for it. options selects the remote fin notification.
  sim::Task<Result<SendHandle>> RdmaWriteAsync(mem::VirtAddr src,
                                               RemoteTarget dst,
                                               std::uint32_t len,
                                               RdmaOptions options = {});
  sim::Task<Status> RdmaWrite(mem::VirtAddr src, RemoteTarget dst,
                              std::uint32_t len, RdmaOptions options = {});

  // One-sided read: asks src.node to stream `len` bytes from its
  // (src.rtag, src.offset) into our registered region `dst` at
  // `dst_offset`, then spins on an internal fin word the remote fin chunk
  // lands in. Returns PermissionDenied if the remote side rejected the
  // source range. At most kMaxOutstandingReads reads may be in flight.
  sim::Task<Status> RdmaRead(RemoteTarget src, std::uint32_t len,
                             const MemRegion& dst, std::uint64_t dst_offset = 0);
  static constexpr std::uint32_t kMaxOutstandingReads = 16;

  // --- notifications ---
  void SetNotificationHandler(ExportId id, NotificationHandler handler);
  std::uint64_t notifications_received() const { return notifications_received_; }

  // Errors of fire-and-forget short sends, observed via completion words.
  std::uint64_t deferred_send_errors() const { return deferred_send_errors_; }

 private:
  Endpoint(const Params& params, host::Machine& machine, VmmcLcp& lcp,
           VmmcDriver& driver, VmmcDaemon& daemon, host::UserProcess& process);

  sim::Process NotificationSignalHandler();
  sim::Process ReapSlot(SendHandle handle);
  Status ToStatus(SendStatus s) const;
  // Posts a prepared one-sided request through the slot/PIO machinery.
  sim::Task<Result<SendHandle>> PostOneSided(SendRequest req);
  // Lazily allocates + registers the 64-byte fin-word array reads spin on.
  sim::Task<Status> EnsureFinRegion();

  const Params& params_;
  host::Machine* machine_;
  VmmcLcp* lcp_;
  VmmcDriver* driver_;
  VmmcDaemon* daemon_;
  host::UserProcess* process_;
  ProcState* state_ = nullptr;

  // Completion slot bookkeeping (mirrors the per-slot user memory words).
  struct Slot {
    bool in_use = false;
    std::uint64_t generation = 0;
  };
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::unique_ptr<sim::Semaphore> slot_tokens_;
  std::uint64_t next_generation_ = 1;

  // Registration cache; shared_ptr so the address-space release listener
  // (which cannot be removed) can hold a weak reference that outlives us.
  std::shared_ptr<RegCache> reg_cache_;

  // RdmaRead fin words: kMaxOutstandingReads 4-byte slots in registered
  // memory; a read claims a slot, the remote fin chunk lands in it.
  mem::VirtAddr fin_base_ = 0;
  MemRegion fin_region_{};
  std::vector<std::uint32_t> free_fin_slots_;
  std::vector<std::unique_ptr<host::SpinWait>> fin_waits_;  // per fin slot
  std::uint32_t next_read_op_ = 0;

  std::unordered_map<ExportId, NotificationHandler> handlers_;
  std::uint64_t notifications_received_ = 0;
  std::uint64_t deferred_send_errors_ = 0;

  // Host-side posting cost, for the latency budget (node<N>.host.*).
  obs::Counter& send_posts_;
  obs::Counter& pio_post_ns_;
};

}  // namespace vmmc::vmmc_core
