#include "vmmc/vrpc/vmmc_transport.h"

namespace vmmc::vrpc {

using vmmc_core::ExportOptions;
using vmmc_core::ImportOptions;

namespace {

std::uint32_t CommitOffset(const Params& params) {
  return params.vrpc.slot_bytes - 4;
}

void PutWordLE(std::vector<std::uint8_t>& buf, std::size_t off, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf[off + static_cast<std::size_t>(i)] =
      static_cast<std::uint8_t>(v >> (8 * i));
}

// Reads one little-endian word from a buffer in simulated memory.
std::uint32_t ReadWord(vmmc_core::Endpoint& ep, mem::VirtAddr va) {
  std::uint8_t b[4] = {0, 0, 0, 0};
  (void)ep.ReadBuffer(va, b);
  return std::uint32_t{b[0]} | (std::uint32_t{b[1]} << 8) |
         (std::uint32_t{b[2]} << 16) | (std::uint32_t{b[3]} << 24);
}

// Sends [len][node][payload] into `dst`, then the commit word.
sim::Task<Status> SendFramed(vmmc_core::Endpoint& ep, mem::VirtAddr staging,
                             mem::VirtAddr commit_staging,
                             vmmc_core::ProxyAddr dst, std::uint32_t commit_off,
                             int self_node, std::uint32_t seq,
                             const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> frame(8 + payload.size());
  PutWordLE(frame, 0, static_cast<std::uint32_t>(payload.size()));
  PutWordLE(frame, 4, static_cast<std::uint32_t>(self_node));
  std::copy(payload.begin(), payload.end(), frame.begin() + 8);
  Status w = ep.WriteBuffer(staging, frame);
  if (!w.ok()) co_return w;
  Status sent = co_await ep.SendMsg(staging, dst,
                                    static_cast<std::uint32_t>(frame.size()));
  if (!sent.ok()) co_return sent;

  std::vector<std::uint8_t> commit(4);
  PutWordLE(commit, 0, seq);
  w = ep.WriteBuffer(commit_staging, commit);
  if (!w.ok()) co_return w;
  co_return co_await ep.SendMsg(commit_staging, dst + commit_off, 4);
}

}  // namespace

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

sim::Task<Result<std::unique_ptr<VmmcServerTransport>>> VmmcServerTransport::Create(
    vmmc_core::Cluster& cluster, int node, std::string service, int max_clients,
    bool compat) {
  using Out = Result<std::unique_ptr<VmmcServerTransport>>;
  std::unique_ptr<VmmcServerTransport> t(
      new VmmcServerTransport(cluster, node, std::move(service), compat));
  auto ep = cluster.OpenEndpoint(node, t->service_ + "-server");
  if (!ep.ok()) co_return Out(ep.status());
  t->ep_ = std::move(ep).value();

  const std::uint32_t slot_bytes = cluster.params().vrpc.slot_bytes;
  for (int k = 0; k < max_clients; ++k) {
    auto buf = t->ep_->AllocBuffer(slot_bytes);
    if (!buf.ok()) co_return Out(buf.status());
    ExportOptions opts;
    opts.name = t->service_ + "-req-" + std::to_string(k);
    auto id = co_await t->ep_->ExportBuffer(buf.value(), slot_bytes, std::move(opts));
    if (!id.ok()) co_return Out(id.status());
    Slot slot;
    slot.va = buf.value();
    t->slots_.push_back(slot);
    if (Status s = t->idle_wait_.Watch(
            t->ep_->memory(), slot.va + CommitOffset(cluster.params()));
        !s.ok()) {
      co_return Out(s);
    }
  }
  auto staging = t->ep_->AllocBuffer(slot_bytes);
  if (!staging.ok()) co_return Out(staging.status());
  t->staging_ = staging.value();
  co_return std::move(t);
}

sim::Process VmmcServerTransport::Serve(RawHandler handler) {
  sim::Simulator& sim = cluster_.simulator();
  const Params& params = cluster_.params();
  const std::uint32_t commit_off = CommitOffset(params);

  for (;;) {
    bool worked = false;
    for (std::size_t k = 0; k < slots_.size(); ++k) {
      Slot& slot = slots_[k];
      const std::uint32_t seq = ReadWord(*ep_, slot.va + commit_off);
      if (seq == slot.last_seq) continue;
      slot.last_seq = seq;
      worked = true;

      const std::uint32_t len = ReadWord(*ep_, slot.va);
      const std::uint32_t client_node = ReadWord(*ep_, slot.va + 4);
      if (len > commit_off - 8) continue;  // malformed; ignore

      // Compatibility mode: copy the call out of the exported buffer
      // before handing it to the SunRPC machinery — the §5.4 "one copy on
      // every message receive".
      std::vector<std::uint8_t> request(len);
      if (compat_) {
        co_await cluster_.node(node_).machine->cpu().Bcopy(len + 8);
        ++copies_;
      }
      (void)ep_->ReadBuffer(slot.va + 8, request);

      // Server dispatch layers + XDR decode.
      co_await sim.Delay(compat_ ? params.vrpc.server_dispatch
                                 : params.vrpc.fast_server_dispatch);
      co_await sim.Delay(params.vrpc.xdr_per_call +
                         sim::NsForBytes(len, params.vrpc.xdr_mb_s));

      std::vector<std::uint8_t> reply = co_await handler(std::move(request));

      // XDR encode of the results.
      co_await sim.Delay(params.vrpc.xdr_per_call +
                         sim::NsForBytes(reply.size(), params.vrpc.xdr_mb_s));

      // Lazily import the client's reply slot on first contact.
      if (!slot.reply_connected) {
        ImportOptions wait;
        wait.wait = true;
        auto imp = co_await ep_->ImportBuffer(
            static_cast<int>(client_node),
            service_ + "-rep-" + std::to_string(k), wait);
        if (!imp.ok()) continue;
        slot.reply_proxy = imp.value().proxy_base;
        slot.reply_connected = true;
      }

      (void)co_await SendFramed(*ep_, staging_, staging_, slot.reply_proxy,
                                commit_off, node_, seq, reply);
    }
    if (worked) continue;
    co_await idle_wait_.Until([&] {
      for (const Slot& slot : slots_) {
        if (ReadWord(*ep_, slot.va + commit_off) != slot.last_seq) return true;
      }
      return false;
    });
  }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

sim::Task<Result<std::unique_ptr<VmmcClientTransport>>> VmmcClientTransport::Connect(
    vmmc_core::Cluster& cluster, int client_node, int server_node,
    std::string service, int client_id, bool compat) {
  using Out = Result<std::unique_ptr<VmmcClientTransport>>;
  std::unique_ptr<VmmcClientTransport> t(
      new VmmcClientTransport(cluster, client_node, compat));
  auto ep = cluster.OpenEndpoint(client_node,
                                 service + "-client-" + std::to_string(client_id));
  if (!ep.ok()) co_return Out(ep.status());
  t->ep_ = std::move(ep).value();

  const std::uint32_t slot_bytes = cluster.params().vrpc.slot_bytes;
  // Export the reply slot the server writes into.
  auto reply = t->ep_->AllocBuffer(slot_bytes);
  if (!reply.ok()) co_return Out(reply.status());
  t->reply_va_ = reply.value();
  if (Status s = t->reply_wait_.Watch(
          t->ep_->memory(), t->reply_va_ + CommitOffset(cluster.params()));
      !s.ok()) {
    co_return Out(s);
  }
  ExportOptions opts;
  opts.name = service + "-rep-" + std::to_string(client_id);
  auto id = co_await t->ep_->ExportBuffer(t->reply_va_, slot_bytes, std::move(opts));
  if (!id.ok()) co_return Out(id.status());

  // Import the server's request slot.
  ImportOptions wait;
  wait.wait = true;
  auto imp = co_await t->ep_->ImportBuffer(
      server_node, service + "-req-" + std::to_string(client_id), wait);
  if (!imp.ok()) co_return Out(imp.status());
  t->request_proxy_ = imp.value().proxy_base;

  auto staging = t->ep_->AllocBuffer(slot_bytes);
  if (!staging.ok()) co_return Out(staging.status());
  t->staging_ = staging.value();
  auto commit = t->ep_->AllocBuffer(64);
  if (!commit.ok()) co_return Out(commit.status());
  t->commit_staging_ = commit.value();
  co_return std::move(t);
}

sim::Task<Result<std::vector<std::uint8_t>>> VmmcClientTransport::RoundTrip(
    std::vector<std::uint8_t> request) {
  using Out = Result<std::vector<std::uint8_t>>;
  const Params& params = cluster_.params();
  const std::uint32_t commit_off = CommitOffset(params);
  if (request.size() > commit_off - 8) {
    co_return Out(InvalidArgument("request exceeds transport slot"));
  }
  const std::uint32_t seq = ++seq_;

  Status sent = co_await SendFramed(*ep_, staging_, commit_staging_,
                                    request_proxy_, commit_off, node_, seq,
                                    request);
  if (!sent.ok()) co_return Out(sent);

  // Spin on the reply slot's commit word.
  co_await reply_wait_.Until(
      [&] { return ReadWord(*ep_, reply_va_ + commit_off) == seq; });
  const std::uint32_t len = ReadWord(*ep_, reply_va_);
  if (len > commit_off - 8) co_return Out(InternalError("malformed reply frame"));
  std::vector<std::uint8_t> reply(len);
  // Compatibility: copy the reply out of the exported buffer before the
  // SunRPC machinery sees it (the second of the round trip's two copies).
  if (compat_) {
    co_await cluster_.node(node_).machine->cpu().Bcopy(len + 8);
  }
  Status r = ep_->ReadBuffer(reply_va_ + 8, reply);
  if (!r.ok()) co_return Out(r);
  co_return std::move(reply);
}

}  // namespace vmmc::vrpc
