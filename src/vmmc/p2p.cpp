#include "vmmc/vmmc/p2p.h"

#include <algorithm>

#include "vmmc/host/machine.h"
#include "vmmc/util/buffer.h"

namespace vmmc::vmmc_core {

std::uint32_t P2pChannel::ReadWord(mem::VirtAddr va) const {
  std::uint8_t b[4];
  (void)ep_.ReadBuffer(va, b);
  return std::uint32_t{b[0]} | (std::uint32_t{b[1]} << 8) |
         (std::uint32_t{b[2]} << 16) | (std::uint32_t{b[3]} << 24);
}

void P2pChannel::WriteWord(mem::VirtAddr va, std::uint32_t v) {
  std::uint8_t b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  (void)ep_.WriteBuffer(va, b);
}

sim::Task<Result<std::unique_ptr<P2pChannel>>> P2pChannel::Create(
    Endpoint& ep, int peer, std::string tag, P2pParams params) {
  using Out = Result<std::unique_ptr<P2pChannel>>;
  if (peer < 0 || peer == ep.node_id()) {
    co_return Out(InvalidArgument("bad peer node"));
  }
  const std::string prefix = "node" + std::to_string(ep.node_id()) + ".p2p.";
  obs::Registry& m = ep.machine().kernel().simulator().metrics();
  std::unique_ptr<P2pChannel> ch(new P2pChannel(
      ep, peer, std::move(tag), params, m.GetCounter(prefix + "eager_sends"),
      m.GetCounter(prefix + "rendezvous_sends")));
  Status s = co_await ch->SetupBuffers();
  if (!s.ok()) co_return Out(s);
  co_return std::move(ch);
}

sim::Task<Status> P2pChannel::SetupBuffers() {
  const std::uint32_t slot_bytes = eager_cap() + 12;
  auto slot = ep_.AllocBuffer(slot_bytes);
  if (!slot.ok()) co_return slot.status();
  recv_slot = slot.value();
  auto ack = ep_.AllocBuffer(64);
  if (!ack.ok()) co_return ack.status();
  ack_word = ack.value();
  auto ack_staging = ep_.AllocBuffer(64);
  if (!ack_staging.ok()) co_return ack_staging.status();
  ack_out = ack_staging.value();
  auto staging = ep_.AllocBuffer(slot_bytes);
  if (!staging.ok()) co_return staging.status();
  send_staging = staging.value();
  if (Status s = ack_wait_.Watch(ep_.memory(), ack_word); !s.ok()) {
    co_return s;
  }
  if (Status s = recv_wait_.Watch(ep_.memory(), recv_slot + eager_cap() + 8);
      !s.ok()) {
    co_return s;
  }

  const std::string me = std::to_string(ep_.node_id());
  const std::string them = std::to_string(peer_);
  {
    ExportOptions opts;
    opts.name = tag_ + "-pd-" + me + "-" + them;
    auto id = co_await ep_.ExportBuffer(recv_slot, slot_bytes, std::move(opts));
    if (!id.ok()) co_return id.status();
  }
  {
    ExportOptions opts;
    opts.name = tag_ + "-pa-" + me + "-" + them;
    auto id = co_await ep_.ExportBuffer(ack_word, 64, std::move(opts));
    if (!id.ok()) co_return id.status();
  }

  ImportOptions wait;
  wait.wait = true;
  wait.max_attempts = 2000;
  auto data =
      co_await ep_.ImportBuffer(peer_, tag_ + "-pd-" + them + "-" + me, wait);
  if (!data.ok()) co_return data.status();
  send_slot = data.value().proxy_base;
  auto pack =
      co_await ep_.ImportBuffer(peer_, tag_ + "-pa-" + them + "-" + me, wait);
  if (!pack.ok()) co_return pack.status();
  peer_ack = pack.value().proxy_base;
  co_return OkStatus();
}

sim::Task<Status> P2pChannel::WaitAcked(std::uint32_t seq) {
  co_await ack_wait_.Until([&] { return ReadWord(ack_word) == seq; });
  if (pending_region_live_) {
    // The peer pulled the last rendezvous payload: its source
    // registration can go back to the cache.
    pending_region_live_ = false;
    (void)co_await ep_.UnregisterMemory(pending_region_);
  }
  co_return OkStatus();
}

sim::Task<Status> P2pChannel::Flush() {
  co_return co_await WaitAcked(next_send_seq - 1);
}

sim::Task<Status> P2pChannel::SendTrailer(std::uint32_t len,
                                          std::uint32_t kind) {
  const mem::VirtAddr t = send_staging + eager_cap();
  WriteWord(t, len);
  WriteWord(t + 4, kind);
  WriteWord(t + 8, next_send_seq);
  co_return co_await ep_.SendMsg(t, send_slot + eager_cap(), 12);
}

sim::Task<Status> P2pChannel::Send(mem::VirtAddr src, std::uint32_t len) {
  // Credit: one message may be in the slot; the previous one must have
  // been consumed (this also retires the previous source registration).
  Status credit = co_await WaitAcked(next_send_seq - 1);
  if (!credit.ok()) co_return credit;

  const bool eager = len <= params_.eager_max;
  if (eager) {
    if (len > 0) {
      // Copy-through: one host bcopy into the wire staging buffer. Pooled
      // storage — every eager send runs this, so no per-send heap alloc.
      util::Buffer tmp = util::Buffer::Uninitialized(len);
      if (Status r = ep_.ReadBuffer(src, {tmp.MutableData(), tmp.size()});
          !r.ok()) {
        co_return r;
      }
      if (Status w = ep_.WriteBuffer(send_staging, tmp); !w.ok()) co_return w;
      co_await ep_.machine().cpu().Bcopy(len);
      Status s = co_await ep_.SendMsg(send_staging, send_slot, len);
      if (!s.ok()) co_return s;
    }
    eager_sends_.Inc();
  } else {
    // Reader-pull rendezvous: register the source (warm in the pin-down
    // cache on repeats) and advertise its rtag; the receiver RdmaReads.
    auto region = co_await ep_.RegisterMemory(src, len, RegIntent::kRecv);
    if (!region.ok()) co_return region.status();
    WriteWord(send_staging, region.value().rtag);
    // Offset of the payload inside the region: 0 by construction, kept
    // on the wire so the record format doesn't change if that does.
    WriteWord(send_staging + 4, 0);
    WriteWord(send_staging + 8, 0);
    Status s = co_await ep_.SendMsg(send_staging, send_slot, kRtsBytes);
    if (!s.ok()) {
      (void)co_await ep_.UnregisterMemory(region.value());
      co_return s;
    }
    pending_region_ = region.value();
    pending_region_live_ = true;
    rendezvous_sends_.Inc();
  }
  Status t = co_await SendTrailer(len, eager ? kKindEager : kKindRts);
  if (!t.ok()) co_return t;
  ++next_send_seq;
  co_return OkStatus();
}

sim::Task<Result<mem::VirtAddr>> P2pChannel::EnsureScratch(
    mem::VirtAddr* va, std::uint32_t* cap, std::uint32_t need) {
  if (*va != 0 && *cap >= need) co_return *va;
  if (*va != 0) (void)ep_.FreeBuffer(*va);
  *va = 0;
  *cap = 0;
  auto fresh = ep_.AllocBuffer(need);
  if (!fresh.ok()) co_return fresh.status();
  *va = fresh.value();
  *cap = static_cast<std::uint32_t>(mem::RoundUpToPage(need));
  co_return *va;
}

sim::Task<Status> P2pChannel::Send(std::span<const std::uint8_t> data) {
  const auto len = static_cast<std::uint32_t>(data.size());
  if (len <= params_.eager_max) {
    Status credit = co_await WaitAcked(next_send_seq - 1);
    if (!credit.ok()) co_return credit;
    if (len > 0) {
      if (Status w = ep_.WriteBuffer(send_staging, data); !w.ok()) co_return w;
      co_await ep_.machine().cpu().Bcopy(len);
      Status s = co_await ep_.SendMsg(send_staging, send_slot, len);
      if (!s.ok()) co_return s;
    }
    eager_sends_.Inc();
    Status t = co_await SendTrailer(len, kKindEager);
    if (!t.ok()) co_return t;
    ++next_send_seq;
    co_return OkStatus();
  }
  // Rendezvous from caller memory we don't own: stage into channel-owned
  // memory (the app building its message), then go zero-copy from there.
  // Credit first — the previous message's payload lives in this same
  // staging buffer until the peer pulls it, so overwriting (or freeing,
  // when the buffer grows) before the ack would corrupt it in flight.
  Status credit = co_await WaitAcked(next_send_seq - 1);
  if (!credit.ok()) co_return credit;
  auto scratch = co_await EnsureScratch(&rdv_staging_, &rdv_staging_cap_, len);
  if (!scratch.ok()) co_return scratch.status();
  if (Status w = ep_.WriteBuffer(rdv_staging_, data); !w.ok()) co_return w;
  co_return co_await Send(rdv_staging_, len);
}

sim::Task<Result<std::uint32_t>> P2pChannel::RecvInto(mem::VirtAddr dst,
                                                      std::uint32_t cap) {
  using Out = Result<std::uint32_t>;
  const mem::VirtAddr trailer = recv_slot + eager_cap();
  co_await recv_wait_.Until(
      [&] { return ReadWord(trailer + 8) == next_recv_seq; });
  const std::uint32_t len = ReadWord(trailer);
  const std::uint32_t kind = ReadWord(trailer + 4);
  if (len > cap) co_return Out(OutOfRange("message larger than recv buffer"));

  if (kind == kKindEager) {
    if (len > 0) {
      // Copy-through: the slot payload is bcopy'd into the caller's
      // buffer (the receive-side copy eager trades for latency). Pooled
      // storage — every eager receive runs this.
      util::Buffer tmp = util::Buffer::Uninitialized(len);
      if (Status r = ep_.ReadBuffer(recv_slot, {tmp.MutableData(), tmp.size()});
          !r.ok()) {
        co_return Out(r);
      }
      if (Status w = ep_.WriteBuffer(dst, tmp); !w.ok()) co_return Out(w);
      co_await ep_.machine().cpu().Bcopy(len);
    }
  } else if (kind == kKindRts) {
    const std::uint32_t rtag = ReadWord(recv_slot);
    const std::uint64_t off = std::uint64_t{ReadWord(recv_slot + 4)} |
                              (std::uint64_t{ReadWord(recv_slot + 8)} << 32);
    auto region = co_await ep_.RegisterMemory(dst, len, RegIntent::kRecv);
    if (!region.ok()) co_return Out(region.status());
    Status pulled = co_await ep_.RdmaRead(RemoteTarget{peer_, rtag, off}, len,
                                          region.value(), 0);
    (void)co_await ep_.UnregisterMemory(region.value());
    if (!pulled.ok()) co_return Out(pulled);
  } else {
    co_return Out(InternalError("corrupt channel trailer"));
  }

  // Ack consumption; for rendezvous this is also what lets the sender
  // retire its source registration.
  WriteWord(ack_out, next_recv_seq);
  Status s = co_await ep_.SendMsg(ack_out, peer_ack, 4);
  if (!s.ok()) co_return Out(s);
  ++next_recv_seq;
  co_return len;
}

sim::Task<Status> P2pChannel::Recv(std::vector<std::uint8_t>& out) {
  const mem::VirtAddr trailer = recv_slot + eager_cap();
  co_await recv_wait_.Until(
      [&] { return ReadWord(trailer + 8) == next_recv_seq; });
  const std::uint32_t len = ReadWord(trailer);
  auto scratch = co_await EnsureScratch(&recv_bounce_, &recv_bounce_cap_,
                                        std::max<std::uint32_t>(len, 1));
  if (!scratch.ok()) co_return scratch.status();
  auto n = co_await RecvInto(recv_bounce_, recv_bounce_cap_);
  if (!n.ok()) co_return n.status();
  out.resize(n.value());
  if (!out.empty()) {
    if (Status r = ep_.ReadBuffer(recv_bounce_, out); !r.ok()) co_return r;
  }
  co_return OkStatus();
}

}  // namespace vmmc::vmmc_core
