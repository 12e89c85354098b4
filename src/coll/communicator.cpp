#include "vmmc/coll/communicator.h"

#include <algorithm>
#include <cassert>

namespace vmmc::coll {

namespace {

void Pack(std::span<const std::int64_t> v, std::vector<std::uint8_t>& bytes) {
  bytes.resize(v.size() * 8);
  for (std::size_t i = 0; i < v.size(); ++i) {
    const auto x = static_cast<std::uint64_t>(v[i]);
    for (int b = 0; b < 8; ++b) {
      bytes[i * 8 + static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>(x >> (8 * b));
    }
  }
}

void Unpack(std::span<const std::uint8_t> bytes, std::vector<std::int64_t>& v) {
  v.resize(bytes.size() / 8);
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::uint64_t x = 0;
    for (int b = 7; b >= 0; --b) {
      x = (x << 8) | bytes[i * 8 + static_cast<std::size_t>(b)];
    }
    v[i] = static_cast<std::int64_t>(x);
  }
}

}  // namespace

sim::Task<Result<std::unique_ptr<Communicator>>> Communicator::Create(
    vmmc_core::Cluster& cluster, int rank, int size, std::string tag,
    Options options) {
  using Out = Result<std::unique_ptr<Communicator>>;
  if (size < 1 || rank < 0 || rank >= size || size > cluster.num_nodes()) {
    co_return Out(InvalidArgument("bad rank/size"));
  }
  std::unique_ptr<Communicator> comm(
      new Communicator(cluster, rank, size, std::move(tag)));
  comm->options_ = options;
  auto ep = cluster.OpenEndpoint(rank, comm->tag_ + "-rank" + std::to_string(rank));
  if (!ep.ok()) co_return Out(ep.status());
  comm->ep_ = std::move(ep).value();
  if (!options.lazy_links) {
    for (int peer = 0; peer < size; ++peer) {
      if (peer == rank) continue;
      Status s = co_await comm->SetupLink(peer);
      if (!s.ok()) co_return Out(s);
    }
  }
  co_return std::move(comm);
}

sim::Task<Status> Communicator::EnsureLink(int peer) {
  if (peer < 0 || peer >= size_ || peer == rank_) {
    co_return InvalidArgument("no link to that rank");
  }
  if (channels_.find(peer) != channels_.end()) co_return OkStatus();
  if (!options_.lazy_links) co_return InvalidArgument("no link to that rank");
  co_return co_await SetupLink(peer);
}

sim::Process Communicator::EnsureOne(Communicator* self, int peer,
                                     int* pending, Status* first_error,
                                     host::SpinWait* done) {
  Status s = co_await self->EnsureLink(peer);
  if (!s.ok() && first_error->ok()) *first_error = s;
  --*pending;
  done->Notify();
}

sim::Task<Status> Communicator::EnsureLinks(int a, int b) {
  sim::Simulator& sim = cluster_.simulator();
  int pending = 0;
  Status first_error = OkStatus();
  host::SpinWait done(sim, 500);
  const int peers[2] = {a, a == b ? rank_ : b};  // rank_ entries are skipped
  for (int peer : peers) {
    if (peer != rank_ && (peer < 0 || peer >= size_)) {
      co_return InvalidArgument("bad rank");
    }
  }
  for (int peer : peers) {
    if (peer == rank_) continue;
    ++pending;
    sim.Spawn(EnsureOne(this, peer, &pending, &first_error, &done));
  }
  co_await done.Until([&] { return pending == 0; });
  co_return first_error;
}

sim::Task<Status> Communicator::SetupLink(int peer) {
  auto ch = co_await vmmc_core::P2pChannel::Create(
      *ep_, peer, tag_, cluster_.params().vmmc.p2p);
  if (!ch.ok()) co_return ch.status();
  channels_.emplace(peer, std::move(ch).value());
  co_return OkStatus();
}

sim::Task<Status> Communicator::SendTo(int peer, std::span<const std::uint8_t> data) {
  if (data.size() > kMaxMessage) co_return InvalidArgument("message too large");
  Status ready = co_await EnsureLink(peer);
  if (!ready.ok()) co_return ready;
  co_return co_await channels_.find(peer)->second->Send(data);
}

sim::Task<Status> Communicator::RecvFrom(int peer,
                                         std::vector<std::uint8_t>& out) {
  Status ready = co_await EnsureLink(peer);
  if (!ready.ok()) co_return ready;
  co_return co_await channels_.find(peer)->second->Recv(out);
}

vmmc_core::P2pChannel::Stats Communicator::p2p_stats() const {
  vmmc_core::P2pChannel::Stats total;
  for (const auto& [peer, ch] : channels_) {
    const auto& s = ch->stats();
    total.eager_sends += s.eager_sends;
    total.rendezvous_sends += s.rendezvous_sends;
    total.eager_recvs += s.eager_recvs;
    total.rendezvous_recvs += s.rendezvous_recvs;
    total.bytes_sent += s.bytes_sent;
    total.bytes_received += s.bytes_received;
  }
  return total;
}

sim::Task<Status> Communicator::Barrier() {
  // Dissemination barrier: ceil(log2 size) rounds; in round r, rank sends
  // to (rank + 2^r) and waits for (rank - 2^r).
  for (int hop = 1; hop < size_; hop <<= 1) {
    const int to = (rank_ + hop) % size_;
    const int from = (rank_ - hop % size_ + size_) % size_;
    if (to == rank_) continue;
    // Round partners form a cycle across ranks; see EnsureLinks.
    Status e = co_await EnsureLinks(to, from);
    if (!e.ok()) co_return e;
    Status s = co_await SendTo(to, {});
    if (!s.ok()) co_return s;
    Status r = co_await RecvFrom(from, recv_bytes_);
    if (!r.ok()) co_return r;
  }
  ++operations_;
  co_return OkStatus();
}

sim::Task<Status> Communicator::Broadcast(int root, std::vector<std::uint8_t>& data) {
  if (root < 0 || root >= size_) co_return InvalidArgument("bad root");
  // Length first (small broadcast), then the payload in kMaxMessage pieces
  // — both along a binomial tree over virtual ranks.
  const int vrank = (rank_ - root + size_) % size_;

  // By-value captures: the coroutine frame must not hold references into
  // this scope across its suspension points (vmmc-lint R5).
  auto tree_exchange =
      [this, vrank, root](std::vector<std::uint8_t>& payload) -> sim::Task<Status> {
    int mask = 1;
    // Receive phase: find my parent.
    while (mask < size_) {
      if (vrank & mask) {
        const int vsrc = vrank - mask;
        const int src = (vsrc + root) % size_;
        Status r = co_await RecvFrom(src, payload);
        if (!r.ok()) co_return r;
        break;
      }
      mask <<= 1;
    }
    // Send phase: forward to my children.
    mask >>= 1;
    while (mask > 0) {
      if (vrank + mask < size_) {
        const int vdst = vrank + mask;
        const int dst = (vdst + root) % size_;
        Status s = co_await SendTo(dst, payload);
        if (!s.ok()) co_return s;
      }
      mask >>= 1;
    }
    co_return OkStatus();
  };

  // Piece 0 carries the total length as a 4-byte prefix. Every piece
  // travels through the recv_bytes_ scratch.
  std::vector<std::uint8_t>& piece = recv_bytes_;
  std::uint64_t total = (rank_ == root) ? data.size() : 0;
  piece.clear();
  if (rank_ == root) {
    piece.resize(4);
    for (int i = 0; i < 4; ++i) {
      piece[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(static_cast<std::uint32_t>(total) >> (8 * i));
    }
  }
  Status s = co_await tree_exchange(piece);
  if (!s.ok()) co_return s;
  if (rank_ != root) {
    if (piece.size() != 4) co_return InternalError("broadcast header lost");
    total = std::uint32_t{piece[0]} | (std::uint32_t{piece[1]} << 8) |
            (std::uint32_t{piece[2]} << 16) | (std::uint32_t{piece[3]} << 24);
    data.resize(total);
  }

  for (std::uint64_t off = 0; off < total; off += kMaxMessage) {
    const std::uint64_t n = std::min<std::uint64_t>(kMaxMessage, total - off);
    piece.clear();
    if (rank_ == root) {
      piece.assign(data.begin() + static_cast<std::ptrdiff_t>(off),
                   data.begin() + static_cast<std::ptrdiff_t>(off + n));
    }
    Status ps = co_await tree_exchange(piece);
    if (!ps.ok()) co_return ps;
    if (rank_ != root) {
      if (piece.size() != n) co_return InternalError("broadcast piece lost");
      std::copy(piece.begin(), piece.end(),
                data.begin() + static_cast<std::ptrdiff_t>(off));
    }
  }
  ++operations_;
  co_return OkStatus();
}

sim::Task<Status> Communicator::Gather(int root, std::span<const std::uint8_t> mine,
                                       std::vector<std::uint8_t>* all) {
  if (root < 0 || root >= size_) co_return InvalidArgument("bad root");
  if (mine.size() > kMaxMessage) co_return InvalidArgument("contribution too large");
  if (rank_ == root) {
    if (all == nullptr) co_return InvalidArgument("root needs an output buffer");
    all->clear();
    for (int r = 0; r < size_; ++r) {
      if (r == rank_) {
        all->insert(all->end(), mine.begin(), mine.end());
      } else {
        Status got = co_await RecvFrom(r, recv_bytes_);
        if (!got.ok()) co_return got;
        all->insert(all->end(), recv_bytes_.begin(), recv_bytes_.end());
      }
    }
  } else {
    Status s = co_await SendTo(root, mine);
    if (!s.ok()) co_return s;
  }
  ++operations_;
  co_return OkStatus();
}

Communicator::AllReduceAlgo Communicator::SelectAllReduce(std::size_t n) const {
  if (size_ == 1) return AllReduceAlgo::kSingle;
  const std::uint64_t bytes = static_cast<std::uint64_t>(n) * 8;
  // One eager message or less: latency-bound, log-round algorithms.
  if (bytes <= cluster_.params().vmmc.p2p.eager_max) {
    const bool pow2 = (size_ & (size_ - 1)) == 0;
    return pow2 ? AllReduceAlgo::kRecursiveDoubling : AllReduceAlgo::kBinomialTree;
  }
  // Bandwidth-bound: ring moves 2(N-1)/N of the vector per rank, but
  // needs equal chunks that fit a message.
  const bool ring_eligible =
      n % static_cast<std::size_t>(size_) == 0 &&
      (n / static_cast<std::size_t>(size_)) * 8 <= kMaxMessage;
  return ring_eligible ? AllReduceAlgo::kRing : AllReduceAlgo::kGatherBroadcast;
}

sim::Task<Status> Communicator::AllReduceSum(std::vector<std::int64_t>& values) {
  switch (SelectAllReduce(values.size())) {
    case AllReduceAlgo::kSingle:
      ++operations_;
      co_return OkStatus();
    case AllReduceAlgo::kRecursiveDoubling:
      co_return co_await AllReduceRecursiveDoubling(values);
    case AllReduceAlgo::kBinomialTree:
      co_return co_await AllReduceBinomial(values);
    case AllReduceAlgo::kRing:
      co_return co_await AllReduceRing(values);
    case AllReduceAlgo::kGatherBroadcast:
      co_return co_await AllReduceGatherBroadcast(values);
  }
  co_return InternalError("unreachable");
}

sim::Task<Status> Communicator::AllReduceRecursiveDoubling(
    std::vector<std::int64_t>& values) {
  // log2(N) rounds; in round r, partners rank^2^r exchange full vectors
  // and both add. Partners pair up (no cycle), so lazy channel setup is
  // safe without EnsureLinks.
  for (int mask = 1; mask < size_; mask <<= 1) {
    const int partner = rank_ ^ mask;
    Pack(values, send_bytes_);
    Status s = co_await SendTo(partner, send_bytes_);
    if (!s.ok()) co_return s;
    Status r = co_await RecvFrom(partner, recv_bytes_);
    if (!r.ok()) co_return r;
    Unpack(recv_bytes_, recv_values_);
    if (recv_values_.size() != values.size()) {
      co_return InternalError("allreduce exchange size mismatch");
    }
    for (std::size_t i = 0; i < values.size(); ++i) values[i] += recv_values_[i];
  }
  ++operations_;
  co_return OkStatus();
}

sim::Task<Status> Communicator::AllReduceBinomial(
    std::vector<std::int64_t>& values) {
  // Binomial-tree reduction to rank 0 (works for any world size), then a
  // binomial broadcast of the result.
  for (int mask = 1; mask < size_; mask <<= 1) {
    if (rank_ & mask) {
      Pack(values, send_bytes_);
      Status s = co_await SendTo(rank_ - mask, send_bytes_);
      if (!s.ok()) co_return s;
      break;
    }
    if (rank_ + mask < size_) {
      Status r = co_await RecvFrom(rank_ + mask, recv_bytes_);
      if (!r.ok()) co_return r;
      Unpack(recv_bytes_, recv_values_);
      if (recv_values_.size() != values.size()) {
        co_return InternalError("allreduce reduce size mismatch");
      }
      for (std::size_t i = 0; i < values.size(); ++i) values[i] += recv_values_[i];
    }
  }
  send_bytes_.clear();
  if (rank_ == 0) Pack(values, send_bytes_);
  Status b = co_await Broadcast(0, send_bytes_);
  if (!b.ok()) co_return b;
  Unpack(send_bytes_, values);
  ++operations_;
  co_return OkStatus();
}

sim::Task<Status> Communicator::AllReduceRing(std::vector<std::int64_t>& values) {
  // Ring: N-1 reduce-scatter steps, N-1 all-gather steps; send to the
  // left neighbour, receive from the right.
  const std::size_t n = values.size();
  const std::size_t chunk = n / static_cast<std::size_t>(size_);
  const int left = (rank_ + size_ - 1) % size_;
  const int right = (rank_ + 1) % size_;
  // The ring neighbours form a cycle across ranks; see EnsureLinks.
  Status e = co_await EnsureLinks(left, right);
  if (!e.ok()) co_return e;

  for (int step = 0; step < size_ - 1; ++step) {
    const std::size_t send_idx =
        static_cast<std::size_t>((rank_ + step) % size_) * chunk;
    const std::size_t recv_idx =
        static_cast<std::size_t>((rank_ + step + 1) % size_) * chunk;
    Pack(std::span(values).subspan(send_idx, chunk), send_bytes_);
    Status s = co_await SendTo(left, send_bytes_);
    if (!s.ok()) co_return s;
    Status r = co_await RecvFrom(right, recv_bytes_);
    if (!r.ok()) co_return r;
    Unpack(recv_bytes_, recv_values_);
    for (std::size_t i = 0; i < chunk; ++i) {
      values[recv_idx + i] += recv_values_[i];
    }
  }
  for (int step = 0; step < size_ - 1; ++step) {
    const std::size_t send_idx =
        static_cast<std::size_t>((rank_ + size_ - 1 + step) % size_) * chunk;
    const std::size_t recv_idx =
        static_cast<std::size_t>((rank_ + step) % size_) * chunk;
    Pack(std::span(values).subspan(send_idx, chunk), send_bytes_);
    Status s = co_await SendTo(left, send_bytes_);
    if (!s.ok()) co_return s;
    Status r = co_await RecvFrom(right, recv_bytes_);
    if (!r.ok()) co_return r;
    Unpack(recv_bytes_, recv_values_);
    for (std::size_t i = 0; i < chunk; ++i) values[recv_idx + i] = recv_values_[i];
  }
  ++operations_;
  co_return OkStatus();
}

sim::Task<Status> Communicator::AllReduceGatherBroadcast(
    std::vector<std::int64_t>& values) {
  const std::size_t n = values.size();
  Pack(values, send_bytes_);
  if (send_bytes_.size() > kMaxMessage) {
    co_return InvalidArgument("vector too large");
  }
  Status g = co_await Gather(0, send_bytes_, rank_ == 0 ? &gathered_ : nullptr);
  if (!g.ok()) co_return g;
  send_bytes_.clear();
  if (rank_ == 0) {
    // values already hold rank 0's own contribution: add the others'.
    for (int r = 1; r < size_; ++r) {
      Unpack(std::span(gathered_).subspan(static_cast<std::size_t>(r) * n * 8,
                                          n * 8),
             recv_values_);
      for (std::size_t i = 0; i < n; ++i) values[i] += recv_values_[i];
    }
    Pack(values, send_bytes_);
  }
  Status b = co_await Broadcast(0, send_bytes_);
  if (!b.ok()) co_return b;
  Unpack(send_bytes_, values);
  ++operations_;
  co_return OkStatus();
}

}  // namespace vmmc::coll
