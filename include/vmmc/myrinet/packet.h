// Myrinet packets: a source route (one output-port byte consumed per
// switch, standard Myrinet format, §4.5), an opaque payload, and a CRC-8
// appended by the link hardware.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <span>
#include <string>

#include "vmmc/myrinet/crc8.h"
#include "vmmc/util/buffer.h"
#include "vmmc/util/status.h"

namespace vmmc::myrinet {

// The remaining source route: front() is the output port at the next
// switch. The bytes live inline, so copying a route (into a packet, a
// retransmit slot, a switch queue) never allocates, and a switch pops
// its byte in O(1). A route holds at most kCapacity hops — far beyond
// the 3 of the largest fat tree — and a longer one is an error the route
// builders (Fabric::ComputeRoute, the route oracle, the mapper's probe
// reply) return as a Status.
class Route {
 public:
  static constexpr std::size_t kCapacity = 26;

  Route() = default;
  // For routes known to fit (topology builders, tests).
  Route(std::initializer_list<std::uint8_t> hops) {
    assign(hops.begin(), hops.end());
  }
  // A route read from bytes of unchecked length.
  static Result<Route> FromBytes(std::span<const std::uint8_t> hops) {
    if (hops.size() > kCapacity) {
      return OutOfRange("route of " + std::to_string(hops.size()) +
                        " hops exceeds the " + std::to_string(kCapacity) +
                        "-hop limit");
    }
    Route r;
    r.assign(hops.data(), hops.data() + hops.size());
    return r;
  }

  std::size_t size() const { return end_ - head_; }
  bool empty() const { return end_ == head_; }
  const std::uint8_t* begin() const { return hops_ + head_; }
  const std::uint8_t* end() const { return hops_ + end_; }
  std::uint8_t operator[](std::size_t i) const {
    assert(i < size());
    return hops_[head_ + i];
  }
  std::uint8_t& front() {
    assert(!empty());
    return hops_[head_];
  }
  operator std::span<const std::uint8_t>() const { return {begin(), size()}; }

  void assign(const std::uint8_t* first, const std::uint8_t* last) {
    const auto n = static_cast<std::size_t>(last - first);
    assert(n <= kCapacity && "route longer than Route::kCapacity");
    head_ = 0;
    end_ = static_cast<std::uint8_t>(std::min(n, kCapacity));
    if (end_ != 0) std::memcpy(hops_, first, end_);
  }
  // Consumes the first hop (a switch routing the packet).
  void PopFront() {
    assert(!empty());
    ++head_;
  }

 private:
  std::uint8_t hops_[kCapacity] = {};
  std::uint8_t head_ = 0;  // first unconsumed hop
  std::uint8_t end_ = 0;   // one past the last hop
};

// Payload bytes are shared, copy-on-write (see util/buffer.h): copying a
// Packet into a switch queue or the retx-pool bumps a refcount instead of
// duplicating the bytes, so a payload is written once at the source NIC
// and never copied again unless a fault rule actually mutates it.
using Buffer = util::Buffer;

struct Packet {
  int src_nic = -1;   // injecting NIC id (diagnostics only; not on the wire)
  Route route;        // consumed hop by hop
  Buffer payload;

  // Bytes occupying the wire: remaining route bytes + payload + CRC.
  std::size_t wire_bytes() const { return route.size() + payload.size() + 1; }

  // Link-hardware CRC, stamped at injection over the payload and checked
  // on arrival. The verdict is exactly Crc8(payload) == Crc8(bytes at the
  // last stamp), but computed lazily: the stamp keeps a reference to the
  // stamped bytes instead of their CRC. While `stamped_` holds that
  // reference the block is shared, so copy-on-write sends every later
  // write through `payload` (a fault flip, a growing resize, an assign)
  // to a fresh block; a shrink keeps the block but not the size. Hence a
  // payload still on the stamped block at the stamped size holds the
  // stamped bytes, and only a changed payload pays for the two CRCs.
  // This rests on util::Buffer's invariant that a shared block is never
  // written: no code may write through a MutableData() pointer after
  // that Buffer has been copied.
  void StampCrc() { stamped_ = payload; }
  bool CrcOk() const {
    const bool unchanged = payload.data() == stamped_.data() &&
                           payload.size() == stamped_.size();
    return unchanged || Crc8(payload) == Crc8(stamped_);
  }

 private:
  Buffer stamped_;  // the payload as stamped; empty until StampCrc()
};

// One cache line. Packets travel inside event captures (Link::Send,
// Switch::OnPacket, NicCard::OnPacket), which must fit InlineFn's 96-byte
// inline storage: a bigger Packet would put a heap allocation on every hop.
static_assert(sizeof(Packet) == 64, "Packet must stay 64 bytes");

}  // namespace vmmc::myrinet
