// Myrinet packets: a source route (one output-port byte consumed per
// switch, standard Myrinet format, §4.5), an opaque payload, and a CRC-8
// appended by the link hardware.
#pragma once

#include <cstdint>
#include <vector>

#include "vmmc/myrinet/crc8.h"
#include "vmmc/util/buffer.h"

namespace vmmc::myrinet {

// The remaining source route: front() is the output port at the next switch.
using Route = std::vector<std::uint8_t>;

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

}  // namespace vmmc::myrinet
