// On-the-wire format of VMMC packets.
//
// A long message is sent in chunks; "each chunk consists of routing
// information, a header, and data. The routing information is in standard
// Myrinet format. The header includes the message length and two physical
// destination addresses" (§4.5) — two so the receiving LANai can scatter a
// chunk that spans a page boundary in destination memory; when no boundary
// is crossed the second address is zero. The receiver computes the scatter
// lengths from the addresses and the chunk length.
//
// The same framing carries the mapping-phase probe/reply packets (§4.3).
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "vmmc/mem/types.h"
#include "vmmc/util/buffer.h"

namespace vmmc::vmmc_core {

enum class PacketType : std::uint8_t {
  kData = 1,       // VMMC chunk
  kMapProbe = 2,   // network-mapping probe
  kMapReply = 3,   // network-mapping reply
  kAck = 4,        // cumulative acknowledgment (reliability layer)
  kRdmaRead = 5,   // one-sided read request; remote LCP serves data chunks
};

struct ChunkHeader {
  static constexpr std::size_t kWireSize = 40;

  PacketType type = PacketType::kData;
  std::uint8_t flags = 0;
  static constexpr std::uint8_t kFlagLastChunk = 0x01;
  static constexpr std::uint8_t kFlagNotify = 0x02;
  // Receiver-side addressing (rkey model): dst_pa0 carries
  // (rtag << 32) | byte_offset instead of a physical address, and the
  // receiving LCP resolves it against its registered-region table. This
  // is what lets a sender target memory it never exchanged frame lists
  // for — the registration travels as one 32-bit tag. dst_pa1 is unused
  // (the receiver computes its own page-crossing scatter split).
  static constexpr std::uint8_t kFlagRtag = 0x08;

  std::uint16_t src_node = 0;
  std::uint32_t msg_len = 0;    // total message length in bytes
  std::uint32_t chunk_len = 0;  // bytes of data in this chunk
  std::uint64_t dst_pa0 = 0;    // first scatter target
  std::uint64_t dst_pa1 = 0;    // second scatter target (0: none)
  std::uint32_t tag = 0;        // sender-side bookkeeping (mapping: probe id)

  // Go-back-N fields of the VMMC LCP (mapping traffic and the compat
  // layers leave them 0). For kData/kRdmaRead: the per-{src_node ->
  // dst_node} sequence number. For an ACK: the cumulative acknowledgment —
  // the next sequence number the acking node (src_node) expects from
  // dst_node.
  std::uint32_t seq = 0;
  std::uint16_t dst_node = 0;

  bool last_chunk() const { return flags & kFlagLastChunk; }
  bool notify() const { return flags & kFlagNotify; }
  bool rtag_addressed() const { return flags & kFlagRtag; }

  // Accessors for the kFlagRtag encoding of dst_pa0 (and, for kRdmaRead
  // requests, the source encoding in dst_pa1).
  static std::uint64_t PackRtag(std::uint32_t rtag, std::uint64_t offset) {
    return (std::uint64_t{rtag} << 32) | (offset & 0xffff'ffffull);
  }
  static std::uint32_t RtagOf(std::uint64_t packed) {
    return static_cast<std::uint32_t>(packed >> 32);
  }
  static std::uint64_t RtagOffsetOf(std::uint64_t packed) {
    return packed & 0xffff'ffffull;
  }

  // Scatter split: how many of chunk_len bytes go to dst_pa0. The first
  // segment runs to the end of dst_pa0's page if a second address is set.
  std::uint32_t ScatterLen0() const {
    if (dst_pa1 == 0) return chunk_len;
    const std::uint64_t to_page_end = mem::kPageSize - mem::PageOffset(dst_pa0);
    return static_cast<std::uint32_t>(
        to_page_end < chunk_len ? to_page_end : chunk_len);
  }
};

// Writes the kWireSize-byte header (little endian) at `dst`, which must
// have room for it. Zero-copy senders encode straight into a payload
// buffer whose data bytes were DMA'd in place (no intermediate vector).
void EncodeHeaderInto(const ChunkHeader& header, std::uint8_t* dst);

// A fresh payload of kWireSize bytes of header room followed by a copy of
// `data`, for EncodeHeaderInto to complete.
util::Buffer ChunkPayload(std::span<const std::uint8_t> data);

// Serializes header + data into a packet payload (little endian).
util::Buffer EncodeChunk(const ChunkHeader& header,
                         std::span<const std::uint8_t> data);

// Parses a payload; returns nullopt on malformed input (short payload or
// length mismatch). `data` views into `payload`, which must outlive it.
struct DecodedChunk {
  ChunkHeader header;
  std::span<const std::uint8_t> data;
};
std::optional<DecodedChunk> DecodeChunk(std::span<const std::uint8_t> payload);

}  // namespace vmmc::vmmc_core
