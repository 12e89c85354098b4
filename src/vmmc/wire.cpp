#include "vmmc/vmmc/wire.h"

#include <cstring>

namespace vmmc::vmmc_core {

namespace {
void PutU16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}
void PutU32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
void PutU64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
std::uint16_t GetU16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}
std::uint32_t GetU32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}
std::uint64_t GetU64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}
}  // namespace

void EncodeHeaderInto(const ChunkHeader& header, std::uint8_t* dst) {
  dst[0] = static_cast<std::uint8_t>(header.type);
  dst[1] = header.flags;
  PutU16(&dst[2], header.src_node);
  PutU32(&dst[4], header.msg_len);
  PutU32(&dst[8], header.chunk_len);
  PutU64(&dst[12], header.dst_pa0);
  PutU64(&dst[20], header.dst_pa1);
  PutU32(&dst[28], header.tag);
  PutU32(&dst[32], header.seq);
  PutU16(&dst[36], header.dst_node);
  // The destination may be uninitialized pool storage: the reserved tail
  // must be written explicitly or stale bytes leak onto the wire.
  dst[38] = 0;
  dst[39] = 0;
}

util::Buffer ChunkPayload(std::span<const std::uint8_t> data) {
  auto out = util::Buffer::Uninitialized(ChunkHeader::kWireSize + data.size());
  if (!data.empty()) {
    std::memcpy(out.MutableData() + ChunkHeader::kWireSize, data.data(),
                data.size());
  }
  return out;
}

util::Buffer EncodeChunk(const ChunkHeader& header,
                         std::span<const std::uint8_t> data) {
  util::Buffer out = ChunkPayload(data);
  EncodeHeaderInto(header, out.MutableData());
  return out;
}

std::optional<DecodedChunk> DecodeChunk(std::span<const std::uint8_t> payload) {
  if (payload.size() < ChunkHeader::kWireSize) return std::nullopt;
  DecodedChunk out;
  ChunkHeader& h = out.header;
  const std::uint8_t type = payload[0];
  if (type != static_cast<std::uint8_t>(PacketType::kData) &&
      type != static_cast<std::uint8_t>(PacketType::kMapProbe) &&
      type != static_cast<std::uint8_t>(PacketType::kMapReply) &&
      type != static_cast<std::uint8_t>(PacketType::kAck) &&
      type != static_cast<std::uint8_t>(PacketType::kRdmaRead)) {
    return std::nullopt;
  }
  h.type = static_cast<PacketType>(type);
  h.flags = payload[1];
  h.src_node = GetU16(&payload[2]);
  h.msg_len = GetU32(&payload[4]);
  h.chunk_len = GetU32(&payload[8]);
  h.dst_pa0 = GetU64(&payload[12]);
  h.dst_pa1 = GetU64(&payload[20]);
  h.tag = GetU32(&payload[28]);
  h.seq = GetU32(&payload[32]);
  h.dst_node = GetU16(&payload[36]);
  if (payload.size() != ChunkHeader::kWireSize + h.chunk_len) return std::nullopt;
  out.data = payload.subspan(ChunkHeader::kWireSize);
  return out;
}

}  // namespace vmmc::vmmc_core
