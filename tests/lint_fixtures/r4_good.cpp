// vmmc-lint fixture: R4 raw-buffer — known-good.
//
// The pooled path: util::Buffer for payload bytes (size-class pool,
// copy-on-write sharing), plus a justified allowlist for a user-facing
// result vector at an API boundary. Run with --scope=hot.
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace util {
class Buffer {
 public:
  static Buffer Uninitialized(std::size_t n);
  std::uint8_t* MutableData();
  const std::uint8_t* data() const;
  std::size_t size() const;
};
}  // namespace util

void Transmit(const std::uint8_t* data, std::uint32_t len);

void SendPacketPooled(const std::uint8_t* data, std::uint32_t len) {
  util::Buffer staging = util::Buffer::Uninitialized(len);
  std::memcpy(staging.MutableData(), data, len);
  Transmit(staging.data(), len);
}

void CopyOut(const util::Buffer& payload, std::vector<std::uint8_t>* result) {
  // vmmc-lint: allow(raw-buffer): user-facing result — the public API
  // hands the caller an owning std::vector, not a pooled view
  std::vector<std::uint8_t> out(payload.size());
  std::memcpy(out.data(), payload.data(), payload.size());
  *result = out;
}

// Aliases of non-byte vectors and inline byte arrays are fine, as is a
// capacity-keeping ring for per-packet FIFOs.
struct Route {
  std::uint8_t hops[26];
  std::uint8_t head, end;
};
using RouteTable = std::vector<Route>;
using Hop = std::uint8_t;

namespace util {
template <typename T>
class Ring {
 public:
  void push_back(T v);
  void pop_front();
};
}  // namespace util

struct PortQueue {
  util::Ring<Route> queue;
  RouteTable routes;
};
