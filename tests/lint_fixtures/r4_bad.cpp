// vmmc-lint fixture: R4 raw-buffer — known-bad.
//
// Per-packet allocation in the hot path: raw new[]/malloc, byte-vector
// payload staging (directly or through an alias) and std::deque queues.
// The contract (enforced at runtime by perf_guard_test's counting
// operator new) is that steady-state traffic allocates nothing — payloads
// live in the pooled copy-on-write util::Buffer, events in pooled
// EventNodes, FIFOs in util::Ring. Run with --scope=hot.
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <vector>

void Transmit(const std::uint8_t* data, std::uint32_t len);

void SendPacketNewArray(const std::uint8_t* data, std::uint32_t len) {
  auto* staging = new std::uint8_t[len];  // EXPECT-LINT: R4
  for (std::uint32_t i = 0; i < len; ++i) staging[i] = data[i];
  Transmit(staging, len);
  delete[] staging;
}

void SendPacketMalloc(const std::uint8_t* data, std::uint32_t len) {
  auto* staging = static_cast<std::uint8_t*>(malloc(len));  // EXPECT-LINT: R4
  for (std::uint32_t i = 0; i < len; ++i) staging[i] = data[i];
  Transmit(staging, len);
  free(staging);
}

void SendPacketVector(const std::uint8_t* data, std::uint32_t len) {
  std::vector<std::uint8_t> staging(data, data + len);  // EXPECT-LINT: R4
  Transmit(staging.data(), len);
}

// A byte vector behind an alias is still a byte vector (this is how a
// vector-backed packet route once slipped past the declaration pattern).
using RouteBytes = std::vector<std::uint8_t>;  // EXPECT-LINT: R4
typedef std::vector<unsigned char> Staging;  // EXPECT-LINT: R4

struct Packet {
  RouteBytes route;  // EXPECT-LINT: R4
};

void SendViaAlias(const std::uint8_t* data, std::uint32_t len) {
  Staging staging(data, data + len);  // EXPECT-LINT: R4
  Transmit(staging.data(), len);
}

// std::deque frees and reallocates chunks as a FIFO slides along.
struct PortQueue {
  std::deque<Packet> queue;  // EXPECT-LINT: R4
};
