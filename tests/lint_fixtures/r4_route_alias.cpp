// vmmc-lint fixture: R4 raw-buffer — the shape that once hid a per-packet
// allocation: a source route declared as a byte-vector alias and carried
// by value in every packet, copied at each NIC send and retransmit record.
// Run with --scope=hot.
#include <cstdint>
#include <vector>

namespace myrinet {

// EXPECT-LINT: R4
using Route = std::vector<std::uint8_t>;

struct Packet {
  int src_nic = -1;
  Route route;  // EXPECT-LINT: R4
};

inline Packet Reply(const Packet& probe) {
  Route back = probe.route;  // EXPECT-LINT: R4
  Packet p;
  p.route = back;  // an assignment is not a declaration: no finding
  return p;
}

}  // namespace myrinet
