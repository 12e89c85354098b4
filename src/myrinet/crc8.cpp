#include "vmmc/myrinet/crc8.h"

#include <array>
#include <cstddef>

namespace vmmc::myrinet {

namespace {
constexpr std::uint8_t kPoly = 0x07;

using Table = std::array<std::uint8_t, 256>;

// kTables[k][b] is the CRC of byte b followed by k zero bytes. CRC-8 is
// linear, so the CRC of eight bytes is the XOR of one lookup per byte,
// each in the table for the number of bytes that follow it.
constexpr std::array<Table, 8> MakeTables() {
  std::array<Table, 8> t{};
  for (int i = 0; i < 256; ++i) {
    std::uint8_t crc = static_cast<std::uint8_t>(i);
    for (int bit = 0; bit < 8; ++bit) {
      crc = static_cast<std::uint8_t>((crc & 0x80) ? (crc << 1) ^ kPoly : crc << 1);
    }
    t[0][static_cast<std::size_t>(i)] = crc;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) t[k][i] = t[0][t[k - 1][i]];
  }
  return t;
}

constexpr std::array<Table, 8> kTables = MakeTables();
}  // namespace

std::uint8_t Crc8Update(std::uint8_t crc, std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    crc = kTables[7][crc ^ p[0]] ^ kTables[6][p[1]] ^ kTables[5][p[2]] ^
          kTables[4][p[3]] ^ kTables[3][p[4]] ^ kTables[2][p[5]] ^
          kTables[1][p[6]] ^ kTables[0][p[7]];
  }
  for (; n > 0; ++p, --n) crc = kTables[0][crc ^ *p];
  return crc;
}

std::uint8_t Crc8(std::span<const std::uint8_t> data) {
  return Crc8Update(0, data);
}

}  // namespace vmmc::myrinet
