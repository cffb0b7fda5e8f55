#include "common/bytes.h"

namespace spot {

namespace {

/// Slicing-by-8 tables for the reflected IEEE polynomial 0xEDB88320:
/// t[0] is the classic bytewise table, and t[k][b] is the CRC of byte b
/// followed by k zero bytes, so eight table reads fold eight input bytes.
struct Crc32Tables {
  std::uint32_t t[8][256] = {};

  constexpr Crc32Tables() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[0][i] = c;
    }
    for (int s = 1; s < 8; ++s) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFF];
      }
    }
  }
};

constexpr Crc32Tables kCrc;

std::uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t Crc32(const void* data, std::size_t len) {
  const auto& t = kCrc.t;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; len >= 8; p += 8, len -= 8) {
    const std::uint32_t lo = crc ^ LoadLe32(p);
    const std::uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) crc = t[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

std::string ByteReader::Str() {
  const std::uint32_t n = U32();
  if (failed_ || n > len_ - pos_) {
    failed_ = true;
    return std::string();
  }
  std::string s(data_ + pos_, n);
  pos_ += n;
  return s;
}

std::vector<std::uint32_t> ByteReader::Coords() {
  const std::uint32_t n = U32();
  if (failed_ || n > (1u << 20) || n > remaining() / 4) {
    failed_ = true;
    return {};
  }
  std::vector<std::uint32_t> c(n);
  for (std::uint32_t& v : c) v = U32();
  return c;
}

}  // namespace spot
