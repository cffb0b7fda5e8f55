// Fixed-seed byte mutations shared by the tests that fuzz a decoder in
// tree: the wire payload codecs (protocol_test), checkpoint images
// (checkpoint_test) and a live server's socket (net_server_test).

#ifndef SPOT_TESTS_MUTATIONS_H_
#define SPOT_TESTS_MUTATIONS_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace spot {

/// Calls `visit` with each fixed-seed mutation of `p` in turn: every
/// truncation, every byte overwritten with a few boundary values, every
/// 4-byte window read as a little-endian u32 (where the length and count
/// fields live) nudged and zeroed, and `rounds` rounds of random splices
/// with `other` (another sample of the same type), range deletions, range
/// duplications and multi-byte flips. For an input too large to mutate
/// exhaustively, `stride` > 1 keeps every `stride`-th truncation length,
/// byte and window. One mutation is live at a time, so a large input costs
/// one copy, not one per mutation.
template <typename Visit>
void ForEachMutation(const std::string& p, const std::string& other, Rng* rng,
                     Visit&& visit, std::size_t stride = 1, int rounds = 200) {
  for (std::size_t n = 0; n < p.size(); n += stride) visit(p.substr(0, n));
  std::string m = p;
  for (std::size_t i = 0; i < p.size(); i += stride) {
    for (const int b : {0x00, 0x01, 0x02, 0x7F, 0x80, 0xFF,
                        static_cast<unsigned char>(p[i]) ^ 0x01}) {
      m[i] = static_cast<char>(b);
      visit(m);
    }
    m[i] = p[i];
  }
  for (std::size_t i = 0; i + 4 <= p.size(); i += stride) {
    std::uint32_t v = 0;
    std::memcpy(&v, p.data() + i, 4);
    for (const std::uint32_t w : {v + 1, v - 1, v + 8, v - 8, 0u, 2 * v}) {
      std::memcpy(&m[i], &w, 4);
      visit(m);
    }
    std::memcpy(&m[i], &v, 4);
  }
  const auto cut = [rng](const std::string& s) {
    return static_cast<std::size_t>(rng->NextUint64(s.size() + 1));
  };
  for (int k = 0; k < rounds; ++k) {
    visit(p.substr(0, cut(p)) + other.substr(cut(other)));
    std::size_t a = cut(p);
    std::size_t b = cut(p);
    if (a > b) std::swap(a, b);
    visit(p.substr(0, a) + p.substr(b));  // deletion
    visit(p.substr(0, b) + p.substr(a));  // duplication
    std::string flipped = p;
    for (int f = 0; f < 3 && !flipped.empty(); ++f) {
      flipped[rng->NextUint64(flipped.size())] =
          static_cast<char>(1 + rng->NextUint64(255));
    }
    visit(flipped);
  }
}

}  // namespace spot

#endif  // SPOT_TESTS_MUTATIONS_H_
