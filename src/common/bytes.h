#ifndef SPOT_COMMON_BYTES_H_
#define SPOT_COMMON_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace spot {

/// The one binary codec of the library: detector checkpoint images and
/// wire frames (net/protocol.h) are both written with ByteWriter and
/// parsed with ByteReader, so their byte layout is defined here once. Little-endian fixed-width fields; doubles are raw
/// IEEE-754 bit patterns, so every value round-trips bit-identically;
/// strings carry a u32 length prefix, coordinate lists a u32 count.

/// IEEE CRC-32 (the zlib/PNG polynomial, reflected), computed
/// slicing-by-8. Seals wire payloads and checkpoint images.
std::uint32_t Crc32(const void* data, std::size_t len);

/// Append-only little-endian writer into an owned byte buffer.
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Reserves `capacity` bytes up front (a known final size avoids the
  /// doubling growth of the buffer).
  explicit ByteWriter(std::size_t capacity) { buf_.reserve(capacity); }

  void U8(std::uint8_t v) { Fixed(v, 1); }
  void U16(std::uint16_t v) { Fixed(v, 2); }
  void U32(std::uint32_t v) { Fixed(v, 4); }
  void U64(std::uint64_t v) { Fixed(v, 8); }
  /// Raw IEEE-754 bit pattern: the value reads back bit-identically.
  void F64(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v), "IEEE-754 double expected");
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Bool(bool v) { U8(v ? 1 : 0); }
  /// u32 length prefix + bytes.
  void Str(const std::string& s) {
    U32(static_cast<std::uint32_t>(s.size()));
    buf_.append(s);
  }
  /// u32 count prefix + u32 values (grid cell coordinates).
  void Coords(const std::uint32_t* c, std::size_t n) {
    U32(static_cast<std::uint32_t>(n));
    for (std::size_t i = 0; i < n; ++i) U32(c[i]);
  }
  void Coords(const std::vector<std::uint32_t>& c) {
    Coords(c.data(), c.size());
  }

  const std::string& bytes() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  void Fixed(std::uint64_t v, std::size_t n) {
    char b[8];
    for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<char>(v >> (8 * i));
    buf_.append(b, n);
  }

  std::string buf_;
};

/// Bounds-checked little-endian reader over a borrowed byte buffer (which
/// must outlive it). Every accessor returns a neutral value once a read
/// overruns the buffer or a caller marks a validation failure; the
/// failure is sticky, so loaders test ok() at section boundaries.
class ByteReader {
 public:
  ByteReader(const char* data, std::size_t len) : data_(data), len_(len) {}
  explicit ByteReader(const std::string& buf)
      : ByteReader(buf.data(), buf.size()) {}

  std::uint8_t U8() { return static_cast<std::uint8_t>(Fixed(1)); }
  std::uint16_t U16() { return static_cast<std::uint16_t>(Fixed(2)); }
  std::uint32_t U32() { return static_cast<std::uint32_t>(Fixed(4)); }
  std::uint64_t U64() { return Fixed(8); }
  double F64() {
    const std::uint64_t bits = U64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  /// A flag byte: 0 or 1. Any other byte fails the read, so every flag
  /// has exactly one encoding.
  bool Bool() {
    const std::uint8_t b = U8();
    if (b > 1) Fail();
    return b == 1;
  }
  std::string Str();
  /// A coordinate list of at most 2^20 entries (a longer count is a
  /// corrupt prefix, refused before allocating).
  std::vector<std::uint32_t> Coords();

  /// Marks the read as failed (semantic validation error); always returns
  /// false so `return reader.Fail();` reads naturally in decoders.
  bool Fail() {
    failed_ = true;
    return false;
  }

  bool ok() const { return !failed_; }
  /// True when every byte has been consumed (decoders require this so
  /// input with trailing bytes is refused, not silently accepted).
  bool AtEnd() const { return !failed_ && pos_ == len_; }
  /// Bytes not yet consumed (decoders bound element counts against this
  /// before allocating, so a corrupt count cannot trigger a huge alloc).
  std::size_t remaining() const { return failed_ ? 0 : len_ - pos_; }

 private:
  std::uint64_t Fixed(std::size_t n) {
    if (failed_ || len_ - pos_ < n) {
      failed_ = true;
      return 0;
    }
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += n;
    return v;
  }

  const char* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace spot

#endif  // SPOT_COMMON_BYTES_H_
