// Byte-oriented serialization for the wire protocol. Little-endian, with
// explicit bounds checking on the read side: a malformed datagram must
// never crash the server (reads past the end return zeros and poison the
// reader, which callers check once per message).
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "src/util/vec.hpp"

namespace qserv::net {

// The fixed-width writers are inline and grow the buffer once per field
// (one bytes() call): they sit on the reply path, once per header field
// and delta record. bytes() stays out of line; inlined into a function
// that builds a fresh writer, the vector's growth path draws GCC 12's
// false -Wstringop-overflow at -O3.
class ByteWriter {
 public:
  void u8(uint8_t v) { buf_.push_back(v); }
  void u16(uint16_t v) { append<2>(v); }
  void u32(uint32_t v) { append<4>(v); }
  void u64(uint64_t v) { append<8>(v); }
  void i32(int32_t v) { u32(static_cast<uint32_t>(v)); }
  void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }
  void f32(float v) { append<4>(bits(v)); }
  void vec3(const Vec3& v) {
    uint8_t b[12];
    store<4>(b, bits(v.x));
    store<4>(b + 4, bits(v.y));
    store<4>(b + 8, bits(v.z));
    bytes(b, sizeof b);
  }
  // Length-prefixed (u16) string, truncated at 65535 bytes.
  void str(const std::string& s);
  void bytes(const uint8_t* data, size_t n);
  // Drops the first `n` bytes (a log trimmed from the front).
  void erase_front(size_t n);

  const std::vector<uint8_t>& data() const { return buf_; }
  // In-place header stamping for sends from a reused buffer (NetChannel
  // headroom); callers own the offset arithmetic.
  uint8_t* mutable_data() { return buf_.data(); }
  std::vector<uint8_t> take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }
  void clear() { buf_.clear(); }

 private:
  // Little-endian store of the low N bytes of `v`.
  template <int N>
  static void store(uint8_t* p, uint64_t v) {
    for (int i = 0; i < N; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
  }
  template <int N>
  void append(uint64_t v) {
    uint8_t b[N];
    store<N>(b, v);
    bytes(b, N);
  }
  static uint32_t bits(float v) {
    uint32_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
  }

  std::vector<uint8_t> buf_;
};

class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t n) : data_(data), size_(n) {}
  explicit ByteReader(const std::vector<uint8_t>& v)
      : ByteReader(v.data(), v.size()) {}

  uint8_t u8();
  uint16_t u16();
  uint32_t u32();
  uint64_t u64();
  int32_t i32() { return static_cast<int32_t>(u32()); }
  int64_t i64() { return static_cast<int64_t>(u64()); }
  float f32();
  Vec3 vec3();
  std::string str();

  size_t remaining() const { return size_ - pos_; }
  // True once any read ran past the end of the buffer.
  bool overflowed() const { return overflowed_; }
  // A message parsed cleanly iff nothing overflowed and (optionally) all
  // bytes were consumed.
  bool ok() const { return !overflowed_; }

 private:
  bool take(size_t n);

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool overflowed_ = false;
};

}  // namespace qserv::net
