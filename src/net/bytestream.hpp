// Byte-oriented serialization for the wire protocol. Little-endian, with
// explicit bounds checking on the read side: a malformed datagram must
// never crash the server (reads past the end return zeros and poison the
// reader, which callers check once per message).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/vec.hpp"

namespace qserv::net {

class ByteWriter {
 public:
  void u8(uint8_t v);
  void u16(uint16_t v);
  void u32(uint32_t v);
  void u64(uint64_t v);
  void i32(int32_t v) { u32(static_cast<uint32_t>(v)); }
  void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }
  void f32(float v);
  void vec3(const Vec3& v);
  // Length-prefixed (u16) string, truncated at 65535 bytes.
  void str(const std::string& s);
  void bytes(const uint8_t* data, size_t n);

  const std::vector<uint8_t>& data() const { return buf_; }
  // In-place header stamping for sends from a reused buffer (NetChannel
  // headroom); callers own the offset arithmetic.
  uint8_t* mutable_data() { return buf_.data(); }
  std::vector<uint8_t> take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }
  void clear() { buf_.clear(); }

 private:
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
