#include "src/net/bytestream.hpp"

#include <cstddef>
#include <cstring>

namespace qserv::net {

void ByteWriter::str(const std::string& s) {
  const size_t n = s.size() > 65535 ? 65535 : s.size();
  u16(static_cast<uint16_t>(n));
  bytes(reinterpret_cast<const uint8_t*>(s.data()), n);
}

void ByteWriter::bytes(const uint8_t* data, size_t n) {
  buf_.insert(buf_.end(), data, data + n);
}

void ByteWriter::erase_front(size_t n) {
  buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(n));
}

bool ByteReader::take(size_t n) {
  if (size_ - pos_ < n) {
    overflowed_ = true;
    pos_ = size_;
    return false;
  }
  return true;
}

uint8_t ByteReader::u8() {
  if (!take(1)) return 0;
  return data_[pos_++];
}

uint16_t ByteReader::u16() {
  if (!take(2)) return 0;
  const uint16_t v = static_cast<uint16_t>(data_[pos_]) |
                     static_cast<uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

uint32_t ByteReader::u32() {
  const uint32_t lo = u16();
  const uint32_t hi = u16();
  return lo | (hi << 16);
}

uint64_t ByteReader::u64() {
  const uint64_t lo = u32();
  const uint64_t hi = u32();
  return lo | (hi << 32);
}

float ByteReader::f32() {
  const uint32_t bits = u32();
  float v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

Vec3 ByteReader::vec3() {
  const float x = f32(), y = f32(), z = f32();
  return {x, y, z};
}

std::string ByteReader::str() {
  const uint16_t n = u16();
  if (!take(n)) return {};
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

}  // namespace qserv::net
