#include "wire/codec.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>

#include "common/hot.hpp"

namespace tlc::wire {

TLC_HOT void Writer::u8(std::uint8_t v) { buf_.push_back(v); }

TLC_HOT void Writer::u16(std::uint16_t v) {
  u8(static_cast<std::uint8_t>(v >> 8));
  u8(static_cast<std::uint8_t>(v));
}

TLC_HOT void Writer::u32(std::uint32_t v) {
  u16(static_cast<std::uint16_t>(v >> 16));
  u16(static_cast<std::uint16_t>(v));
}

TLC_HOT void Writer::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v >> 32));
  u32(static_cast<std::uint32_t>(v));
}

TLC_HOT void Writer::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

TLC_HOT void Writer::bytes(std::span<const std::uint8_t> data) {
  if (data.size() > std::numeric_limits<std::uint32_t>::max()) {
    // tlc-lint: allow(hot-path-alloc): cold guard — charging messages are
    // hundreds of bytes, a >4 GiB field is a caller bug
    throw std::length_error{"Writer::bytes: field too large"};
  }
  u32(static_cast<std::uint32_t>(data.size()));
  raw(data);
}

TLC_HOT void Writer::string(std::string_view s) {
  bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

TLC_HOT void Writer::raw(std::span<const std::uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

TLC_HOT void Reader::need(std::size_t n) const {
  if (remaining() < n) {
    // tlc-lint: allow(hot-path-alloc): DecodeError is the protocol's reject
    // path — never taken for well-formed frames
    throw DecodeError{"Reader: truncated message"};
  }
}

TLC_HOT std::uint8_t Reader::u8() {
  need(1);
  return data_[pos_++];
}

TLC_HOT std::uint16_t Reader::u16() {
  const auto hi = static_cast<std::uint16_t>(u8());
  const auto lo = static_cast<std::uint16_t>(u8());
  return static_cast<std::uint16_t>((hi << 8) | lo);
}

TLC_HOT std::uint32_t Reader::u32() {
  const auto hi = static_cast<std::uint32_t>(u16());
  const auto lo = static_cast<std::uint32_t>(u16());
  return (hi << 16) | lo;
}

TLC_HOT std::uint64_t Reader::u64() {
  const auto hi = static_cast<std::uint64_t>(u32());
  const auto lo = static_cast<std::uint64_t>(u32());
  return (hi << 32) | lo;
}

TLC_HOT double Reader::f64() { return std::bit_cast<double>(u64()); }

TLC_HOT ByteVec Reader::bytes() {
  const std::uint32_t len = u32();
  return raw(len);
}

TLC_HOT std::string Reader::string() {
  const ByteVec b = bytes();
  return {b.begin(), b.end()};
}

TLC_HOT ByteVec Reader::raw(std::size_t n) {
  need(n);
  ByteVec out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
              data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

TLC_HOT void Reader::raw_into(std::span<std::uint8_t> out) {
  need(out.size());
  std::copy_n(data_.begin() + static_cast<std::ptrdiff_t>(pos_), out.size(),
              out.begin());
  pos_ += out.size();
}

TLC_HOT void Reader::expect_end() const {
  if (!at_end()) {
    // tlc-lint: allow(hot-path-alloc): DecodeError is the protocol's reject
    // path — never taken for well-formed frames
    throw DecodeError{"Reader: trailing bytes after message"};
  }
}

}  // namespace tlc::wire
