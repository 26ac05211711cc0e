// Binary wire codec for TLC protocol messages.
//
// Big-endian, length-prefixed primitives. Charging messages are small
// (hundreds of bytes), so the codec favours explicitness and bounds-checked
// reads over zero-copy tricks: a malformed message must fail loudly, not
// read out of bounds.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/hex.hpp"
#include "common/units.hpp"

namespace tlc::wire {

/// Thrown when decoding runs past the end of the buffer or hits an
/// impossible value. Verification treats this as "message invalid".
class DecodeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Writer {
 public:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Double encoded as IEEE-754 bits, big-endian.
  void f64(double v);
  /// Length-prefixed (u32) byte string.
  void bytes(std::span<const std::uint8_t> data);
  /// Length-prefixed (u32) UTF-8 string.
  void string(std::string_view s);
  /// Raw bytes with no length prefix (fixed-size fields).
  void raw(std::span<const std::uint8_t> data);

  [[nodiscard]] const ByteVec& buffer() const { return buf_; }
  [[nodiscard]] ByteVec take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

  /// Drops the contents but keeps the allocation, so one Writer can encode
  /// a stream of messages with a single amortised buffer (the signing path
  /// keeps a thread-local Writer for exactly this).
  void clear() { buf_.clear(); }
  void reserve(std::size_t n) { buf_.reserve(n); }

 private:
  ByteVec buf_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] double f64();
  [[nodiscard]] ByteVec bytes();
  [[nodiscard]] std::string string();
  [[nodiscard]] ByteVec raw(std::size_t n);
  /// Fills `out` with the next out.size() bytes (no length prefix): the
  /// read for fixed-width fields, which decodes them in place instead of
  /// allocating a ByteVec per field.
  void raw_into(std::span<std::uint8_t> out);

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool at_end() const { return remaining() == 0; }
  /// Throws DecodeError unless the buffer is fully consumed.
  void expect_end() const;

 private:
  void need(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace tlc::wire
