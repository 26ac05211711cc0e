#include "wire/codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

namespace tlc::wire {
namespace {

TEST(Codec, PrimitiveRoundTrip) {
  Writer w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.f64(3.14159);

  Reader r{w.buffer()};
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.at_end());
}

TEST(Codec, BigEndianLayout) {
  Writer w;
  w.u32(0x01020304);
  const ByteVec& buf = w.buffer();
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[3], 0x04);
}

TEST(Codec, BytesRoundTrip) {
  Writer w;
  const ByteVec payload{1, 2, 3, 4, 5};
  w.bytes(payload);
  Reader r{w.buffer()};
  EXPECT_EQ(r.bytes(), payload);
  EXPECT_TRUE(r.at_end());
}

TEST(Codec, EmptyBytes) {
  Writer w;
  w.bytes({});
  Reader r{w.buffer()};
  EXPECT_TRUE(r.bytes().empty());
}

TEST(Codec, StringRoundTrip) {
  Writer w;
  w.string("hello, 4G/5G");
  Reader r{w.buffer()};
  EXPECT_EQ(r.string(), "hello, 4G/5G");
}

TEST(Codec, RawHasNoLengthPrefix) {
  Writer w;
  const ByteVec raw{9, 8, 7};
  w.raw(raw);
  EXPECT_EQ(w.size(), 3u);
  Reader r{w.buffer()};
  EXPECT_EQ(r.raw(3), raw);

  // The fixed-width read fills a caller's array from the same bytes.
  Reader fixed{w.buffer()};
  std::array<std::uint8_t, 3> field{};
  fixed.raw_into(field);
  EXPECT_TRUE(std::equal(field.begin(), field.end(), raw.begin()));
  EXPECT_TRUE(fixed.at_end());
}

TEST(Codec, TruncatedReadThrows) {
  Writer w;
  w.u16(0x1234);
  Reader r{w.buffer()};
  EXPECT_THROW((void)r.u32(), DecodeError);
  std::array<std::uint8_t, 4> field{};
  EXPECT_THROW(r.raw_into(field), DecodeError);
}

TEST(Codec, TruncatedBytesThrows) {
  Writer w;
  w.u32(100);  // claims 100 bytes follow; none do
  Reader r{w.buffer()};
  EXPECT_THROW((void)r.bytes(), DecodeError);
}

TEST(Codec, ExpectEndThrowsOnTrailing) {
  Writer w;
  w.u8(1);
  w.u8(2);
  Reader r{w.buffer()};
  (void)r.u8();
  EXPECT_THROW(r.expect_end(), DecodeError);
  (void)r.u8();
  EXPECT_NO_THROW(r.expect_end());
}

TEST(Codec, RemainingTracksPosition) {
  Writer w;
  w.u32(7);
  Reader r{w.buffer()};
  EXPECT_EQ(r.remaining(), 4u);
  (void)r.u16();
  EXPECT_EQ(r.remaining(), 2u);
}

TEST(Codec, F64SpecialValues) {
  Writer w;
  w.f64(0.0);
  w.f64(-1.5);
  w.f64(std::numeric_limits<double>::infinity());
  Reader r{w.buffer()};
  EXPECT_DOUBLE_EQ(r.f64(), 0.0);
  EXPECT_DOUBLE_EQ(r.f64(), -1.5);
  EXPECT_TRUE(std::isinf(r.f64()));
}

TEST(Codec, TakeMovesBuffer) {
  Writer w;
  w.u8(42);
  const ByteVec taken = w.take();
  EXPECT_EQ(taken.size(), 1u);
  EXPECT_EQ(w.size(), 0u);
}

}  // namespace
}  // namespace tlc::wire
