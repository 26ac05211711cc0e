// Batch-frame codec (wire/batch_frame.hpp): bit-exact round-trips for the
// head bytes and every payload/proof, plus rejection of bad magic, unknown
// versions, truncation, entry counts the frame cannot hold, and oversized
// proof paths.
#include "wire/batch_frame.hpp"

#include <gtest/gtest.h>

#include "wire/codec.hpp"

namespace tlc::wire {
namespace {

Digest32 digest_of(std::uint8_t fill) {
  Digest32 d{};
  d.fill(fill);
  return d;
}

BatchFrame sample_frame() {
  BatchFrame frame;
  frame.header.trace_id = 0x1122334455667788ULL;
  frame.header.span_id = 0x99AABBCCDDEEFF00ULL;
  frame.header.attempt = 3;
  frame.head = ByteVec{0xDE, 0xAD, 0xBE, 0xEF, 0x42};
  BatchFrameEntry e0;
  e0.payload = ByteVec{1, 2, 3, 4, 5, 6};
  e0.leaf_index = 0;
  e0.leaf_count = 2;
  e0.path = {digest_of(0xAA)};
  BatchFrameEntry e1;
  e1.payload = ByteVec{7};
  e1.leaf_index = 1;
  e1.leaf_count = 2;
  e1.path = {digest_of(0xBB)};
  frame.entries = {e0, e1};
  return frame;
}

TEST(BatchFrame, RoundTripsBitExactly) {
  const BatchFrame frame = sample_frame();
  const ByteVec bytes = encode_batch_frame(frame);
  const BatchFrame back = decode_batch_frame(bytes);
  EXPECT_EQ(back.header.trace_id, frame.header.trace_id);
  EXPECT_EQ(back.header.span_id, frame.header.span_id);
  EXPECT_EQ(back.header.attempt, frame.header.attempt);
  EXPECT_EQ(back.head, frame.head);
  ASSERT_EQ(back.entries.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(back.entries[i].payload, frame.entries[i].payload);
    EXPECT_EQ(back.entries[i].leaf_index, frame.entries[i].leaf_index);
    EXPECT_EQ(back.entries[i].leaf_count, frame.entries[i].leaf_count);
    EXPECT_EQ(back.entries[i].path, frame.entries[i].path);
  }
  // Re-encoding the decode reproduces the same wire bytes.
  EXPECT_EQ(encode_batch_frame(back), bytes);
}

TEST(BatchFrame, EmptyEntryListRoundTrips) {
  BatchFrame frame;
  frame.head = ByteVec{0x01};
  const BatchFrame back = decode_batch_frame(encode_batch_frame(frame));
  EXPECT_TRUE(back.entries.empty());
  EXPECT_EQ(back.head, frame.head);
}

TEST(BatchFrame, RejectsBadMagic) {
  ByteVec bytes = encode_batch_frame(sample_frame());
  bytes[0] ^= 0xFF;
  EXPECT_THROW((void)decode_batch_frame(bytes), DecodeError);
}

TEST(BatchFrame, RejectsUnknownVersion) {
  ByteVec bytes = encode_batch_frame(sample_frame());
  bytes[4] = kBatchFrameVersion + 1;
  EXPECT_THROW((void)decode_batch_frame(bytes), DecodeError);
}

TEST(BatchFrame, RejectsTruncation) {
  const ByteVec bytes = encode_batch_frame(sample_frame());
  for (std::size_t cut : {bytes.size() - 1, bytes.size() / 2, std::size_t{3}}) {
    const ByteVec prefix(bytes.begin(),
                         bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW((void)decode_batch_frame(prefix), DecodeError) << cut;
  }
  EXPECT_THROW((void)decode_batch_frame(ByteVec{}), DecodeError);
}

TEST(BatchFrame, RejectsEntryCountBeyondFrame) {
  // The count is read before any entry: a count the remaining bytes cannot
  // hold must be a DecodeError, never an allocation sized by the wire.
  const BatchFrame frame = sample_frame();
  const ByteVec bytes = encode_batch_frame(frame);
  const std::size_t count_at = kFrameOverhead + frame.head.size();
  const auto with_count = [&](std::uint32_t count) {
    ByteVec out = bytes;
    for (std::size_t i = 0; i < 4; ++i) {
      out[count_at + i] = static_cast<std::uint8_t>(count >> (24 - 8 * i));
    }
    return out;
  };
  ASSERT_EQ(decode_batch_frame(with_count(2)).entries.size(), 2u);
  EXPECT_THROW((void)decode_batch_frame(with_count(0xFFFFFFFFu)), DecodeError);
  EXPECT_THROW((void)decode_batch_frame(with_count(3)), DecodeError);
}

TEST(BatchFrame, RejectsOversizedProofPath) {
  BatchFrame frame = sample_frame();
  frame.entries[0].path.assign(kMaxProofPath + 1, digest_of(0xCC));
  const ByteVec bytes = encode_batch_frame(frame);
  EXPECT_THROW((void)decode_batch_frame(bytes), DecodeError);
}

TEST(BatchFrame, MaxProofPathIsAccepted) {
  BatchFrame frame = sample_frame();
  frame.entries[0].path.assign(kMaxProofPath, digest_of(0xDD));
  const BatchFrame back = decode_batch_frame(encode_batch_frame(frame));
  EXPECT_EQ(back.entries[0].path.size(), kMaxProofPath);
}

}  // namespace
}  // namespace tlc::wire
