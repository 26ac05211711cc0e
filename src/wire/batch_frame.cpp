#include "wire/batch_frame.hpp"

#include "wire/codec.hpp"

#include "common/hot.hpp"

namespace tlc::wire {
namespace {

/// The smallest encoded entry: payload length, leaf index, leaf count and
/// path length, with an empty payload and path.
constexpr std::size_t kMinEntryBytes = 4 + 4 + 4 + 1;

}  // namespace

TLC_HOT ByteVec encode_batch_frame(const BatchFrame& frame) {
  Writer w;
  std::size_t entry_bytes = 0;
  for (const BatchFrameEntry& e : frame.entries) {
    entry_bytes += 4 + e.payload.size() + 4 + 4 + 1 + 32 * e.path.size();
  }
  w.reserve(kFrameOverhead + frame.head.size() + 4 + entry_bytes);
  w.u32(kBatchFrameMagic);
  w.u8(kBatchFrameVersion);
  w.u8(frame.header.attempt);
  w.u64(frame.header.trace_id);
  w.u64(frame.header.span_id);
  w.bytes(frame.head);
  w.u32(static_cast<std::uint32_t>(frame.entries.size()));
  for (const BatchFrameEntry& e : frame.entries) {
    w.bytes(e.payload);
    w.u32(e.leaf_index);
    w.u32(e.leaf_count);
    w.u8(static_cast<std::uint8_t>(e.path.size()));
    for (const Digest32& d : e.path) w.raw(d);
  }
  return w.take();
}

TLC_HOT BatchFrame decode_batch_frame(std::span<const std::uint8_t> data) {
  Reader r{data};
  if (r.u32() != kBatchFrameMagic) {
    // tlc-lint: allow(hot-path-alloc): reject path for tampered frames
    throw DecodeError{"batch-frame: bad magic"};
  }
  if (r.u8() != kBatchFrameVersion) {
    // tlc-lint: allow(hot-path-alloc): reject path for tampered frames
    throw DecodeError{"batch-frame: unknown version"};
  }
  BatchFrame f;
  f.header.attempt = r.u8();
  f.header.trace_id = r.u64();
  f.header.span_id = r.u64();
  f.head = r.bytes();
  const std::uint32_t count = r.u32();
  // The count comes off the wire: bound it by what the rest of the frame
  // can hold before reserving for it.
  if (count > r.remaining() / kMinEntryBytes) {
    // tlc-lint: allow(hot-path-alloc): reject path for tampered frames
    throw DecodeError{"batch-frame: entry count exceeds the frame"};
  }
  f.entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    BatchFrameEntry& e = f.entries.emplace_back();
    e.payload = r.bytes();
    e.leaf_index = r.u32();
    e.leaf_count = r.u32();
    const std::uint8_t path_len = r.u8();
    if (path_len > kMaxProofPath) {
      // tlc-lint: allow(hot-path-alloc): reject path for tampered frames
      throw DecodeError{"batch-frame: oversized proof path"};
    }
    e.path.reserve(path_len);
    for (std::uint8_t j = 0; j < path_len; ++j) {
      r.raw_into(e.path.emplace_back());
    }
  }
  r.expect_end();
  return f;
}

}  // namespace tlc::wire
