// Transport frame for a hash-chained receipt batch.
//
// A batch frame carries one signed batch head plus the committed receipts,
// each with its Merkle inclusion proof, so a verifier can check the whole
// batch against ONE head signature (or any single receipt in O(log n)).
// Like wire::Frame, the per-hop header (trace/span/attempt) stays outside
// every signature: the head bytes and receipt payloads round-trip
// bit-exactly — at batch size 1 the embedded payload IS the per-message
// PoC wire image.
//
//   magic u32 | version u8 | attempt u8 | trace u64 | span u64 |
//   head bytes | u32 count | count × entry
//   entry: payload bytes | leaf_index u32 | leaf_count u32 |
//          path_len u8 | path_len × digest32
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/hex.hpp"
#include "wire/frame.hpp"

namespace tlc::wire {

inline constexpr std::uint32_t kBatchFrameMagic = 0x544C4342;  // "TLCB"
inline constexpr std::uint8_t kBatchFrameVersion = 1;
/// Inclusion paths are ≤ ceil(log2(2^32)) digests; the u8 length leaves
/// headroom while bounding a malicious frame's decode cost.
inline constexpr std::size_t kMaxProofPath = 64;

/// 32-byte digest as raw wire bytes (the crypto layer's Digest; wire/ does
/// not depend on crypto/).
using Digest32 = std::array<std::uint8_t, 32>;

struct BatchFrameEntry {
  ByteVec payload;  // exact per-message receipt wire bytes
  std::uint32_t leaf_index = 0;
  std::uint32_t leaf_count = 0;
  std::vector<Digest32> path;
};

struct BatchFrame {
  FrameHeader header;  // per-hop metadata, never signed
  ByteVec head;        // encoded (signed) batch head, untouched
  std::vector<BatchFrameEntry> entries;
};

[[nodiscard]] ByteVec encode_batch_frame(const BatchFrame& frame);

/// Throws DecodeError on bad magic, unknown version, truncation, an entry
/// count the frame cannot hold, or an oversized proof path.
[[nodiscard]] BatchFrame decode_batch_frame(std::span<const std::uint8_t> data);

}  // namespace tlc::wire
