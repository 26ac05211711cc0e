// Merkle tree + hash chain over receipt digests (batched Proof-of-Charging).
//
// Per-message RSA dominates PoC cost (Fig. 17); batching signs ONCE per
// batch instead of once per receipt. Receipt digests become the leaves of a
// Merkle tree whose root is committed in a signed batch head; a single
// receipt is then audited with an O(log n) inclusion proof instead of its
// own signature. Consecutive batch heads are linked into a hash chain so a
// verifier that has seen head k can detect a spliced, reordered, or stale
// head k+1 without re-examining earlier batches.
//
// Hashing is domain-separated (RFC 6962 style): leaf and interior-node
// images can never collide, so a proof for an interior node cannot be
// passed off as a proof for a leaf.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "crypto/sha256.hpp"

namespace tlc::crypto {

/// SHA-256(0x00 || data) — the leaf image of one receipt's wire bytes.
[[nodiscard]] Digest leaf_digest(std::span<const std::uint8_t> data);

/// SHA-256(0x01 || left || right) — one interior node.
[[nodiscard]] Digest node_digest(const Digest& left, const Digest& right);

/// SHA-256(0x02 || prev_link || root || batch_index) — the chain link a
/// batch head commits to. The first head links from kChainGenesis.
[[nodiscard]] Digest chain_link(const Digest& prev_link, const Digest& root,
                                std::uint64_t batch_index);

/// The all-zero link the chain starts from.
inline constexpr Digest kChainGenesis{};

/// Sibling path from one leaf to the root. `path` holds the sibling digest
/// at every level where the node has one (an unpaired node is promoted
/// unchanged, contributing nothing), ordered leaf level upward, so its
/// length is at most ceil(log2(leaf_count)).
struct InclusionProof {
  std::uint32_t leaf_index = 0;
  std::uint32_t leaf_count = 0;
  std::vector<Digest> path;

  friend bool operator==(const InclusionProof&,
                         const InclusionProof&) = default;
};

/// Binary tree over pre-hashed leaves. Odd nodes are promoted, not
/// duplicated: duplicating the last leaf lets two different leaf sets share
/// a root, which the chain-splice fault probe would exploit.
class MerkleTree {
 public:
  /// Builds the full tree; `leaves` must be non-empty.
  [[nodiscard]] static MerkleTree build(std::span<const Digest> leaves);

  [[nodiscard]] const Digest& root() const { return levels_.back().front(); }
  [[nodiscard]] std::uint32_t leaf_count() const {
    return static_cast<std::uint32_t>(levels_.front().size());
  }

  /// Audit path for leaf `index`; throws std::out_of_range past the end.
  [[nodiscard]] InclusionProof prove(std::uint32_t index) const;

  /// True iff `proof == prove(proof.leaf_index)`: same index, same count,
  /// every sibling equal and the path exactly as long. Walks the stored
  /// levels instead of building a proof, so it performs no allocation —
  /// the verifier checks every carried proof of a canonical batch this way.
  [[nodiscard]] bool matches(const InclusionProof& proof) const;

 private:
  MerkleTree() = default;
  std::vector<std::vector<Digest>> levels_;  // levels_[0] = leaves
};

/// Recomputes the root from one leaf digest and its audit path; true iff it
/// equals `root`. Rejects truncated and padded paths (every sibling must be
/// consumed, exactly). Performs no allocation — the batch-verify hot loop
/// runs this per receipt.
[[nodiscard]] bool verify_inclusion(const Digest& root, const Digest& leaf,
                                    const InclusionProof& proof);

}  // namespace tlc::crypto
