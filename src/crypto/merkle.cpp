#include "crypto/merkle.hpp"

#include <stdexcept>

#include "common/hot.hpp"

namespace tlc::crypto {
namespace {

/// Thread-local incremental hasher: tree construction and the verify hot
/// loop hash two or three short spans per node, and the Sha256 wrapper
/// fetches SHA-256 once and reuses its EVP context across finish() calls.
Sha256& hasher() {
  thread_local Sha256 h;
  return h;
}

/// Calls `visit(sibling)` for every level at which leaf `index` has a
/// sibling, leaf level upward, stopping early when `visit` returns false;
/// returns whether the walk ran to the root. The one sibling walk that
/// prove() records and matches() compares.
template <typename Visit>
bool walk_siblings(const std::vector<std::vector<Digest>>& levels,
                   std::size_t index, Visit&& visit) {
  for (std::size_t level = 0; level + 1 < levels.size(); ++level) {
    const std::vector<Digest>& nodes = levels[level];
    const std::size_t sibling = index ^ 1;
    if (sibling < nodes.size() && !visit(nodes[sibling])) return false;
    index /= 2;
  }
  return true;
}

constexpr std::uint8_t kLeafTag = 0x00;
constexpr std::uint8_t kNodeTag = 0x01;
constexpr std::uint8_t kChainTag = 0x02;

}  // namespace

TLC_HOT Digest leaf_digest(std::span<const std::uint8_t> data) {
  Sha256& h = hasher();
  h.update(std::span{&kLeafTag, 1});
  h.update(data);
  return h.finish();
}

TLC_HOT Digest node_digest(const Digest& left, const Digest& right) {
  Sha256& h = hasher();
  h.update(std::span{&kNodeTag, 1});
  h.update(left);
  h.update(right);
  return h.finish();
}

TLC_HOT Digest chain_link(const Digest& prev_link, const Digest& root,
                          std::uint64_t batch_index) {
  std::uint8_t index_be[8];
  for (int i = 0; i < 8; ++i) {
    index_be[i] = static_cast<std::uint8_t>(batch_index >> (56 - 8 * i));
  }
  Sha256& h = hasher();
  h.update(std::span{&kChainTag, 1});
  h.update(prev_link);
  h.update(root);
  h.update(std::span<const std::uint8_t>{index_be, 8});
  return h.finish();
}

MerkleTree MerkleTree::build(std::span<const Digest> leaves) {
  if (leaves.empty()) {
    throw std::invalid_argument{"MerkleTree::build: no leaves"};
  }
  MerkleTree tree;
  tree.levels_.emplace_back(leaves.begin(), leaves.end());
  while (tree.levels_.back().size() > 1) {
    const std::vector<Digest>& below = tree.levels_.back();
    std::vector<Digest> above;
    above.reserve((below.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < below.size(); i += 2) {
      above.push_back(node_digest(below[i], below[i + 1]));
    }
    if (below.size() % 2 == 1) above.push_back(below.back());  // promote
    tree.levels_.push_back(std::move(above));
  }
  return tree;
}

InclusionProof MerkleTree::prove(std::uint32_t index) const {
  if (index >= leaf_count()) {
    throw std::out_of_range{"MerkleTree::prove: leaf index out of range"};
  }
  InclusionProof proof;
  proof.leaf_index = index;
  proof.leaf_count = leaf_count();
  walk_siblings(levels_, index, [&proof](const Digest& sibling) {
    proof.path.push_back(sibling);
    return true;
  });
  return proof;
}

TLC_HOT bool MerkleTree::matches(const InclusionProof& proof) const {
  if (proof.leaf_count != leaf_count() || proof.leaf_index >= leaf_count()) {
    return false;
  }
  std::size_t consumed = 0;
  const bool all_equal =
      walk_siblings(levels_, proof.leaf_index, [&](const Digest& sibling) {
        return consumed < proof.path.size() &&
               proof.path[consumed++] == sibling;
      });
  return all_equal && consumed == proof.path.size();
}

bool verify_inclusion(const Digest& root, const Digest& leaf,
                      const InclusionProof& proof) {
  if (proof.leaf_count == 0 || proof.leaf_index >= proof.leaf_count) {
    return false;
  }
  Digest acc = leaf;
  std::size_t consumed = 0;
  std::size_t index = proof.leaf_index;
  std::size_t width = proof.leaf_count;
  while (width > 1) {
    const std::size_t sibling = index ^ 1;
    if (sibling < width) {
      if (consumed >= proof.path.size()) return false;  // truncated path
      const Digest& sib = proof.path[consumed++];
      acc = index % 2 == 0 ? node_digest(acc, sib) : node_digest(sib, acc);
    }
    index /= 2;
    width = (width + 1) / 2;
  }
  if (consumed != proof.path.size()) return false;  // padded path
  return acc == root;
}

}  // namespace tlc::crypto
