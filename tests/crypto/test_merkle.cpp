// Merkle tree + hash chain (crypto/merkle.hpp): domain-separated hashing,
// odd-leaf promotion, inclusion proofs that reject truncation and padding
// (both when recomputed from a leaf and when checked in place against the
// tree), and the batch-head chain link.
#include "crypto/merkle.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "crypto/sha256.hpp"

namespace tlc::crypto {
namespace {

Digest leaf_of(const std::string& s) {
  return leaf_digest(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

std::vector<Digest> make_leaves(std::size_t n) {
  std::vector<Digest> leaves;
  leaves.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    leaves.push_back(leaf_of("receipt-" + std::to_string(i)));
  }
  return leaves;
}

TEST(Merkle, LeafAndNodeDomainsAreSeparated) {
  // SHA-256(0x00 || x) vs SHA-256(0x01 || l || r): a leaf image can never
  // equal a node image for related inputs.
  const Digest a = leaf_of("a");
  const Digest b = leaf_of("b");
  EXPECT_NE(a, b);
  EXPECT_NE(node_digest(a, b), node_digest(b, a));
  EXPECT_NE(leaf_of("ab"), node_digest(leaf_of("a"), leaf_of("b")));
}

TEST(Merkle, SingleLeafRootIsTheLeaf) {
  const std::vector<Digest> leaves = make_leaves(1);
  const MerkleTree tree = MerkleTree::build(leaves);
  EXPECT_EQ(tree.root(), leaves[0]);
  EXPECT_EQ(tree.leaf_count(), 1u);
  const InclusionProof proof = tree.prove(0);
  EXPECT_TRUE(proof.path.empty());
  EXPECT_TRUE(verify_inclusion(tree.root(), leaves[0], proof));
}

TEST(Merkle, TwoLeafRootMatchesManualNode) {
  const std::vector<Digest> leaves = make_leaves(2);
  const MerkleTree tree = MerkleTree::build(leaves);
  EXPECT_EQ(tree.root(), node_digest(leaves[0], leaves[1]));
}

TEST(Merkle, EveryLeafProvesAtEveryCount) {
  // Exercise perfect, odd, and in-between shapes — the odd-node promotion
  // rule has to hold at every width.
  for (std::size_t n : {1u, 2u, 3u, 5u, 7u, 8u, 13u, 64u}) {
    const std::vector<Digest> leaves = make_leaves(n);
    const MerkleTree tree = MerkleTree::build(leaves);
    ASSERT_EQ(tree.leaf_count(), n);
    for (std::uint32_t i = 0; i < n; ++i) {
      const InclusionProof proof = tree.prove(i);
      EXPECT_EQ(proof.leaf_index, i);
      EXPECT_EQ(proof.leaf_count, n);
      EXPECT_TRUE(verify_inclusion(tree.root(), leaves[i], proof))
          << "n=" << n << " i=" << i;
      EXPECT_TRUE(tree.matches(proof)) << "n=" << n << " i=" << i;
      // The in-place check agrees with building the proof: leaf j's path
      // presented as leaf i's matches exactly when the two paths coincide.
      for (std::uint32_t j = 0; j < n; ++j) {
        InclusionProof carried = tree.prove(j);
        carried.leaf_index = i;
        EXPECT_EQ(tree.matches(carried), proof == carried)
            << "n=" << n << " i=" << i << " j=" << j;
      }
    }
  }
}

TEST(Merkle, OddPromotionDistinguishesDuplicatedLastLeaf) {
  // Promoting (not duplicating) the unpaired node means {a,b,c} and
  // {a,b,c,c} must NOT share a root — the collision the chain-splice
  // probe would otherwise exploit.
  std::vector<Digest> three = make_leaves(3);
  std::vector<Digest> four = three;
  four.push_back(three.back());
  EXPECT_NE(MerkleTree::build(three).root(), MerkleTree::build(four).root());
}

TEST(Merkle, RejectsWrongLeafAndWrongIndex) {
  const std::vector<Digest> leaves = make_leaves(8);
  const MerkleTree tree = MerkleTree::build(leaves);
  const InclusionProof proof = tree.prove(3);
  EXPECT_FALSE(verify_inclusion(tree.root(), leaves[4], proof));
  InclusionProof moved = proof;
  moved.leaf_index = 2;
  EXPECT_FALSE(verify_inclusion(tree.root(), leaves[3], moved));
  EXPECT_FALSE(tree.matches(moved));
  moved.leaf_index = 8;  // past the end: rejected, not thrown
  EXPECT_FALSE(tree.matches(moved));
  InclusionProof recounted = proof;
  recounted.leaf_count = 9;
  EXPECT_FALSE(tree.matches(recounted));
}

TEST(Merkle, RejectsTruncatedAndPaddedPaths) {
  const std::vector<Digest> leaves = make_leaves(8);
  const MerkleTree tree = MerkleTree::build(leaves);
  const InclusionProof proof = tree.prove(5);
  ASSERT_EQ(proof.path.size(), 3u);

  InclusionProof truncated = proof;
  truncated.path.pop_back();
  EXPECT_FALSE(verify_inclusion(tree.root(), leaves[5], truncated));
  EXPECT_FALSE(tree.matches(truncated));

  InclusionProof padded = proof;
  padded.path.push_back(Digest{});
  EXPECT_FALSE(verify_inclusion(tree.root(), leaves[5], padded));
  EXPECT_FALSE(tree.matches(padded));

  InclusionProof empty = proof;
  empty.path.clear();
  EXPECT_FALSE(verify_inclusion(tree.root(), leaves[5], empty));
  EXPECT_FALSE(tree.matches(empty));
}

TEST(Merkle, RejectsTamperedSibling) {
  const std::vector<Digest> leaves = make_leaves(6);
  const MerkleTree tree = MerkleTree::build(leaves);
  InclusionProof proof = tree.prove(2);
  ASSERT_FALSE(proof.path.empty());
  proof.path[0][7] ^= 0x01;
  EXPECT_FALSE(verify_inclusion(tree.root(), leaves[2], proof));
  EXPECT_FALSE(tree.matches(proof));
}

TEST(Merkle, ProveThrowsPastTheEnd) {
  const MerkleTree tree = MerkleTree::build(make_leaves(4));
  EXPECT_THROW((void)tree.prove(4), std::out_of_range);
}

TEST(Merkle, ChainLinkBindsEveryInput) {
  const Digest root_a = leaf_of("root-a");
  const Digest root_b = leaf_of("root-b");
  const Digest l0 = chain_link(kChainGenesis, root_a, 0);
  EXPECT_NE(l0, kChainGenesis);
  EXPECT_EQ(l0, chain_link(kChainGenesis, root_a, 0));  // deterministic
  EXPECT_NE(l0, chain_link(kChainGenesis, root_b, 0));  // binds root
  EXPECT_NE(l0, chain_link(kChainGenesis, root_a, 1));  // binds index
  EXPECT_NE(l0, chain_link(l0, root_a, 0));             // binds prev link
}

}  // namespace
}  // namespace tlc::crypto
