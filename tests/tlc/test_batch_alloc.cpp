// Proves the batch-verify hot loop is allocation-free in steady state, and
// pins how often the batch-audit decoders allocate.
//
// A global operator-new hook counts heap allocations while armed (the
// idiom of sim/test_scheduler_alloc.cpp). After one warm-up pass that
// populates the thread-local signer context cache and the head-signable
// scratch writer, BatchedVerifier::check_integrity — one cached-context
// RSA check plus per-entry Merkle inclusion walks — must perform exactly
// zero C++ heap allocations, and so must crypto::verify_digest on its
// own and MerkleTree::matches, the in-place proof check. The receipt and
// batch-frame decoders allocate once per variable-length field and never
// for a fixed-width one (nonce, digest). OpenSSL's internal CRYPTO_malloc
// traffic is invisible to the hook by design; the property under test is
// that OUR layer stays off the heap per verified batch.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include "crypto/merkle.hpp"
#include "crypto/signer.hpp"
#include "tlc/batch.hpp"
#include "tlc/protocol_fixture.hpp"
#include "tlc/verifier.hpp"
#include "wire/batch_frame.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tlc::core {
namespace {

class BatchAllocTest : public testing::ProtocolFixture {
 protected:
  static constexpr LocalView kView{Bytes{1'000'000}, Bytes{920'000}};

  static ReceiptBatch make_batch(int n, std::uint64_t seed0) {
    BatchBuilder builder{operator_keys(), PartyRole::kCellularOperator,
                        FlushPolicy{static_cast<std::size_t>(n), false}};
    std::optional<ReceiptBatch> batch;
    for (int i = 0; i < n; ++i) {
      auto closed = builder.append(
          make_valid_poc(kView, kView, seed0 + 2 * i),
          /*cycle=*/3);
      if (closed) batch = std::move(closed);
    }
    EXPECT_TRUE(batch.has_value());
    return *batch;
  }

  class AllocationWindow {
   public:
    AllocationWindow() {
      g_allocations.store(0, std::memory_order_relaxed);
      g_counting.store(true, std::memory_order_relaxed);
    }
    ~AllocationWindow() { g_counting.store(false, std::memory_order_relaxed); }
    AllocationWindow(const AllocationWindow&) = delete;
    AllocationWindow& operator=(const AllocationWindow&) = delete;

    [[nodiscard]] std::uint64_t count() const {
      return g_allocations.load(std::memory_order_relaxed);
    }
  };
};

constexpr int kRounds = 50;

TEST_F(BatchAllocTest, CheckIntegrityIsAllocationFreeInSteadyState) {
  const ReceiptBatch batch = make_batch(8, 600);
  BatchedVerifier verifier{edge_keys().public_key(),
                           operator_keys().public_key(), plan()};
  // Warm-up: populate the thread-local verify-context cache and grow the
  // head-signable scratch writer to its working size.
  ASSERT_EQ(verifier.check_integrity(batch), BatchVerifyResult::kOk);

  std::uint64_t observed = 0;
  int ok = 0;
  {
    AllocationWindow window;
    for (int round = 0; round < kRounds; ++round) {
      if (verifier.check_integrity(batch) == BatchVerifyResult::kOk) ++ok;
    }
    observed = window.count();
  }
  EXPECT_EQ(observed, 0u) << "check_integrity allocated on the hot loop";
  EXPECT_EQ(ok, kRounds);
}

TEST_F(BatchAllocTest, VerifyDigestIsAllocationFreeOncePerKeyCached) {
  const ByteVec msg{1, 2, 3, 4, 5, 6, 7, 8};
  const ByteVec sig = crypto::sign(operator_keys(), msg);
  const crypto::Digest digest = crypto::sha256(msg);
  const crypto::PublicKey& key = operator_keys().public_key();
  // Warm-up caches the per-(thread, key) EVP context.
  ASSERT_TRUE(crypto::verify_digest(key, digest, sig));

  std::uint64_t observed = 0;
  int ok = 0;
  {
    AllocationWindow window;
    for (int round = 0; round < kRounds; ++round) {
      if (crypto::verify_digest(key, digest, sig)) ++ok;
    }
    observed = window.count();
  }
  EXPECT_EQ(observed, 0u) << "verify_digest allocated with a cached context";
  EXPECT_EQ(ok, kRounds);
}

TEST_F(BatchAllocTest, InPlaceProofCheckIsAllocationFree) {
  std::vector<crypto::Digest> leaves(64);
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    leaves[i].fill(static_cast<std::uint8_t>(i));
  }
  const crypto::MerkleTree tree = crypto::MerkleTree::build(leaves);
  std::vector<crypto::InclusionProof> proofs;
  for (std::uint32_t i = 0; i < tree.leaf_count(); ++i) {
    proofs.push_back(tree.prove(i));
  }

  std::uint64_t observed = 0;
  std::size_t matched = 0;
  {
    AllocationWindow window;
    for (int round = 0; round < kRounds; ++round) {
      for (const crypto::InclusionProof& proof : proofs) {
        if (tree.matches(proof)) ++matched;
      }
    }
    observed = window.count();
  }
  EXPECT_EQ(observed, 0u) << "MerkleTree::matches allocated";
  EXPECT_EQ(matched, static_cast<std::size_t>(kRounds) * proofs.size());
}

TEST_F(BatchAllocTest, ReceiptDecodeAllocatesOncePerVariableLengthField) {
  const ByteVec poc_bytes = make_valid_poc(kView, kView, 900).encode();
  const PocMsg poc = PocMsg::decode(poc_bytes);
  const CdaMsg cda = CdaMsg::decode(poc.peer_cda);

  const auto allocations = [](auto decode) {
    AllocationWindow window;
    const auto decoded = decode();
    return window.count();
  };
  // PoC: peer CDA and signature. CDA: peer CDR and signature. CDR: the
  // signature. Nonces decode in place.
  EXPECT_EQ(allocations([&] { return PocMsg::decode(poc_bytes); }), 2u);
  EXPECT_EQ(allocations([&] { return CdaMsg::decode(poc.peer_cda); }), 2u);
  EXPECT_EQ(allocations([&] { return CdrMsg::decode(cda.peer_cdr); }), 1u);
}

TEST_F(BatchAllocTest, BatchFrameDecodeAllocatesPerEntryNotPerDigest) {
  const auto allocations = [](const ByteVec& bytes) {
    AllocationWindow window;
    const wire::BatchFrame frame = wire::decode_batch_frame(bytes);
    return window.count();
  };
  const auto frame_bytes = [](const ReceiptBatch& batch) {
    return wire::encode_batch_frame(to_batch_frame(batch, {}));
  };
  // Per frame: the head bytes and the entry vector. Per entry: the payload
  // and the proof path, however many digests the path holds (1 at two
  // leaves, 6 at 64).
  constexpr std::uint64_t kPerFrame = 2;
  constexpr std::uint64_t kPerEntry = 2;
  EXPECT_EQ(allocations(frame_bytes(make_batch(2, 700))),
            kPerFrame + 2 * kPerEntry);
  EXPECT_EQ(allocations(frame_bytes(make_batch(64, 800))),
            kPerFrame + 64 * kPerEntry);
}

TEST_F(BatchAllocTest, HookCountsWhenArmed) {
  // Sanity-check the hook itself: a deliberate allocation inside the
  // window must be observed, or the assertions above are vacuous.
  AllocationWindow window;
  auto* p = new int{1};
  const std::uint64_t seen = window.count();
  delete p;
  EXPECT_GE(seen, 1u);
}

}  // namespace
}  // namespace tlc::core
