// LiveAuditor (serve/auditor.hpp): real hash-chained receipt batches flow
// through the bounded ring to the single audit thread, which preserves
// the BatchedVerifier's in-chain-order contract — accepted heads advance
// the chain, tampered or replayed heads are rejected without breaking it.
#include "serve/auditor.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <thread>
#include <vector>

#include "tlc/batch.hpp"
#include "tlc/protocol_fixture.hpp"

namespace tlc::serve {
namespace {

using core::BatchBuilder;
using core::FlushPolicy;
using core::PartyRole;
using core::PocMsg;
using core::ReceiptBatch;

class LiveAuditorTest : public core::testing::ProtocolFixture {
 protected:
  static constexpr core::LocalView kView{Bytes{1'000'000}, Bytes{920'000}};

  /// `count` receipts closed into chained batches of ≤ 2.
  static std::vector<ReceiptBatch> make_chain(int count,
                                              std::uint64_t seed0 = 500) {
    BatchBuilder builder{operator_keys(), PartyRole::kCellularOperator,
                         FlushPolicy{2, false}};
    std::vector<ReceiptBatch> batches;
    for (int i = 0; i < count; ++i) {
      const PocMsg poc = make_valid_poc(kView, kView, seed0 + 2 * i);
      auto closed = builder.append(poc, poc.plan.cycle_index);
      if (closed) batches.push_back(std::move(*closed));
    }
    auto last = builder.flush();
    if (last) batches.push_back(std::move(*last));
    return batches;
  }

  static LiveAuditor make_auditor() {
    return LiveAuditor{edge_keys().public_key(),
                       operator_keys().public_key(), plan(), 8};
  }
};

TEST_F(LiveAuditorTest, VerifiesChainedBatchesInOrder) {
  const std::vector<ReceiptBatch> batches = make_chain(5);
  ASSERT_EQ(batches.size(), 3u);  // 2 + 2 + 1

  LiveAuditor auditor = make_auditor();
  for (const ReceiptBatch& b : batches) auditor.submit(&b);
  auditor.drain();

  EXPECT_EQ(auditor.batches_submitted(), 3u);
  EXPECT_EQ(auditor.batches_verified(), 3u);
  EXPECT_EQ(auditor.heads_accepted(), 3u);
  EXPECT_EQ(auditor.heads_rejected(), 0u);
  EXPECT_EQ(auditor.receipts_accepted(), 5u);
  EXPECT_EQ(auditor.receipts_rejected(), 0u);
  EXPECT_GT(auditor.verified_volume_bytes(), 0u);
}

TEST_F(LiveAuditorTest, TamperedHeadRejectedWithoutBreakingChain) {
  const std::vector<ReceiptBatch> batches = make_chain(5, 600);
  ASSERT_EQ(batches.size(), 3u);

  // A forged copy of batch 1: the count edit invalidates the head
  // signature, so the verifier rejects it WITHOUT advancing the chain —
  // the genuine batch 1 still verifies right after.
  ReceiptBatch forged = batches[1];
  forged.head.count += 1;

  LiveAuditor auditor = make_auditor();
  auditor.submit(&batches[0]);
  auditor.submit(&forged);
  auditor.submit(&batches[1]);
  auditor.submit(&batches[2]);
  auditor.drain();

  EXPECT_EQ(auditor.batches_verified(), 4u);
  EXPECT_EQ(auditor.heads_accepted(), 3u);
  EXPECT_EQ(auditor.heads_rejected(), 1u);
  // A rejected head contributes no trusted receipts.
  EXPECT_EQ(auditor.receipts_accepted(), 5u);
  EXPECT_EQ(auditor.receipts_rejected(), 0u);
}

TEST_F(LiveAuditorTest, ReplayedBatchIsStale) {
  const std::vector<ReceiptBatch> batches = make_chain(3, 700);
  ASSERT_EQ(batches.size(), 2u);

  LiveAuditor auditor = make_auditor();
  auditor.submit(&batches[0]);
  auditor.submit(&batches[0]);  // replay: at/behind the accepted chain
  auditor.submit(&batches[1]);
  auditor.drain();

  EXPECT_EQ(auditor.heads_accepted(), 2u);
  EXPECT_EQ(auditor.heads_rejected(), 1u);
  EXPECT_EQ(auditor.receipts_accepted(), 3u);
}

TEST_F(LiveAuditorTest, DrainRightAfterProducerJoinVerifiesAll) {
  // The drain race: a batch published between the audit thread's failed
  // dequeue and its read of the stop flag must still be verified. Each
  // round joins its producer immediately before drain().
  const std::vector<ReceiptBatch> batches = make_chain(3, 800);
  ASSERT_EQ(batches.size(), 2u);
  for (int round = 0; round < 100; ++round) {
    LiveAuditor auditor = make_auditor();
    const std::size_t count = 1 + static_cast<std::size_t>(round % 2);
    std::thread producer{[&auditor, &batches, count] {
      for (std::size_t i = 0; i < count; ++i) auditor.submit(&batches[i]);
    }};
    producer.join();
    auditor.drain();
    ASSERT_EQ(auditor.batches_submitted(), count) << "round " << round;
    ASSERT_EQ(auditor.batches_verified(), auditor.batches_submitted())
        << "round " << round;
    ASSERT_EQ(auditor.heads_accepted(), count) << "round " << round;
  }
}

TEST_F(LiveAuditorTest, DrainIsIdempotent) {
  LiveAuditor auditor = make_auditor();
  auditor.drain();
  auditor.drain();
  EXPECT_EQ(auditor.batches_verified(), 0u);
}

}  // namespace
}  // namespace tlc::serve
