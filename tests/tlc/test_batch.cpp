// Hash-chained receipt batches (tlc/batch.hpp, tlc/verifier.hpp,
// tlc/receipt_store.hpp): builder flush policy, head chain integrity,
// batch-size-1 equivalence with the per-message wire path, the partial
// final batch, the batched verifier's accept/reject matrix, spot audits,
// and the durable batched store.
#include "tlc/batch.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "tlc/protocol_fixture.hpp"
#include "tlc/receipt_store.hpp"
#include "tlc/verifier.hpp"
#include "wire/batch_frame.hpp"

namespace tlc::core {
namespace {

class BatchTest : public testing::ProtocolFixture {
 protected:
  static constexpr LocalView kView{Bytes{1'000'000}, Bytes{920'000}};

  static BatchedVerifier make_batched_verifier() {
    return BatchedVerifier{edge_keys().public_key(),
                           operator_keys().public_key(), plan()};
  }

  /// `n` distinct valid PoCs (distinct nonces via the seed).
  static std::vector<PocMsg> make_pocs(int n, std::uint64_t seed0 = 100) {
    std::vector<PocMsg> pocs;
    for (int i = 0; i < n; ++i) {
      pocs.push_back(make_valid_poc(kView, kView, seed0 + 2 * i));
    }
    return pocs;
  }

  /// Builds one closed batch of `pocs` under the operator key.
  static ReceiptBatch make_batch(const std::vector<PocMsg>& pocs,
                                 BatchBuilder& builder) {
    std::optional<ReceiptBatch> batch;
    for (const PocMsg& poc : pocs) {
      auto closed = builder.append(poc, poc.plan.cycle_index);
      if (closed) batch = std::move(closed);
    }
    if (!batch) batch = builder.flush();
    EXPECT_TRUE(batch.has_value());
    return *batch;
  }
};

TEST_F(BatchTest, HeadEncodeDecodeSignVerify) {
  BatchBuilder builder{operator_keys(), PartyRole::kCellularOperator,
                       FlushPolicy{4, false}};
  const ReceiptBatch batch = make_batch(make_pocs(3), builder);
  const BatchHead& head = batch.head;
  EXPECT_TRUE(head.verify(operator_keys().public_key()));

  const BatchHead back = BatchHead::decode(head.encode());
  EXPECT_EQ(back.batch_index, head.batch_index);
  EXPECT_EQ(back.first_cycle, head.first_cycle);
  EXPECT_EQ(back.count, head.count);
  EXPECT_EQ(back.sender, head.sender);
  EXPECT_EQ(back.root, head.root);
  EXPECT_EQ(back.prev_link, head.prev_link);
  EXPECT_EQ(back.link, head.link);
  EXPECT_EQ(back.signature, head.signature);
  EXPECT_TRUE(back.verify(operator_keys().public_key()));

  // The signature covers every field including the chain link.
  BatchHead tampered = head;
  tampered.link[0] ^= 0x01;
  EXPECT_FALSE(tampered.verify(operator_keys().public_key()));
  tampered = head;
  tampered.count += 1;
  EXPECT_FALSE(tampered.verify(operator_keys().public_key()));
  EXPECT_FALSE(head.verify(edge_keys().public_key()));
}

TEST_F(BatchTest, BuilderClosesAtMaxBatchAndChainsHeads) {
  BatchBuilder builder{operator_keys(), PartyRole::kCellularOperator,
                       FlushPolicy{2, false}};
  const std::vector<PocMsg> pocs = make_pocs(5);
  std::vector<ReceiptBatch> batches;
  for (const PocMsg& poc : pocs) {
    auto closed = builder.append(poc, poc.plan.cycle_index);
    if (closed) batches.push_back(std::move(*closed));
  }
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(builder.pending(), 1u);  // the partial final batch
  auto final_batch = builder.flush();
  ASSERT_TRUE(final_batch.has_value());
  batches.push_back(std::move(*final_batch));
  EXPECT_EQ(builder.pending(), 0u);
  EXPECT_FALSE(builder.flush().has_value());  // nothing left

  // Chain: index 0,1,2; genesis → link_0 → link_1 → link_2.
  crypto::Digest prev = crypto::kChainGenesis;
  for (std::size_t i = 0; i < batches.size(); ++i) {
    const BatchHead& head = batches[i].head;
    EXPECT_EQ(head.batch_index, i);
    EXPECT_EQ(head.prev_link, prev);
    EXPECT_EQ(head.link, crypto::chain_link(prev, head.root,
                                            head.batch_index));
    prev = head.link;
  }
  EXPECT_EQ(batches[2].head.count, 1u);
  EXPECT_EQ(builder.next_batch_index(), 3u);
  EXPECT_EQ(builder.last_link(), prev);
}

TEST_F(BatchTest, EndCycleFlushesOnlyWhenPolicySaysSo) {
  BatchBuilder straddle_ok{operator_keys(), PartyRole::kCellularOperator,
                           FlushPolicy{64, false}};
  EXPECT_FALSE(straddle_ok.append(make_valid_poc(kView, kView, 400), 3)
                   .has_value());
  EXPECT_FALSE(straddle_ok.end_cycle().has_value());
  EXPECT_EQ(straddle_ok.pending(), 1u);

  BatchBuilder bounded{operator_keys(), PartyRole::kCellularOperator,
                       FlushPolicy{64, true}};
  EXPECT_FALSE(
      bounded.append(make_valid_poc(kView, kView, 402), 3).has_value());
  auto flushed = bounded.end_cycle();
  ASSERT_TRUE(flushed.has_value());
  EXPECT_EQ(flushed->head.count, 1u);
  EXPECT_EQ(bounded.pending(), 0u);
  EXPECT_FALSE(bounded.end_cycle().has_value());  // nothing pending
}

TEST_F(BatchTest, BatchSizeOneReproducesPerMessageWireBehaviour) {
  // At batch size 1 the embedded payload IS the per-message PoC wire
  // image: bit-identical bytes, accepted by the per-message verifier
  // after a wire round-trip, and the head root is the payload's leaf.
  const PocMsg poc = make_valid_poc(kView, kView, 500);
  BatchBuilder builder{operator_keys(), PartyRole::kCellularOperator,
                       FlushPolicy{1, false}};
  auto closed = builder.append(poc, poc.plan.cycle_index);
  ASSERT_TRUE(closed.has_value());
  ASSERT_EQ(closed->entries.size(), 1u);
  EXPECT_EQ(closed->entries[0].poc, poc.encode());
  EXPECT_TRUE(closed->entries[0].proof.path.empty());
  EXPECT_EQ(closed->head.root, crypto::leaf_digest(closed->entries[0].poc));

  wire::FrameHeader header;
  header.trace_id = 0xABCD;
  const ReceiptBatch back = from_batch_frame(wire::decode_batch_frame(
      wire::encode_batch_frame(to_batch_frame(*closed, header))));
  ASSERT_EQ(back.entries.size(), 1u);
  EXPECT_EQ(back.entries[0].poc, poc.encode());

  PublicVerifier per_message{edge_keys().public_key(),
                             operator_keys().public_key(), plan()};
  EXPECT_EQ(per_message.verify(back.entries[0].poc), VerifyResult::kOk);

  BatchedVerifier batched = make_batched_verifier();
  const BatchAudit audit = batched.verify_batch(back);
  EXPECT_EQ(audit.head, BatchVerifyResult::kOk);
  ASSERT_EQ(audit.receipts.size(), 1u);
  EXPECT_EQ(audit.receipts[0], VerifyResult::kOk);
}

TEST_F(BatchTest, VerifierAcceptsChainedBatchesAndSumsVolume) {
  BatchBuilder builder{operator_keys(), PartyRole::kCellularOperator,
                       FlushPolicy{3, false}};
  const std::vector<PocMsg> pocs = make_pocs(7, 200);
  std::vector<ReceiptBatch> batches;
  for (const PocMsg& poc : pocs) {
    auto closed = builder.append(poc, poc.plan.cycle_index);
    if (closed) batches.push_back(std::move(*closed));
  }
  auto tail = builder.flush();  // partial final batch (1 receipt)
  ASSERT_TRUE(tail.has_value());
  batches.push_back(std::move(*tail));
  ASSERT_EQ(batches.size(), 3u);

  BatchedVerifier verifier = make_batched_verifier();
  std::vector<VerifiedCharge> charges;
  Bytes volume{0};
  for (const ReceiptBatch& batch : batches) {
    const BatchAudit audit = verifier.verify_batch(batch, &charges);
    EXPECT_EQ(audit.head, BatchVerifyResult::kOk);
    EXPECT_EQ(audit.rejected, 0u);
    EXPECT_EQ(audit.accepted, batch.entries.size());
    volume += audit.total_verified_volume;
  }
  EXPECT_EQ(charges.size(), 7u);
  EXPECT_EQ(volume, Bytes{7 * 960'000});  // x̂ at c = 0.5, per receipt
  EXPECT_EQ(verifier.heads_accepted(), 3u);
  EXPECT_EQ(verifier.heads_rejected(), 0u);
  EXPECT_EQ(verifier.next_batch_index(), 3u);
}

TEST_F(BatchTest, VerifierNamesTamperedEntryViaFallbackPath) {
  // A tampered payload breaks the rebuilt root, so the verifier falls
  // back to per-entry proofs and names exactly the bad entry.
  BatchBuilder builder{operator_keys(), PartyRole::kCellularOperator,
                       FlushPolicy{4, false}};
  ReceiptBatch batch = make_batch(make_pocs(4, 300), builder);
  batch.entries[2].poc.back() ^= 0x01;

  BatchedVerifier verifier = make_batched_verifier();
  const BatchAudit audit = verifier.verify_batch(batch);
  EXPECT_EQ(audit.head, BatchVerifyResult::kOk);
  ASSERT_EQ(audit.receipts.size(), 4u);
  EXPECT_EQ(audit.receipts[2], VerifyResult::kBadInclusionProof);
  EXPECT_EQ(audit.rejected, 1u);
  EXPECT_EQ(audit.accepted, 3u);
  for (std::size_t i : {0u, 1u, 3u}) {
    EXPECT_EQ(audit.receipts[i], VerifyResult::kOk) << "entry " << i;
  }
}

TEST_F(BatchTest, VerifierRejectsChainViolations) {
  BatchBuilder builder{operator_keys(), PartyRole::kCellularOperator,
                       FlushPolicy{2, false}};
  const std::vector<PocMsg> pocs = make_pocs(4, 320);
  std::vector<ReceiptBatch> batches;
  for (const PocMsg& poc : pocs) {
    auto closed = builder.append(poc, poc.plan.cycle_index);
    if (closed) batches.push_back(std::move(*closed));
  }
  ASSERT_EQ(batches.size(), 2u);

  {  // Out-of-order: batch 1 before batch 0 is a splice (index ahead).
    BatchedVerifier v = make_batched_verifier();
    EXPECT_EQ(v.verify_batch(batches[1]).head,
              BatchVerifyResult::kChainSplice);
    EXPECT_EQ(v.heads_rejected(), 1u);
  }
  {  // Replay: batch 0 twice — the second is stale, genuine signature
     // notwithstanding.
    BatchedVerifier v = make_batched_verifier();
    EXPECT_EQ(v.verify_batch(batches[0]).head, BatchVerifyResult::kOk);
    EXPECT_EQ(v.verify_batch(batches[0]).head,
              BatchVerifyResult::kStaleHead);
  }
  {  // Count lies about the entries carried.
    ReceiptBatch lying = batches[0];
    lying.entries.pop_back();
    BatchedVerifier v = make_batched_verifier();
    EXPECT_EQ(v.verify_batch(lying).head, BatchVerifyResult::kCountMismatch);
  }
  {  // Damaged signature on an otherwise chain-consistent head.
    ReceiptBatch forged = batches[0];
    forged.head.signature[5] ^= 0x01;
    BatchedVerifier v = make_batched_verifier();
    EXPECT_EQ(v.verify_batch(forged).head,
              BatchVerifyResult::kBadHeadSignature);
  }
  {  // Empty head.
    ReceiptBatch empty;
    BatchedVerifier v = make_batched_verifier();
    EXPECT_EQ(v.verify_batch(empty).head, BatchVerifyResult::kMalformedHead);
  }
  {  // A rejected head leaves the chain where it was: after a forged copy
     // of batch 1, the genuine batch 1 still verifies.
    ReceiptBatch forged = batches[1];
    forged.head.count += 1;
    BatchedVerifier v = make_batched_verifier();
    EXPECT_EQ(v.verify_batch(batches[0]).head, BatchVerifyResult::kOk);
    const BatchAudit rejected = v.verify_batch(forged);
    EXPECT_NE(rejected.head, BatchVerifyResult::kOk);
    EXPECT_EQ(rejected.accepted, 0u);
    const BatchAudit genuine = v.verify_batch(batches[1]);
    EXPECT_EQ(genuine.head, BatchVerifyResult::kOk);
    EXPECT_EQ(genuine.accepted, 2u);
    EXPECT_EQ(v.heads_accepted(), 2u);
    EXPECT_EQ(v.heads_rejected(), 1u);
  }
}

TEST_F(BatchTest, CheckIntegrityValidatesProofsWithoutCharging) {
  BatchBuilder builder{operator_keys(), PartyRole::kCellularOperator,
                       FlushPolicy{4, false}};
  const ReceiptBatch batch = make_batch(make_pocs(4, 340), builder);
  BatchedVerifier verifier = make_batched_verifier();
  EXPECT_EQ(verifier.check_integrity(batch), BatchVerifyResult::kOk);

  ReceiptBatch tampered = batch;
  tampered.entries[1].proof.path.clear();
  EXPECT_EQ(verifier.check_integrity(tampered),
            BatchVerifyResult::kCountMismatch);
  // check_integrity is a pure read: the chain cursor did not advance.
  EXPECT_EQ(verifier.next_batch_index(), 0u);
}

TEST_F(BatchTest, AuditEntrySpotChecksOneReceipt) {
  BatchBuilder builder{operator_keys(), PartyRole::kCellularOperator,
                       FlushPolicy{4, false}};
  const ReceiptBatch batch = make_batch(make_pocs(4, 360), builder);
  const BatchedVerifier verifier = make_batched_verifier();

  VerifiedCharge out;
  EXPECT_EQ(verifier.audit_entry(batch, 2, &out), VerifyResult::kOk);
  EXPECT_EQ(out.charged, Bytes{960'000});
  EXPECT_EQ(verifier.audit_entry(batch, 99), VerifyResult::kMalformed);

  ReceiptBatch tampered = batch;
  tampered.entries[1].proof.leaf_index = 0;
  EXPECT_EQ(verifier.audit_entry(tampered, 1),
            VerifyResult::kBadInclusionProof);
}

class BatchStoreTest : public BatchTest {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("tlc_batched_receipts_" +
             std::to_string(
                 ::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::filesystem::path path_;
};

TEST_F(BatchStoreTest, AppendFlushLoadAudit) {
  BatchedReceiptStore store{path_, operator_keys(),
                            PartyRole::kCellularOperator,
                            FlushPolicy{2, false}};
  const std::vector<PocMsg> pocs = make_pocs(5, 380);
  for (const PocMsg& poc : pocs) store.append(poc, poc.plan.cycle_index);
  store.flush();  // partial final batch
  EXPECT_EQ(store.count(), 5u);

  const std::vector<ReceiptBatch> batches = store.load_all();
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[2].head.count, 1u);
  EXPECT_EQ(batches[0].entries[0].poc, pocs[0].encode());

  BatchedVerifier verifier = make_batched_verifier();
  const auto report = store.audit(verifier);
  EXPECT_EQ(report.batches, 3u);
  EXPECT_EQ(report.heads_accepted, 3u);
  EXPECT_EQ(report.heads_rejected, 0u);
  EXPECT_EQ(report.receipts.total, 5u);
  EXPECT_EQ(report.receipts.accepted, 5u);
  EXPECT_EQ(report.receipts.rejected, 0u);
  EXPECT_EQ(report.receipts.total_verified_volume, Bytes{5 * 960'000});
}

TEST_F(BatchStoreTest, PersistsChainAcrossInstances) {
  {
    BatchedReceiptStore store{path_, operator_keys(),
                              PartyRole::kCellularOperator,
                              FlushPolicy{1, false}};
    store.append(make_valid_poc(kView, kView, 420), 3);
  }
  {
    BatchedReceiptStore reopened{path_, operator_keys(),
                                 PartyRole::kCellularOperator,
                                 FlushPolicy{1, false}};
    EXPECT_EQ(reopened.count(), 1u);
    reopened.append(make_valid_poc(kView, kView, 422), 3);
    EXPECT_EQ(reopened.count(), 2u);
  }
  BatchedReceiptStore store{path_, operator_keys(),
                            PartyRole::kCellularOperator};
  const std::vector<ReceiptBatch> batches = store.load_all();
  ASSERT_EQ(batches.size(), 2u);
  // The reopened builder resumed the chain where the first left off.
  EXPECT_EQ(batches[1].head.batch_index, 1u);
  EXPECT_EQ(batches[1].head.prev_link, batches[0].head.link);

  BatchedVerifier verifier = make_batched_verifier();
  const auto report = store.audit(verifier);
  EXPECT_EQ(report.heads_accepted, 2u);
  EXPECT_EQ(report.receipts.accepted, 2u);
}

TEST_F(BatchStoreTest, RejectsForeignFile) {
  {
    std::ofstream os{path_, std::ios::binary};
    os << "not a batched receipt archive";
  }
  // The constructor scans the archive to resume the chain, so a foreign
  // file is rejected before any append can extend it.
  EXPECT_THROW((BatchedReceiptStore{path_, operator_keys(),
                                    PartyRole::kCellularOperator}),
               std::runtime_error);
}

TEST_F(BatchStoreTest, DetectsTruncation) {
  {
    BatchedReceiptStore store{path_, operator_keys(),
                              PartyRole::kCellularOperator,
                              FlushPolicy{1, false}};
    store.append(make_valid_poc(kView, kView, 440), 3);
  }
  // Chop the tail off the file.
  std::filesystem::resize_file(path_, std::filesystem::file_size(path_) - 10);
  EXPECT_THROW((BatchedReceiptStore{path_, operator_keys(),
                                    PartyRole::kCellularOperator}),
               std::runtime_error);
}

}  // namespace
}  // namespace tlc::core
