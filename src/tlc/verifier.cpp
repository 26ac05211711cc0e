#include "tlc/verifier.hpp"

#include "charging/usage.hpp"
#include "common/hot.hpp"
#include "wire/codec.hpp"

namespace tlc::core {

const char* to_string(VerifyResult r) {
  switch (r) {
    case VerifyResult::kOk:
      return "ok";
    case VerifyResult::kMalformed:
      return "malformed";
    case VerifyResult::kBadPocSignature:
      return "bad-poc-signature";
    case VerifyResult::kBadCdaSignature:
      return "bad-cda-signature";
    case VerifyResult::kBadCdrSignature:
      return "bad-cdr-signature";
    case VerifyResult::kRoleConfusion:
      return "role-confusion";
    case VerifyResult::kPlanMismatch:
      return "plan-mismatch";
    case VerifyResult::kRoundMismatch:
      return "round-mismatch";
    case VerifyResult::kNonceMismatch:
      return "nonce-mismatch";
    case VerifyResult::kReplayed:
      return "replayed";
    case VerifyResult::kChargeMismatch:
      return "charge-mismatch";
    case VerifyResult::kBadInclusionProof:
      return "bad-inclusion-proof";
  }
  return "?";
}

const char* to_string(BatchVerifyResult r) {
  switch (r) {
    case BatchVerifyResult::kOk:
      return "ok";
    case BatchVerifyResult::kMalformedHead:
      return "malformed-head";
    case BatchVerifyResult::kBadHeadSignature:
      return "bad-head-signature";
    case BatchVerifyResult::kCountMismatch:
      return "count-mismatch";
    case BatchVerifyResult::kChainSplice:
      return "chain-splice";
    case BatchVerifyResult::kStaleHead:
      return "stale-head";
  }
  return "?";
}

PublicVerifier::PublicVerifier(crypto::PublicKey edge_key,
                               crypto::PublicKey operator_key,
                               charging::DataPlan plan)
    : edge_key_(std::move(edge_key)),
      operator_key_(std::move(operator_key)),
      plan_(plan) {
  plan_.validate();
}

VerifyResult PublicVerifier::verify(std::span<const std::uint8_t> poc_bytes,
                                    VerifiedCharge* out) {
  return verify_impl(poc_bytes, out, /*check_signatures=*/true);
}

VerifyResult PublicVerifier::verify_committed(
    std::span<const std::uint8_t> poc_bytes, VerifiedCharge* out) {
  return verify_impl(poc_bytes, out, /*check_signatures=*/false);
}

VerifyResult PublicVerifier::verify_impl(
    std::span<const std::uint8_t> poc_bytes, VerifiedCharge* out,
    bool check_signatures) {
  const auto reject = [this](VerifyResult r) {
    ++rejected_;
    return r;
  };

  PocMsg poc;
  CdaMsg cda;
  CdrMsg cdr;
  try {
    poc = PocMsg::decode(poc_bytes);
    cda = CdaMsg::decode(poc.peer_cda);
    cdr = CdrMsg::decode(cda.peer_cdr);
  } catch (const wire::DecodeError&) {
    return reject(VerifyResult::kMalformed);
  }

  // Roles must alternate: PoC signer ↔ CDA signer ↔ CDR signer.
  if (cda.sender != peer_of(poc.sender) || cdr.sender != poc.sender) {
    return reject(VerifyResult::kRoleConfusion);
  }

  // The batched path (verify_committed) skips the three RSA operations:
  // a verified batch-head signature plus the receipt's inclusion proof
  // already pin these exact bytes to the signer.
  if (check_signatures) {
    const auto key_for = [this](PartyRole role) -> const crypto::PublicKey& {
      return role == PartyRole::kEdgeVendor ? edge_key_ : operator_key_;
    };
    if (!poc.verify(key_for(poc.sender))) {
      return reject(VerifyResult::kBadPocSignature);
    }
    if (!cda.verify(key_for(cda.sender))) {
      return reject(VerifyResult::kBadCdaSignature);
    }
    if (!cdr.verify(key_for(cdr.sender))) {
      return reject(VerifyResult::kBadCdrSignature);
    }
  }

  // Algorithm 2, line 2: consistent data plan everywhere.
  if (!(poc.plan == cda.plan) || !(poc.plan == cdr.plan)) {
    return reject(VerifyResult::kPlanMismatch);
  }
  if (poc.plan.loss_weight != plan_.loss_weight ||
      poc.plan.cycle_length_ns !=
          static_cast<std::uint64_t>(plan_.cycle_length.count())) {
    return reject(VerifyResult::kPlanMismatch);
  }

  // Same negotiation round in all layers.
  if (poc.round != cda.round || poc.round != cdr.round) {
    return reject(VerifyResult::kRoundMismatch);
  }

  // Algorithm 2, line 5: the trailing nonces must match the embedded
  // messages, keyed by role.
  const Nonce& edge_nonce =
      cdr.sender == PartyRole::kEdgeVendor ? cdr.nonce : cda.nonce;
  const Nonce& operator_nonce =
      cdr.sender == PartyRole::kCellularOperator ? cdr.nonce : cda.nonce;
  if (poc.nonce_edge != edge_nonce || poc.nonce_operator != operator_nonce) {
    return reject(VerifyResult::kNonceMismatch);
  }

  // Replay defence across verification requests.
  const auto key = std::make_tuple(poc.plan.cycle_index, poc.nonce_edge,
                                   poc.nonce_operator);
  if (seen_.contains(key)) {
    return reject(VerifyResult::kReplayed);
  }

  // Algorithm 2, line 8: recompute the charge from the two claims.
  const Bytes expected =
      charging::charged_volume(cdr.claim, cda.claim, poc.plan.loss_weight);
  if (expected != poc.charged) {
    return reject(VerifyResult::kChargeMismatch);
  }

  seen_.insert(key);
  ++accepted_;
  if (out != nullptr) {
    out->charged = poc.charged;
    out->edge_claim =
        cdr.sender == PartyRole::kEdgeVendor ? cdr.claim : cda.claim;
    out->operator_claim =
        cdr.sender == PartyRole::kCellularOperator ? cdr.claim : cda.claim;
    out->cycle_index = poc.plan.cycle_index;
    out->loss_weight = poc.plan.loss_weight;
    out->round = static_cast<int>(poc.round);
  }
  return VerifyResult::kOk;
}

// --------------------------------------------------------- BatchedVerifier

BatchedVerifier::BatchedVerifier(crypto::PublicKey edge_key,
                                 crypto::PublicKey operator_key,
                                 charging::DataPlan plan)
    : edge_key_(edge_key),
      operator_key_(operator_key),
      plan_(plan),
      core_(std::move(edge_key), std::move(operator_key), plan) {}

TLC_HOT BatchVerifyResult BatchedVerifier::check_head(
    const ReceiptBatch& batch) const {
  const BatchHead& head = batch.head;
  if (head.count == 0) return BatchVerifyResult::kMalformedHead;
  if (head.count != batch.entries.size()) {
    return BatchVerifyResult::kCountMismatch;
  }
  // Chain order first: a stale or spliced head must be called out as such
  // even when its signature is genuine (it IS genuine in a replay).
  if (head.batch_index < next_index_) return BatchVerifyResult::kStaleHead;
  if (head.batch_index > next_index_) return BatchVerifyResult::kChainSplice;
  if (head.prev_link != expected_link_) {
    return BatchVerifyResult::kChainSplice;
  }
  if (head.link !=
      crypto::chain_link(head.prev_link, head.root, head.batch_index)) {
    return BatchVerifyResult::kChainSplice;
  }
  if (!head.verify(key_for(head.sender))) {
    return BatchVerifyResult::kBadHeadSignature;
  }
  return BatchVerifyResult::kOk;
}

TLC_HOT BatchVerifyResult BatchedVerifier::check_integrity(
    const ReceiptBatch& batch) const {
  const BatchVerifyResult head = check_head(batch);
  if (head != BatchVerifyResult::kOk) return head;
  for (const BatchEntry& e : batch.entries) {
    if (e.proof.leaf_count != batch.head.count ||
        !crypto::verify_inclusion(batch.head.root,
                                  crypto::leaf_digest(e.poc), e.proof)) {
      return BatchVerifyResult::kCountMismatch;
    }
  }
  return BatchVerifyResult::kOk;
}

BatchAudit BatchedVerifier::verify_batch(const ReceiptBatch& batch,
                                         std::vector<VerifiedCharge>* out) {
  BatchAudit audit;
  audit.head = check_head(batch);
  if (audit.head != BatchVerifyResult::kOk) {
    ++heads_rejected_;
    return audit;
  }
  ++heads_accepted_;
  expected_link_ = batch.head.link;
  next_index_ = batch.head.batch_index + 1;

  // Fast path for a complete in-order batch: rebuild the tree once (n−1
  // node hashes instead of n·log n across per-entry proofs) and check each
  // carried proof in place against the rebuilt levels — equivalent to
  // verify_inclusion barring a SHA-256 collision. Falls back to per-entry
  // proof verification when the root disagrees (a tampered payload) so the
  // audit still names the exact bad entries; the fallback reuses the leaf
  // digests the rebuild already hashed.
  bool canonical = batch.entries.size() == batch.head.count;
  for (std::size_t i = 0; canonical && i < batch.entries.size(); ++i) {
    canonical = batch.entries[i].proof.leaf_index == i &&
                batch.entries[i].proof.leaf_count == batch.head.count;
  }
  std::vector<crypto::Digest> leaves;
  std::optional<crypto::MerkleTree> tree;
  if (canonical) {
    leaves.reserve(batch.entries.size());
    for (const BatchEntry& e : batch.entries) {
      leaves.push_back(crypto::leaf_digest(e.poc));
    }
    crypto::MerkleTree rebuilt = crypto::MerkleTree::build(leaves);
    if (rebuilt.root() == batch.head.root) tree = std::move(rebuilt);
  }

  audit.receipts.reserve(batch.entries.size());
  for (std::size_t i = 0; i < batch.entries.size(); ++i) {
    const BatchEntry& e = batch.entries[i];
    // The inclusion proof pins the payload bytes to the signed root; only
    // then do the structural Algorithm 2 checks (sans RSA) run.
    const bool included =
        tree.has_value()
            ? tree->matches(e.proof)
            : (e.proof.leaf_count == batch.head.count &&
               crypto::verify_inclusion(
                   batch.head.root,
                   canonical ? leaves[i] : crypto::leaf_digest(e.poc),
                   e.proof));
    if (!included) {
      audit.receipts.push_back(VerifyResult::kBadInclusionProof);
      ++audit.rejected;
      continue;
    }
    VerifiedCharge charge;
    const VerifyResult r = core_.verify_committed(e.poc, &charge);
    audit.receipts.push_back(r);
    if (r == VerifyResult::kOk) {
      ++audit.accepted;
      audit.total_verified_volume += charge.charged;
      if (out != nullptr) out->push_back(charge);
    } else {
      ++audit.rejected;
    }
  }
  return audit;
}

VerifyResult BatchedVerifier::audit_entry(const ReceiptBatch& batch,
                                          std::size_t index,
                                          VerifiedCharge* out) const {
  if (index >= batch.entries.size()) return VerifyResult::kMalformed;
  const BatchEntry& e = batch.entries[index];
  if (!batch.head.verify(key_for(batch.head.sender))) {
    return VerifyResult::kBadPocSignature;
  }
  if (e.proof.leaf_count != batch.head.count ||
      !crypto::verify_inclusion(batch.head.root, crypto::leaf_digest(e.poc),
                                e.proof)) {
    return VerifyResult::kBadInclusionProof;
  }
  // Full Algorithm 2 on the contested receipt, replay cache excluded: a
  // spot audit answers "is this exact receipt committed and valid", not
  // "have I seen it before".
  PublicVerifier fresh{edge_key_, operator_key_, plan_};
  return fresh.verify(e.poc, out);
}

}  // namespace tlc::core
