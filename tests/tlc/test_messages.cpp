#include "tlc/messages.hpp"

#include <gtest/gtest.h>

#include "common/hex.hpp"
#include "crypto/sha256.hpp"
#include "tlc/protocol_fixture.hpp"
#include "wire/codec.hpp"

namespace tlc::core {
namespace {

class MessagesTest : public testing::ProtocolFixture {
 protected:
  CdrMsg sample_cdr() {
    CdrMsg m;
    m.plan = PlanEcho::from(plan(), cycle());
    m.sender = PartyRole::kCellularOperator;
    m.direction = charging::Direction::kUplink;
    m.seq = 1;
    m.round = 1;
    Rng rng{42};
    m.nonce = make_nonce(rng);
    m.claim = Bytes{778'500'000};
    m.sign(operator_keys());
    return m;
  }

  CdaMsg sample_cda() {
    CdaMsg m;
    m.plan = PlanEcho::from(plan(), cycle());
    m.sender = PartyRole::kEdgeVendor;
    m.direction = charging::Direction::kUplink;
    m.seq = 1;
    m.round = 1;
    Rng rng{43};
    m.nonce = make_nonce(rng);
    m.claim = Bytes{720'000'000};
    m.peer_cdr = sample_cdr().encode();
    m.sign(edge_keys());
    return m;
  }

  PocMsg sample_poc() {
    const CdaMsg cda = sample_cda();
    PocMsg m;
    m.plan = PlanEcho::from(plan(), cycle());
    m.sender = PartyRole::kCellularOperator;
    m.seq = 2;
    m.round = 1;
    m.charged = Bytes{749'250'000};
    m.peer_cda = cda.encode();
    m.nonce_edge = cda.nonce;
    m.nonce_operator = CdrMsg::decode(cda.peer_cdr).nonce;
    m.sign(operator_keys());
    return m;
  }
};

TEST_F(MessagesTest, NonceIsRandomPerDraw) {
  Rng rng{1};
  EXPECT_NE(make_nonce(rng), make_nonce(rng));
}

TEST_F(MessagesTest, PlanEchoFromPlanAndCycle) {
  const PlanEcho echo = PlanEcho::from(plan(), cycle(5));
  EXPECT_EQ(echo.cycle_index, 5u);
  EXPECT_DOUBLE_EQ(echo.loss_weight, 0.5);
  EXPECT_EQ(echo.cycle_length_ns,
            static_cast<std::uint64_t>(plan().cycle_length.count()));
}

TEST_F(MessagesTest, CdrRoundTrip) {
  const CdrMsg m = sample_cdr();
  const CdrMsg decoded = CdrMsg::decode(m.encode());
  EXPECT_EQ(decoded.plan, m.plan);
  EXPECT_EQ(decoded.sender, m.sender);
  EXPECT_EQ(decoded.seq, m.seq);
  EXPECT_EQ(decoded.round, m.round);
  EXPECT_EQ(decoded.nonce, m.nonce);
  EXPECT_EQ(decoded.claim, m.claim);
  EXPECT_EQ(decoded.signature, m.signature);
}

TEST_F(MessagesTest, CdrSignatureVerifies) {
  const CdrMsg m = sample_cdr();
  EXPECT_TRUE(m.verify(operator_keys().public_key()));
  EXPECT_FALSE(m.verify(edge_keys().public_key()));
}

TEST_F(MessagesTest, CdrTamperedClaimFailsVerification) {
  CdrMsg m = sample_cdr();
  m.claim = Bytes{1};  // rewrite the claim after signing
  EXPECT_FALSE(m.verify(operator_keys().public_key()));
}

TEST_F(MessagesTest, CdrUnsignedFailsVerification) {
  CdrMsg m = sample_cdr();
  m.signature.clear();
  EXPECT_FALSE(m.verify(operator_keys().public_key()));
}

TEST_F(MessagesTest, CdaRoundTrip) {
  const CdaMsg m = sample_cda();
  const CdaMsg decoded = CdaMsg::decode(m.encode());
  EXPECT_EQ(decoded.claim, m.claim);
  EXPECT_EQ(decoded.peer_cdr, m.peer_cdr);
  EXPECT_TRUE(decoded.verify(edge_keys().public_key()));
}

TEST_F(MessagesTest, CdaEmbedsVerifiableCdr) {
  const CdaMsg m = sample_cda();
  const CdrMsg inner = CdrMsg::decode(m.peer_cdr);
  EXPECT_TRUE(inner.verify(operator_keys().public_key()));
}

TEST_F(MessagesTest, CdaTamperedEmbeddedCdrFailsOuterSignature) {
  CdaMsg m = sample_cda();
  m.peer_cdr[20] ^= 0x01;
  EXPECT_FALSE(m.verify(edge_keys().public_key()));
}

TEST_F(MessagesTest, PocRoundTrip) {
  const PocMsg m = sample_poc();
  const PocMsg decoded = PocMsg::decode(m.encode());
  EXPECT_EQ(decoded.charged, m.charged);
  EXPECT_EQ(decoded.nonce_edge, m.nonce_edge);
  EXPECT_EQ(decoded.nonce_operator, m.nonce_operator);
  EXPECT_TRUE(decoded.verify(operator_keys().public_key()));
}

TEST_F(MessagesTest, PocTamperedChargeFailsVerification) {
  PocMsg m = sample_poc();
  m.charged = Bytes{1};
  EXPECT_FALSE(m.verify(operator_keys().public_key()));
}

TEST_F(MessagesTest, DecodeRejectsWrongType) {
  const ByteVec cdr_bytes = sample_cdr().encode();
  EXPECT_THROW((void)CdaMsg::decode(cdr_bytes), wire::DecodeError);
  EXPECT_THROW((void)PocMsg::decode(cdr_bytes), wire::DecodeError);
}

TEST_F(MessagesTest, DecodeRejectsTruncation) {
  ByteVec bytes = sample_cdr().encode();
  bytes.resize(bytes.size() - 10);
  EXPECT_THROW((void)CdrMsg::decode(bytes), wire::DecodeError);
}

TEST_F(MessagesTest, DecodeRejectsTrailingBytes) {
  ByteVec bytes = sample_cdr().encode();
  bytes.push_back(0);
  EXPECT_THROW((void)CdrMsg::decode(bytes), wire::DecodeError);
}

TEST_F(MessagesTest, DecodeRejectsBadMagic) {
  ByteVec bytes = sample_cdr().encode();
  bytes[0] = 0xff;
  EXPECT_THROW((void)CdrMsg::decode(bytes), wire::DecodeError);
}

TEST_F(MessagesTest, GenericDecodeDispatchesOnType) {
  const Message m1 = decode_message(sample_cdr().encode());
  EXPECT_EQ(message_type(m1), MessageType::kCdr);
  const Message m2 = decode_message(sample_cda().encode());
  EXPECT_EQ(message_type(m2), MessageType::kCda);
  const Message m3 = decode_message(sample_poc().encode());
  EXPECT_EQ(message_type(m3), MessageType::kPoc);
}

TEST_F(MessagesTest, EncodeMessageMatchesDirectEncode) {
  const CdrMsg m = sample_cdr();
  EXPECT_EQ(encode_message(Message{m}), m.encode());
}

// Pins each message's wire bytes across versions: the round-trip and
// signature tests above would still pass if encode and the signed image
// changed the same way on both sides. RSA keys are generated per run, so
// a fixed 128-byte stand-in takes the signature's place.
TEST_F(MessagesTest, EncodingsMatchGolden) {
  ByteVec signature(128);
  for (std::size_t i = 0; i < signature.size(); ++i) {
    signature[i] = static_cast<std::uint8_t>(0xA5 ^ i);
  }
  Nonce nonce_edge{};
  Nonce nonce_operator{};
  for (std::size_t i = 0; i < nonce_edge.size(); ++i) {
    nonce_edge[i] = static_cast<std::uint8_t>(i);
    nonce_operator[i] = static_cast<std::uint8_t>(0xF0 + i);
  }

  CdrMsg cdr;
  cdr.plan = PlanEcho::from(plan(), cycle());
  cdr.sender = PartyRole::kCellularOperator;
  cdr.direction = charging::Direction::kDownlink;
  cdr.seq = 3;
  cdr.round = 2;
  cdr.nonce = nonce_operator;
  cdr.claim = Bytes{778'500'000};
  cdr.signature = signature;

  CdaMsg cda;
  cda.plan = cdr.plan;
  cda.sender = PartyRole::kEdgeVendor;
  cda.direction = charging::Direction::kDownlink;
  cda.seq = 2;
  cda.round = 2;
  cda.nonce = nonce_edge;
  cda.claim = Bytes{720'000'000};
  cda.peer_cdr = cdr.encode();
  cda.signature = signature;

  PocMsg poc;
  poc.plan = cdr.plan;
  poc.sender = PartyRole::kCellularOperator;
  poc.seq = 4;
  poc.round = 2;
  poc.charged = Bytes{749'250'000};
  poc.peer_cda = cda.encode();
  poc.signature = signature;
  poc.nonce_edge = nonce_edge;
  poc.nonce_operator = nonce_operator;

  const auto digest = [](const ByteVec& bytes) {
    return to_hex(crypto::sha256(bytes));
  };
  const ByteVec cdr_bytes = cdr.encode();
  const ByteVec cda_bytes = cda.encode();
  const ByteVec poc_bytes = poc.encode();
  EXPECT_EQ(cdr_bytes.size(), 202u);
  EXPECT_EQ(cda_bytes.size(), 408u);
  EXPECT_EQ(poc_bytes.size(), 629u);
  EXPECT_EQ(digest(cdr_bytes),
            "4c472c2e584c5c76a8265f39fd4e0d968e07e1f5e4fac6227d27ce06fe9603c9");
  EXPECT_EQ(digest(cda_bytes),
            "a7b4c6acfbf573e96fcf2e8a71543661239b12c4518eaa9be6e82609c3cc2bf3");
  EXPECT_EQ(digest(poc_bytes),
            "618e896aa3598516f711524db8d047ccda48d081fae71e7757eb18e4c9306d0b");
}

TEST_F(MessagesTest, WireSizesComparableToPaper) {
  // Paper Fig. 17: TLC CDR 199 B, CDA 398 B, PoC 796 B (RSA-1024).
  const std::size_t cdr_size = sample_cdr().encode().size();
  const std::size_t cda_size = sample_cda().encode().size();
  const std::size_t poc_size = sample_poc().encode().size();
  EXPECT_GE(cdr_size, 150u);
  EXPECT_LE(cdr_size, 260u);
  EXPECT_GE(cda_size, 300u);
  EXPECT_LE(cda_size, 500u);
  EXPECT_GE(poc_size, 500u);
  EXPECT_LE(poc_size, 900u);
  // Structural relations hold regardless of exact sizes:
  EXPECT_GT(cda_size, cdr_size);
  EXPECT_GT(poc_size, cda_size);
}

}  // namespace
}  // namespace tlc::core
