// Robustness fuzzing: malformed and mutated inputs must be rejected
// cleanly (DecodeError or a verification failure), never crash, and —
// most importantly — a mutated Proof-of-Charging must NEVER verify, and a
// mutated batch frame must never get a foreign receipt or extra volume
// accepted.
#include <gtest/gtest.h>

#include <array>
#include <optional>

#include "common/rng.hpp"
#include "tlc/batch.hpp"
#include "tlc/protocol_fixture.hpp"
#include "wire/batch_frame.hpp"
#include "wire/codec.hpp"
#include "wire/legacy_cdr.hpp"

namespace tlc::core {
namespace {

class FuzzTest : public testing::ProtocolFixture {
 protected:
  static constexpr LocalView kView{Bytes{1'000'000}, Bytes{920'000}};
};

TEST_F(FuzzTest, RandomBytesNeverDecodeAsMessages) {
  Rng rng{2026};
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t len = rng.uniform_int(0, 600);
    ByteVec junk(len);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    // Must throw DecodeError (or, astronomically unlikely, decode); must
    // never crash or accept a verifiable message.
    try {
      const Message msg = decode_message(junk);
      // If it decoded, its signature cannot possibly verify.
      std::visit(
          [this](const auto& m) {
            EXPECT_FALSE(m.verify(edge_keys().public_key()));
            EXPECT_FALSE(m.verify(operator_keys().public_key()));
          },
          msg);
    } catch (const wire::DecodeError&) {
      // expected path
    }
  }
}

TEST_F(FuzzTest, SingleByteMutationsNeverVerify) {
  const PocMsg poc = make_valid_poc(kView, kView, 50);
  const ByteVec original = poc.encode();
  PublicVerifier verifier{edge_keys().public_key(),
                          operator_keys().public_key(), plan()};
  ASSERT_EQ(verifier.verify(original), VerifyResult::kOk);

  Rng rng{7};
  int mutated_accepted = 0;
  for (int trial = 0; trial < 300; ++trial) {
    ByteVec mutated = original;
    const std::size_t pos = rng.uniform_int(0, mutated.size() - 1);
    const auto flip =
        static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
    mutated[pos] ^= flip;
    PublicVerifier fresh{edge_keys().public_key(),
                         operator_keys().public_key(), plan()};
    try {
      if (fresh.verify(mutated) == VerifyResult::kOk) ++mutated_accepted;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "verify threw on mutated input: " << e.what();
    }
  }
  EXPECT_EQ(mutated_accepted, 0);
}

TEST_F(FuzzTest, TruncationsNeverVerify) {
  const ByteVec original = make_valid_poc(kView, kView, 51).encode();
  for (std::size_t keep = 0; keep < original.size();
       keep += std::max<std::size_t>(1, original.size() / 64)) {
    ByteVec truncated(original.begin(),
                      original.begin() + static_cast<std::ptrdiff_t>(keep));
    PublicVerifier verifier{edge_keys().public_key(),
                            operator_keys().public_key(), plan()};
    EXPECT_EQ(verifier.verify(truncated), VerifyResult::kMalformed);
  }
}

TEST_F(FuzzTest, BatchFrameMutationsNeverInflateTheAudit) {
  // Golden: an 8-receipt batch frame with a non-zero per-hop header.
  BatchBuilder builder{operator_keys(), PartyRole::kCellularOperator,
                       FlushPolicy{8, false}};
  std::optional<ReceiptBatch> batch;
  for (int i = 0; i < 8; ++i) {
    auto closed = builder.append(make_valid_poc(kView, kView, 60 + 2 * i),
                                 /*cycle=*/3);
    if (closed) batch = std::move(closed);
  }
  ASSERT_TRUE(batch.has_value());
  wire::FrameHeader header;
  header.trace_id = 0x0123456789ABCDEFULL;
  header.span_id = 0xFEDCBA9876543210ULL;
  header.attempt = 1;
  const ByteVec original =
      wire::encode_batch_frame(to_batch_frame(*batch, header));

  struct Outcome {
    bool decoded = false;
    ReceiptBatch batch;
    BatchAudit audit;
  };
  // decode → from_batch_frame → verify_batch on a fresh verifier. Only
  // DecodeError may end the run early; any other exception is a failure.
  const auto run = [](std::span<const std::uint8_t> bytes,
                      std::size_t mutant) {
    Outcome out;
    try {
      out.batch = from_batch_frame(wire::decode_batch_frame(bytes));
      out.decoded = true;
      BatchedVerifier verifier{edge_keys().public_key(),
                               operator_keys().public_key(), plan()};
      out.audit = verifier.verify_batch(out.batch);
    } catch (const wire::DecodeError&) {
      out.decoded = false;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << mutant << " threw " << e.what();
      out.decoded = false;
    }
    return out;
  };
  const Outcome golden = run(original, 0);
  ASSERT_TRUE(golden.decoded);
  ASSERT_EQ(golden.audit.head, BatchVerifyResult::kOk);
  ASSERT_EQ(golden.audit.accepted, 8u);

  // Every accepted receipt carries the original's payload at its position,
  // and the accepted volume never grows.
  const auto expect_no_inflation = [&](const Outcome& got,
                                       std::size_t mutant) {
    if (!got.decoded) return;
    EXPECT_LE(got.audit.total_verified_volume.count(),
              golden.audit.total_verified_volume.count())
        << "mutant " << mutant;
    for (std::size_t i = 0; i < got.audit.receipts.size(); ++i) {
      if (got.audit.receipts[i] != VerifyResult::kOk) continue;
      EXPECT_TRUE(i < golden.batch.entries.size() &&
                  got.batch.entries[i].poc == golden.batch.entries[i].poc)
          << "mutant " << mutant << " accepted a foreign receipt " << i;
    }
  };

  // One bit flip at every byte offset. Offsets 5..21 are the unsigned
  // per-hop header (attempt, trace id, span id): those mutants must audit
  // exactly like the original.
  constexpr std::size_t kHeaderBegin = 5;
  constexpr std::size_t kHeaderEnd = 22;
  Rng rng{2027};
  for (std::size_t offset = 0; offset < original.size(); ++offset) {
    ByteVec mutant = original;
    mutant[offset] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
    const Outcome got = run(mutant, offset);
    expect_no_inflation(got, offset);
    if (offset >= kHeaderBegin && offset < kHeaderEnd) {
      ASSERT_TRUE(got.decoded) << "header mutant " << offset;
      EXPECT_EQ(got.audit.head, golden.audit.head) << offset;
      EXPECT_EQ(got.audit.receipts, golden.audit.receipts) << offset;
      EXPECT_EQ(got.audit.accepted, golden.audit.accepted) << offset;
      EXPECT_EQ(got.audit.rejected, golden.audit.rejected) << offset;
      EXPECT_EQ(got.audit.total_verified_volume,
                golden.audit.total_verified_volume)
          << offset;
    }
  }

  // Truncations at the steps TruncationsNeverVerify uses.
  for (std::size_t keep = 0; keep < original.size();
       keep += std::max<std::size_t>(1, original.size() / 64)) {
    const std::span<const std::uint8_t> prefix{original.data(), keep};
    const Outcome got = run(prefix, keep);
    EXPECT_FALSE(got.decoded) << "truncation to " << keep << " decoded";
    expect_no_inflation(got, keep);
  }
}

TEST_F(FuzzTest, RandomBytesNeverDecodeAsLegacyCdr) {
  Rng rng{99};
  for (int trial = 0; trial < 200; ++trial) {
    // Wrong sizes always throw.
    const std::size_t len = rng.uniform_int(0, 80);
    if (len == wire::kLegacyCdrSize) continue;
    ByteVec junk(len);
    EXPECT_THROW((void)wire::decode_legacy_cdr(junk), wire::DecodeError);
  }
  // Right-sized random bytes decode (fixed layout) and re-encode stably.
  for (int trial = 0; trial < 100; ++trial) {
    ByteVec junk(wire::kLegacyCdrSize);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const wire::LegacyCdr cdr = wire::decode_legacy_cdr(junk);
    const wire::LegacyCdr again =
        wire::decode_legacy_cdr(wire::encode_legacy_cdr(cdr));
    EXPECT_EQ(cdr, again);  // decode∘encode is a fixed point
  }
}

TEST_F(FuzzTest, ReaderNeverReadsOutOfBounds) {
  Rng rng{123};
  for (int trial = 0; trial < 500; ++trial) {
    ByteVec data(rng.uniform_int(0, 64));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    wire::Reader r{data};
    try {
      // A random sequence of reads either succeeds within bounds or
      // throws DecodeError; UB would be caught by sanitizers/asserts.
      std::array<std::uint8_t, 16> fixed{};
      while (!r.at_end()) {
        switch (rng.uniform_int(0, 5)) {
          case 0: (void)r.u8(); break;
          case 1: (void)r.u16(); break;
          case 2: (void)r.u32(); break;
          case 3: (void)r.u64(); break;
          case 4: (void)r.bytes(); break;
          case 5: r.raw_into(fixed); break;
        }
      }
    } catch (const wire::DecodeError&) {
    }
  }
}

TEST_F(FuzzTest, NegotiationFuzzAlwaysTerminatesWithinBounds) {
  // Random views, random c, random strategy pairs: the engine must always
  // terminate, and whenever it converges with a rational-or-honest party
  // on each side, the Theorem 2 bound (± tolerance) must hold.
  Rng rng{555};
  for (int trial = 0; trial < 400; ++trial) {
    const std::uint64_t sent = rng.uniform_int(1'000, 10'000'000'000);
    const double loss = rng.uniform(0.0, 0.5);
    const std::uint64_t received =
        static_cast<std::uint64_t>(static_cast<double>(sent) * (1.0 - loss));
    const LocalView view{Bytes{sent}, Bytes{received}};
    const double c = rng.uniform(0.0, 1.0);

    StrategyPtr edge;
    switch (rng.uniform_int(0, 2)) {
      case 0: edge = make_honest_edge(); break;
      case 1: edge = make_optimal_edge(); break;
      default: edge = make_random_edge(rng.uniform(0.1, 0.9)); break;
    }
    StrategyPtr op;
    switch (rng.uniform_int(0, 2)) {
      case 0: op = make_honest_operator(); break;
      case 1: op = make_optimal_operator(); break;
      default: op = make_random_operator(rng.uniform(0.1, 0.9)); break;
    }

    Rng nrng = rng.fork();
    const auto out =
        negotiate(*edge, view, *op, view, NegotiationConfig{c, 64}, nrng);
    ASSERT_TRUE(out.converged) << "trial " << trial;
    const double slack = static_cast<double>(sent) * 0.035 + 5'000;
    EXPECT_GE(out.charged.as_double(), static_cast<double>(received) - slack)
        << "trial " << trial;
    EXPECT_LE(out.charged.as_double(), static_cast<double>(sent) + slack)
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace tlc::core
