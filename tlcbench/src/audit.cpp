// audit_batched: batched Proof-of-Charging audit on one thread — crypto,
// Merkle trees, the wire batch-frame codec and the Algorithm 2 recompute,
// including the per-entry-proof fallback that names a tampered receipt.
//
// Set-up generates two RSA-1024 key pairs and negotiates a pool of 2048
// distinct PoCs. The timed loop runs "cell chains": a fresh BatchBuilder
// and a fresh BatchedVerifier covering 4 cycles × 200 receipts, with
// max_batch 64 and flush_on_cycle_end, so batches are 64/64/64/8. Each
// batch goes build → to_batch_frame → encode → decode → from_batch_frame
// → verify_batch. Every 29th batch has one payload byte flipped after
// decode; every 53rd is replayed after it was accepted (a stale head).
#include <cstdio>
#include <optional>

#include "tlc/batch.hpp"
#include "tlc/protocol.hpp"
#include "tlc/verifier.hpp"
#include "wire/batch_frame.hpp"
#include "workloads.hpp"

namespace tlcbench {

using namespace tlc;

namespace {

struct ChainShape {
  std::size_t pool = 2048;
  std::uint32_t cycles = 4;
  std::size_t receipts_per_cycle = 200;
  std::size_t max_batch = 64;
  std::uint64_t tamper_every = 29;
  std::uint64_t replay_every = 53;

  [[nodiscard]] std::size_t receipts_per_chain() const {
    return cycles * receipts_per_cycle;
  }
};

ChainShape chain_shape(const RunSpec& spec) {
  ChainShape c;
  if (spec.smoke) {
    c.pool = 128;
    c.cycles = 2;
    c.receipts_per_cycle = 50;
    c.tamper_every = 3;
    c.replay_every = 5;
  }
  return c;
}

struct AuditEnv {
  crypto::KeyPair edge_keys;
  crypto::KeyPair operator_keys;
  charging::DataPlan plan;
  std::vector<ByteVec> pocs;          // encoded, pairwise distinct
  std::vector<std::uint64_t> charged;  // each PoC's negotiated x
  double negotiate_s = 0;
  bool all_done = true;
};

AuditEnv make_env(const RunSpec& spec, const ChainShape& shape) {
  AuditEnv env;
  env.edge_keys = crypto::KeyPair::generate(crypto::KeyStrength::kRsa1024);
  env.operator_keys =
      crypto::KeyPair::generate(crypto::KeyStrength::kRsa1024);
  env.plan.loss_weight = 0.5;
  env.plan.cycle_length = std::chrono::hours{1};
  const core::StrategyPtr edge_strategy = core::make_optimal_edge();
  const core::StrategyPtr operator_strategy = core::make_optimal_operator();
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < shape.pool; ++i) {
    const std::uint64_t s = derive_seed(spec.seed, 0xa0d17 + i);
    // Distinct views per receipt: 500–800 MB sent, up to 1/8 of it lost.
    const std::uint64_t sent = 500'000'000 + s % 300'000'000;
    const std::uint64_t received = sent - (s >> 20) % (sent / 8);
    core::ProtocolParty::Config cfg;
    cfg.plan = env.plan;
    cfg.cycle = env.plan.cycle_at(kTimeZero);
    cfg.view = core::LocalView{Bytes{sent}, Bytes{received}};
    cfg.role = core::PartyRole::kEdgeVendor;
    core::ProtocolParty edge{cfg, *edge_strategy, env.edge_keys,
                             env.operator_keys.public_key(), Rng{s}};
    cfg.role = core::PartyRole::kCellularOperator;
    core::ProtocolParty op{cfg, *operator_strategy, env.operator_keys,
                           env.edge_keys.public_key(), Rng{s ^ 1}};
    (void)core::run_exchange(op, edge);
    if (op.state() != core::ProtocolState::kDone || !op.poc().has_value()) {
      env.all_done = false;
      continue;
    }
    env.pocs.push_back(op.poc()->encode());
    env.charged.push_back(op.poc()->charged.count());
  }
  env.negotiate_s = seconds_since(start);
  return env;
}

/// Running totals over every chain, checked against the tamper plan.
struct Tally {
  std::uint64_t batch_seq = 0;
  std::uint64_t receipts = 0;
  std::uint64_t frame_bytes = 0;
  std::uint64_t tampered = 0;
  std::uint64_t replays = 0;
  std::uint64_t rejected_receipts = 0;
  std::uint64_t stale_heads = 0;
  std::uint64_t bad_batches = 0;   // batches whose verdict was wrong
  std::uint64_t bad_receipts = 0;  // receipts in those batches
  std::uint64_t accepted_volume = 0;
  std::uint64_t expected_volume = 0;
  std::vector<double> latency_us;  // build start → verified, per batch
};

/// Verifies one closed batch the way a receiving auditor would.
void audit_batch(const AuditEnv& env, const ChainShape& shape,
                 core::BatchedVerifier& verifier, core::ReceiptBatch batch,
                 std::size_t first_pos, std::size_t base,
                 std::int64_t build_start, const RunSpec& spec, Tally& t) {
  const std::uint64_t seq = t.batch_seq++;
  const bool tamper = seq % shape.tamper_every == shape.tamper_every - 1;
  const bool replay = seq % shape.replay_every == shape.replay_every - 1;
  const std::size_t count = batch.entries.size();
  const std::size_t victim = seq % count;

  ByteVec bytes;
  {
    const Span span("wire.encode");
    wire::FrameHeader header;
    header.trace_id = spec.trace_id;
    header.span_id = seq;
    bytes = wire::encode_batch_frame(core::to_batch_frame(batch, header));
  }
  core::ReceiptBatch received;
  {
    const Span span("wire.decode");
    wire::BatchFrame frame = wire::decode_batch_frame(bytes);
    if (tamper) {
      ByteVec& payload = frame.entries[victim].payload;
      payload[payload.size() / 2] ^= 0x01;
    }
    received = core::from_batch_frame(frame);
  }
  core::BatchAudit audit;
  {
    const Span span(tamper ? "tlc.verify.tampered" : "tlc.verify.clean");
    audit = verifier.verify_batch(received);
  }
  t.latency_us.push_back(static_cast<double>(now_ns() - build_start) / 1e3);

  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (tamper && i == victim) continue;
    expected += env.charged[(base + first_pos + i) % env.charged.size()];
  }
  const std::uint64_t want_rejected = tamper ? 1 : 0;
  const bool ok = audit.head == core::BatchVerifyResult::kOk &&
                  audit.rejected == want_rejected &&
                  audit.accepted == count - want_rejected &&
                  (!tamper || audit.receipts[victim] ==
                                  core::VerifyResult::kBadInclusionProof);
  if (!ok) {
    ++t.bad_batches;
    t.bad_receipts += count;
  }
  t.tampered += tamper ? 1 : 0;
  t.rejected_receipts += audit.rejected;
  t.receipts += count;
  t.frame_bytes += bytes.size();
  t.accepted_volume += audit.total_verified_volume.count();
  t.expected_volume += expected;

  if (replay) {
    const Span span("tlc.verify.replay");
    ++t.replays;
    if (verifier.verify_batch(received).head ==
        core::BatchVerifyResult::kStaleHead) {
      ++t.stale_heads;
    }
  }
}

/// One cell chain: 4 cycles of receipts through a fresh BatchBuilder and
/// verifier. Receipt positions wrap around the pool from a per-chain base,
/// so a chain never repeats a PoC (its verifier would call it a replay).
void run_chain(const AuditEnv& env, const ChainShape& shape,
               std::uint64_t chain, const RunSpec& spec, Tally& t) {
  const Span loop("bench.audit_chain");
  std::optional<core::BatchBuilder> batcher;
  std::optional<core::BatchedVerifier> verifier;
  {
    const Span span("tlc.chain_init");
    batcher.emplace(env.operator_keys, core::PartyRole::kCellularOperator,
                    core::FlushPolicy{shape.max_batch, true});
    verifier.emplace(env.edge_keys.public_key(),
                     env.operator_keys.public_key(), env.plan);
  }
  const std::size_t base =
      (chain * shape.receipts_per_chain()) % env.pocs.size();
  std::size_t appended = 0;   // chain positions handed to the batcher
  std::size_t committed = 0;  // chain positions inside closed batches
  for (std::uint32_t cycle = 0; cycle < shape.cycles; ++cycle) {
    std::size_t in_cycle = 0;
    while (in_cycle < shape.receipts_per_cycle) {
      const std::int64_t build_start = now_ns();
      std::optional<core::ReceiptBatch> batch;
      {
        const Span span("tlc.build");
        while (!batch && in_cycle < shape.receipts_per_cycle) {
          batch = batcher->append_encoded(
              env.pocs[(base + appended) % env.pocs.size()], cycle);
          ++appended;
          ++in_cycle;
        }
        if (!batch) batch = batcher->end_cycle();
      }
      if (!batch) continue;
      const std::size_t first = committed;
      committed += batch->entries.size();
      audit_batch(env, shape, *verifier, std::move(*batch), first, base,
                  build_start, spec, t);
    }
  }
}

void gate_tally(const Tally& t, const RunSpec& spec, Report& rep) {
  rep.gate(t.bad_batches == 0,
           "audit: every batch verdict matches the tamper plan");
  rep.gate(t.rejected_receipts == t.tampered + spec.reject_skew,
           "audit: rejected receipts == tampered batches");
  rep.gate(t.stale_heads == t.replays + spec.reject_skew,
           "audit: stale heads == replayed frames");
  rep.gate(t.accepted_volume == t.expected_volume,
           "audit: accepted volume == pool sum of the clean receipts");
  rep.attempted += t.receipts;
  rep.failed += t.bad_receipts;
}

}  // namespace

Report run_audit_batched(const RunSpec& spec) {
  Report rep;
  const ChainShape shape = chain_shape(spec);
  std::optional<AuditEnv> env;
  const double setup_s =
      median_setup_seconds([&] { env = make_env(spec, shape); });
  rep.gate(env->all_done, "audit: every pool negotiation produced a PoC");
  if (!env->all_done) return rep;
  std::uint64_t chain = 0;

  if (!spec.trace) {
    // Equal intervals; the receipt rate and the median batch latency per
    // interval, reported as medians over the intervals.
    constexpr int kIntervals = 20;
    std::vector<double> rates;
    std::vector<double> latencies;
    Tally total;
    for (int i = 0; i < kIntervals; ++i) {
      Tally t;
      t.batch_seq = total.batch_seq;
      const Clock::time_point start = Clock::now();
      do {
        run_chain(*env, shape, chain++, spec, t);
      } while (seconds_since(start) < spec.seconds / kIntervals);
      rates.push_back(static_cast<double>(t.receipts) / seconds_since(start));
      latencies.push_back(median(t.latency_us));
      total.batch_seq = t.batch_seq;
      gate_tally(t, spec, rep);
    }
    char line[160];
    std::snprintf(line, sizeof line,
                  "%d intervals: receipts/s min %.0f median %.0f max %.0f; "
                  "median batch latency %.1f us",
                  kIntervals, quantile(rates, 0.0), median(rates),
                  quantile(rates, 1.0), median(latencies));
    rep.note(line);
    rep.set("setup_s", setup_s);
    rep.set("ue_cycles_per_s", median(rates));
    rep.set("median_latency_us", median(latencies));
    rep.set("peak_rss_mb", peak_rss_mb());
    return rep;
  }

  // Alternate untraced and traced chains (same loop) until the time is
  // spent; the spans come from the traced ones only.
  Tally plain;
  Tally traced;
  double plain_s = 0;
  double traced_s = 0;
  const Clock::time_point start = Clock::now();
  do {
    Clock::time_point t0 = Clock::now();
    run_chain(*env, shape, chain++, spec, plain);
    plain_s += seconds_since(t0);
    traced.batch_seq = plain.batch_seq;
    Tracer::set_enabled(true);
    t0 = Clock::now();
    run_chain(*env, shape, chain++, spec, traced);
    traced_s += seconds_since(t0);
    Tracer::set_enabled(false);
    plain.batch_seq = traced.batch_seq;
  } while (seconds_since(start) < spec.seconds);
  gate_tally(plain, spec, rep);
  gate_tally(traced, spec, rep);

  const std::vector<SpanRecord> spans = Tracer::collect();
  const std::vector<StageStats> stats = stage_stats(spans);
  const double unattributed =
      unattributed_share(spans, "bench.audit_chain") * 100.0;
  // A timing check, so only at full size (as for fleet_batch).
  rep.gate(spec.smoke || unattributed <= 5.0,
           "trace: stage self-times cover the audit loop within 5%");
  const auto per_call_us = [&](const char* name) {
    const StageStats st = find_stage(stats, name);
    return st.count == 0 ? 0.0
                         : st.total_ns / 1e3 / static_cast<double>(st.count);
  };
  rep.set("trace.overhead",
          ((traced_s / static_cast<double>(traced.receipts)) /
               (plain_s / static_cast<double>(plain.receipts)) -
           1.0) *
              100.0);
  rep.set("bench.unattributed_share", unattributed);
  rep.set("tlc.build_us_per_batch", per_call_us("tlc.build"));
  rep.set("wire.encode_us_per_batch", per_call_us("wire.encode"));
  rep.set("wire.decode_us_per_batch", per_call_us("wire.decode"));
  rep.set("wire.frame_bytes_per_receipt",
          static_cast<double>(traced.frame_bytes) /
              static_cast<double>(traced.receipts));
  rep.set("tlc.verify_us_per_batch.clean", per_call_us("tlc.verify.clean"));
  rep.set("tlc.verify_us_per_batch.tampered",
          per_call_us("tlc.verify.tampered"));
  rep.set("tlc.audit_latency_us_p99", quantile(traced.latency_us, 0.99));
  rep.set("tlc.negotiate_us_per_poc",
          env->negotiate_s * 1e6 / static_cast<double>(env->pocs.size()));
  finish_trace(spec, spans, rep);
  return rep;
}

}  // namespace tlcbench
