// Figure 17 — "Proof-of-Charging's cost".
//
// Measures, with google-benchmark and real OpenSSL RSA:
//   * PoC negotiation: the full signed CDR → CDA → PoC exchange;
//   * PoC verification: Algorithm 2 (three signature checks + recompute);
//   * the individual sign/verify primitives, RSA-1024 and RSA-2048.
//
// After the timed section it prints (a) the wire-size table, paper values
// alongside (LTE CDR 34 B, TLC CDR 199 B, CDA 398 B, PoC 796 B), (b) the
// per-device estimates obtained by scaling the measured host numbers with
// the Fig. 16a/17 device profiles, and (c) the single-machine verifier
// throughput (paper: 230 K PoCs/hour on the HP Z840).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <thread>
#include <vector>

#include "crypto/sha256.hpp"
#include "exp/device_profile.hpp"
#include "tlc/batch.hpp"
#include "tlc/protocol.hpp"
#include "tlc/verifier.hpp"
#include "wire/legacy_cdr.hpp"

using namespace tlc;
using namespace tlc::core;

namespace {

struct Env {
  crypto::KeyPair edge_keys =
      crypto::KeyPair::generate(crypto::KeyStrength::kRsa1024);
  crypto::KeyPair operator_keys =
      crypto::KeyPair::generate(crypto::KeyStrength::kRsa1024);
  charging::DataPlan plan;
  LocalView view{Bytes{778'500'000}, Bytes{720'000'000}};
  StrategyPtr edge_strategy = make_optimal_edge();
  StrategyPtr operator_strategy = make_optimal_operator();

  Env() {
    plan.loss_weight = 0.5;
    plan.cycle_length = std::chrono::hours{1};
  }

  [[nodiscard]] ProtocolParty::Config config(PartyRole role) const {
    ProtocolParty::Config cfg;
    cfg.role = role;
    cfg.plan = plan;
    cfg.cycle = plan.cycle_at(kTimeZero);
    cfg.view = view;
    return cfg;
  }

  [[nodiscard]] PocMsg negotiate(std::uint64_t seed) const {
    ProtocolParty edge{config(PartyRole::kEdgeVendor), *edge_strategy,
                       edge_keys, operator_keys.public_key(), Rng{seed}};
    ProtocolParty op{config(PartyRole::kCellularOperator),
                     *operator_strategy, operator_keys,
                     edge_keys.public_key(), Rng{seed + 1}};
    run_exchange(op, edge);
    return *op.poc();
  }
};

Env& env() {
  static Env instance;
  return instance;
}

void BM_PocNegotiation(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(env().negotiate(seed++));
  }
}
BENCHMARK(BM_PocNegotiation)->Unit(benchmark::kMillisecond);

void BM_PocVerification(benchmark::State& state) {
  const ByteVec poc = env().negotiate(999).encode();
  for (auto _ : state) {
    // Fresh verifier per iteration so the replay cache never rejects.
    PublicVerifier verifier{env().edge_keys.public_key(),
                            env().operator_keys.public_key(), env().plan};
    benchmark::DoNotOptimize(verifier.verify(poc));
  }
}
BENCHMARK(BM_PocVerification)->Unit(benchmark::kMillisecond);

void BM_RsaSign(benchmark::State& state) {
  const auto keys = crypto::KeyPair::generate(
      static_cast<crypto::KeyStrength>(state.range(0)));
  const ByteVec msg(200, 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sign(keys, msg));
  }
}
BENCHMARK(BM_RsaSign)->Arg(1024)->Arg(2048)->Unit(benchmark::kMicrosecond);

// The signing path hashes every signable encoding; sha256() reuses a
// thread-local EVP context. BM_Sha256FreshContext measures the old
// behaviour (context allocated + initialised per call) for comparison.
void BM_Sha256OneShot(benchmark::State& state) {
  const ByteVec msg(static_cast<std::size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(msg));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256OneShot)->Arg(200)->Arg(4096)->Unit(benchmark::kNanosecond);

void BM_Sha256FreshContext(benchmark::State& state) {
  const ByteVec msg(static_cast<std::size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    crypto::Sha256 hasher;
    hasher.update(msg);
    benchmark::DoNotOptimize(hasher.finish());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256FreshContext)
    ->Arg(200)
    ->Arg(4096)
    ->Unit(benchmark::kNanosecond);

/// Distinct receipts (distinct nonces/cycle seeds) for batch benchmarks —
/// generated once, RSA negotiation cost kept out of the timed loops.
const std::vector<ByteVec>& receipt_pool() {
  static const std::vector<ByteVec> pool = [] {
    std::vector<ByteVec> out;
    out.reserve(64);
    for (std::uint64_t i = 0; i < 64; ++i) {
      out.push_back(env().negotiate(20'000 + i * 2).encode());
    }
    return out;
  }();
  return pool;
}

ReceiptBatch make_batch(std::size_t size) {
  FlushPolicy policy;
  policy.max_batch = size;
  policy.flush_on_cycle_end = false;
  BatchBuilder builder{env().operator_keys, PartyRole::kCellularOperator,
                       policy};
  std::optional<ReceiptBatch> batch;
  for (std::size_t i = 0; i < size; ++i) {
    if (auto b = builder.append_encoded(receipt_pool()[i], i)) {
      batch = std::move(b);
    }
  }
  return *batch;
}

/// Batched Algorithm 2: one RSA head check + per-receipt O(log n) Merkle
/// inclusion + structural checks, vs three RSA checks per receipt above.
void BM_BatchedVerification(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  const ReceiptBatch batch = make_batch(size);
  for (auto _ : state) {
    // Fresh verifier per iteration: chain state expects index 0 and the
    // replay cache must be empty.
    BatchedVerifier verifier{env().edge_keys.public_key(),
                             env().operator_keys.public_key(), env().plan};
    benchmark::DoNotOptimize(verifier.verify_batch(batch));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_BatchedVerification)
    ->Arg(1)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMicrosecond);

void BM_RsaVerify(benchmark::State& state) {
  const auto keys = crypto::KeyPair::generate(
      static_cast<crypto::KeyStrength>(state.range(0)));
  const ByteVec msg(200, 0x5a);
  const ByteVec sig = crypto::sign(keys, msg);
  const auto pub = keys.public_key();
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::verify(pub, msg, sig));
  }
}
BENCHMARK(BM_RsaVerify)->Arg(1024)->Arg(2048)->Unit(benchmark::kMicrosecond);

void print_summary() {
  // --- wire sizes ---------------------------------------------------------
  ProtocolParty edge{env().config(PartyRole::kEdgeVendor),
                     *env().edge_strategy, env().edge_keys,
                     env().operator_keys.public_key(), Rng{5}};
  ProtocolParty op{env().config(PartyRole::kCellularOperator),
                   *env().operator_strategy, env().operator_keys,
                   env().edge_keys.public_key(), Rng{6}};
  const Message cdr = op.start();
  const auto cda = edge.on_message(cdr);
  const auto poc = op.on_message(*cda);
  const std::size_t cdr_size = encode_message(cdr).size();
  const std::size_t cda_size = encode_message(*cda).size();
  const std::size_t poc_size = encode_message(*poc).size();

  std::printf("\n## Fig. 17 message sizes (RSA-1024)\n");
  std::printf("%-12s %10s %10s\n", "message", "ours (B)", "paper (B)");
  std::printf("%-12s %10zu %10d\n", "LTE CDR", wire::kLegacyCdrSize, 34);
  std::printf("%-12s %10zu %10d\n", "TLC CDR", cdr_size, 199);
  std::printf("%-12s %10zu %10d\n", "TLC CDA", cda_size, 398);
  std::printf("%-12s %10zu %10d\n", "TLC PoC", poc_size, 796);
  std::printf("%-12s %10zu %10d  (%zu msgs vs 3)\n", "total",
              cdr_size + cda_size + poc_size, 1393,
              static_cast<std::size_t>(3));

  // --- host timings → per-device estimates --------------------------------
  const auto time_of = [](auto&& fn, int iters) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) fn(i);
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(stop - start).count() /
           iters;
  };
  const double negotiate_ms =
      time_of([&](int i) { (void)env().negotiate(10'000 +
                                                 static_cast<unsigned>(i)); },
              30);
  const ByteVec poc_bytes = env().negotiate(77).encode();
  const double verify_ms = time_of(
      [&](int) {
        PublicVerifier v{env().edge_keys.public_key(),
                         env().operator_keys.public_key(), env().plan};
        (void)v.verify(poc_bytes);
      },
      100);

  std::printf("\n## Fig. 17 per-device estimates (host-measured, scaled by "
              "device profile)\n");
  std::printf("%-10s %18s %18s %14s %14s\n", "device", "negotiate (ms)",
              "verify (ms)", "paper nego", "paper verify");
  for (const auto& dev : exp::device_profiles()) {
    const double nego =
        negotiate_ms * dev.crypto_slowdown +
        2.0 * to_seconds(dev.link_latency) * 1e3;  // 1-round RTT share
    const double verify = verify_ms * dev.crypto_slowdown;
    std::printf("%-10s %18.2f %18.2f %14.1f %14.1f\n",
                std::string(dev.name).c_str(), nego, verify,
                to_seconds(dev.paper_negotiation) * 1e3,
                to_seconds(dev.paper_verification) * 1e3);
  }

  const double per_hour = 3600.0 * 1000.0 / verify_ms;
  std::printf("\nsingle-host verifier throughput: %.0fK PoCs/hour "
              "(paper: 230K/hour on HP Z840)\n", per_hour / 1000.0);

  // --- negotiation-time decomposition over the simulated channel ---------
  // §7.2: "The negotiation time mainly includes the cryptographic
  // computation (contributing 54.9% on average), and the round-trip
  // between device and network (45.1%)." We run the exchange and charge
  // each message phone-class crypto times (host-measured, scaled) and LTE
  // one-way latency.
  std::printf("\n## Fig. 17 negotiation decomposition (simulated channel)\n");
  std::printf("%-10s %12s %12s %12s %13s\n", "device", "total (ms)",
              "crypto (ms)", "rtt (ms)", "crypto share");
  for (const auto& dev : exp::device_profiles()) {
    if (dev.name == "Z840") continue;
    ProtocolParty op_party{env().config(PartyRole::kCellularOperator),
                           *env().operator_strategy, env().operator_keys,
                           env().edge_keys.public_key(), Rng{400}};
    ProtocolParty edge_party{env().config(PartyRole::kEdgeVendor),
                             *env().edge_strategy, env().edge_keys,
                             env().operator_keys.public_key(), Rng{401}};
    TimedExchangeConfig tcfg;
    tcfg.one_way_latency = dev.link_latency;
    // Per-message crypto = host negotiation time / 3 messages, scaled to
    // the device; the operator side runs on server-class hardware.
    tcfg.initiator_crypto =
        from_seconds(negotiate_ms / 3.0 / 1e3);  // operator (initiator)
    tcfg.responder_crypto =
        from_seconds(negotiate_ms / 3.0 / 1e3 * dev.crypto_slowdown);
    const auto timed = run_timed_exchange(op_party, edge_party, tcfg);
    const double total_ms = to_seconds(timed.elapsed) * 1e3;
    const double crypto_ms = to_seconds(timed.crypto_time) * 1e3;
    const double rtt_ms = to_seconds(timed.network_time) * 1e3;
    std::printf("%-10s %12.2f %12.2f %12.2f %12.1f%%\n",
                std::string(dev.name).c_str(), total_ms, crypto_ms, rtt_ms,
                100.0 * crypto_ms / total_ms);
  }
  std::printf("(paper: crypto 54.9%% / RTT 45.1%% on average)\n");
  std::printf(
      "\nOn modern hardware the exchange is network-bound; the paper's\n"
      "54.9%% crypto share reflects 2019 Java RSA-1024 on phones (~20 ms "
      "per\nmessage). Re-running with that era's crypto cost:\n");
  {
    ProtocolParty op_party{env().config(PartyRole::kCellularOperator),
                           *env().operator_strategy, env().operator_keys,
                           env().edge_keys.public_key(), Rng{500}};
    ProtocolParty edge_party{env().config(PartyRole::kEdgeVendor),
                             *env().edge_strategy, env().edge_keys,
                             env().operator_keys.public_key(), Rng{501}};
    TimedExchangeConfig tcfg;
    tcfg.one_way_latency = std::chrono::milliseconds{14};
    tcfg.initiator_crypto = std::chrono::milliseconds{3};   // core server
    tcfg.responder_crypto = std::chrono::milliseconds{20};  // 2019 phone
    const auto timed = run_timed_exchange(op_party, edge_party, tcfg);
    const double total_ms = to_seconds(timed.elapsed) * 1e3;
    const double crypto_ms = to_seconds(timed.crypto_time) * 1e3;
    std::printf("  2019-calibrated: total %.1f ms, crypto share %.1f%% "
                "(paper: ~105 ms, 54.9%%)\n",
                total_ms, 100.0 * crypto_ms / total_ms);
  }

  // --- batched hash-chained receipts vs per-message Algorithm 2 ----------
  // Wall-clock throughput over the same 64 distinct receipts: the classic
  // path pays three RSA checks per PoC; the batched path pays one RSA head
  // check per batch plus an O(log n) Merkle proof per PoC.
  const auto pump = [](auto&& pass, std::size_t items_per_pass) {
    // Repeat whole passes until ≥0.25 s elapsed so the rate is stable.
    int passes = 0;
    const auto start = std::chrono::steady_clock::now();
    std::chrono::duration<double> elapsed{};
    do {
      pass();
      ++passes;
      elapsed = std::chrono::steady_clock::now() - start;
    } while (elapsed.count() < 0.25);
    return static_cast<double>(passes) *
           static_cast<double>(items_per_pass) / elapsed.count();
  };

  const std::vector<ByteVec>& pool = receipt_pool();
  const double per_message_rate = pump(
      [&] {
        PublicVerifier v{env().edge_keys.public_key(),
                         env().operator_keys.public_key(), env().plan};
        for (const ByteVec& receipt : pool) (void)v.verify(receipt);
      },
      pool.size());

  const ReceiptBatch batch64 = make_batch(64);
  const double batch64_rate = pump(
      [&] {
        BatchedVerifier v{env().edge_keys.public_key(),
                          env().operator_keys.public_key(), env().plan};
        (void)v.verify_batch(batch64);
      },
      batch64.entries.size());

  const ReceiptBatch batch1 = make_batch(1);
  const double batch1_rate = pump(
      [&] {
        BatchedVerifier v{env().edge_keys.public_key(),
                          env().operator_keys.public_key(), env().plan};
        (void)v.verify_batch(batch1);
      },
      1);

  const double speedup = batch64_rate / per_message_rate;
  std::printf("\n## Batched verification (hash-chained Merkle batches)\n");
  std::printf("%-22s %16s\n", "path", "PoCs/sec");
  std::printf("%-22s %16.0f\n", "per-message (Alg. 2)", per_message_rate);
  std::printf("%-22s %16.0f\n", "batch k=1", batch1_rate);
  std::printf("%-22s %16.0f\n", "batch k=64", batch64_rate);
  std::printf("batch-64 speedup over per-message: %.1fx\n", speedup);

  // --- machine-readable outputs (CI artifacts) ---------------------------
  const unsigned cpus = std::thread::hardware_concurrency();
  if (std::FILE* out = std::fopen("BENCH_fig17.json", "w")) {
    std::fprintf(out,
                 "{\n"
                 "  \"cpus\": %u,\n"
                 "  \"negotiate_ms\": %.3f,\n"
                 "  \"verify_ms\": %.4f,\n"
                 "  \"verifier_pocs_per_hour\": %.1f,\n"
                 "  \"cdr_bytes\": %zu,\n"
                 "  \"cda_bytes\": %zu,\n"
                 "  \"poc_bytes\": %zu\n"
                 "}\n",
                 cpus, negotiate_ms, verify_ms, per_hour, cdr_size, cda_size,
                 poc_size);
    std::fclose(out);
    std::printf("wrote BENCH_fig17.json\n");
  } else {
    std::perror("BENCH_fig17.json");
  }
  if (std::FILE* out = std::fopen("BENCH_poc_batch.json", "w")) {
    std::fprintf(out,
                 "{\n"
                 "  \"cpus\": %u,\n"
                 "  \"receipts\": %zu,\n"
                 "  \"per_message_pocs_per_sec\": %.1f,\n"
                 "  \"batch1_pocs_per_sec\": %.1f,\n"
                 "  \"batch64_pocs_per_sec\": %.1f,\n"
                 "  \"batch64_speedup\": %.2f\n"
                 "}\n",
                 cpus, pool.size(), per_message_rate, batch1_rate, batch64_rate,
                 speedup);
    std::fclose(out);
    std::printf("wrote BENCH_poc_batch.json\n");
  } else {
    std::perror("BENCH_poc_batch.json");
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_summary();
  return 0;
}
