// LiveAuditor — the serving-mode front end of core::BatchedVerifier.
//
// The batch verifier amortizes one RSA head check over a whole receipt
// batch, but it is stateful (it tracks the expected chain link), so heads
// MUST be verified in chain order. The auditor preserves that contract
// under concurrency by construction: any number of ingest threads hand
// finished batches through a bounded ring (ring.hpp), and exactly ONE
// audit thread dequeues and verifies — order in, order out (the ring is
// FIFO over linearized enqueues, so callers submit each chain's heads in
// order and the verifier sees them in order).
//
// Batch lifetime: the auditor borrows `const ReceiptBatch*`; the submitter
// keeps each batch alive until drain() returns.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

#include "charging/data_plan.hpp"
#include "serve/ring.hpp"
#include "tlc/verifier.hpp"

namespace tlc::serve {

class LiveAuditor {
 public:
  LiveAuditor(crypto::PublicKey edge_key, crypto::PublicKey operator_key,
              charging::DataPlan plan, std::size_t queue_capacity = 256);
  LiveAuditor(const LiveAuditor&) = delete;
  LiveAuditor& operator=(const LiveAuditor&) = delete;
  ~LiveAuditor();

  /// Hands one finished batch to the audit thread; spins under
  /// backpressure. Heads of one chain must be submitted in chain order.
  void submit(const core::ReceiptBatch* batch);

  /// Waits for every submitted batch to be verified, then stops the audit
  /// thread. Idempotent; all submits happen-before.
  void drain();

  [[nodiscard]] std::uint64_t batches_submitted() const {
    return submitted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t batches_verified() const {
    return verified_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t heads_accepted() const {
    return heads_accepted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t heads_rejected() const {
    return heads_rejected_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t receipts_accepted() const {
    return receipts_accepted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t receipts_rejected() const {
    return receipts_rejected_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t verified_volume_bytes() const {
    return verified_volume_.load(std::memory_order_relaxed);
  }

 private:
  void audit_loop();

  Ring<const core::ReceiptBatch*> queue_;
  core::BatchedVerifier verifier_;
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> verified_{0};
  std::atomic<std::uint64_t> heads_accepted_{0};
  std::atomic<std::uint64_t> heads_rejected_{0};
  std::atomic<std::uint64_t> receipts_accepted_{0};
  std::atomic<std::uint64_t> receipts_rejected_{0};
  std::atomic<std::uint64_t> verified_volume_{0};
  std::atomic<bool> stopping_{false};
  bool drained_ = false;
  std::thread auditor_;
};

}  // namespace tlc::serve
