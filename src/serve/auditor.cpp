#include "serve/auditor.hpp"

#include <utility>

namespace tlc::serve {

LiveAuditor::LiveAuditor(crypto::PublicKey edge_key,
                         crypto::PublicKey operator_key,
                         charging::DataPlan plan, std::size_t queue_capacity)
    : queue_(queue_capacity),
      verifier_(std::move(edge_key), std::move(operator_key),
                std::move(plan)),
      auditor_([this] { audit_loop(); }) {}

LiveAuditor::~LiveAuditor() { drain(); }

void LiveAuditor::submit(const core::ReceiptBatch* batch) {
  while (!queue_.try_enqueue(batch)) {
    std::this_thread::yield();
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
}

void LiveAuditor::drain() {
  if (drained_) return;
  drained_ = true;
  stopping_.store(true, std::memory_order_release);
  auditor_.join();
}

void LiveAuditor::audit_loop() {
  const core::ReceiptBatch* batch = nullptr;
  for (;;) {
    // Read the flag before the dequeue whose failure ends the loop (see
    // ServePipeline::consume): read after it, a batch published in between
    // would never be verified.
    const bool stopping = stopping_.load(std::memory_order_acquire);
    if (queue_.try_dequeue(&batch)) {
      const core::BatchAudit audit = verifier_.verify_batch(*batch);
      verified_.fetch_add(1, std::memory_order_relaxed);
      if (audit.head == core::BatchVerifyResult::kOk) {
        heads_accepted_.fetch_add(1, std::memory_order_relaxed);
      } else {
        heads_rejected_.fetch_add(1, std::memory_order_relaxed);
      }
      receipts_accepted_.fetch_add(audit.accepted,
                                   std::memory_order_relaxed);
      receipts_rejected_.fetch_add(audit.rejected,
                                   std::memory_order_relaxed);
      verified_volume_.fetch_add(audit.total_verified_volume.count(),
                                 std::memory_order_relaxed);
      continue;
    }
    if (stopping) break;
    std::this_thread::yield();
  }
}

}  // namespace tlc::serve
