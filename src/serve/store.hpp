// serve::ReceiptStore — the bounded ring (ring.hpp) of ExchangeRecords
// backing the live pipeline.
#pragma once

#include "serve/record.hpp"
#include "serve/ring.hpp"

namespace tlc::serve {

struct ReceiptStore : Ring<ExchangeRecord> {
  using Ring::Ring;

  /// Carries nothing: the ring needs no per-thread registration. The name
  /// survives only for callers of ServePipeline::register_producer().
  struct Handle {};
};

// Two cache lines per record: the sequence, the 96-byte record and the run
// length use 108 bytes, which leaves room for a 64-bit trace id per record.
static_assert(ReceiptStore::kCellBytes == 128,
              "a receipt-store cell is two cache lines");

}  // namespace tlc::serve
