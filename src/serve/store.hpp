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

}  // namespace tlc::serve
