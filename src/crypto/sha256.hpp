// SHA-256 digests (OpenSSL EVP backend).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

namespace tlc::crypto {

using Digest = std::array<std::uint8_t, 32>;

/// One-shot SHA-256 over `data`. Served by a thread-local reusable
/// context, so calling it in a loop costs no per-call allocation.
[[nodiscard]] Digest sha256(std::span<const std::uint8_t> data);

/// Convenience: hex string of the digest.
[[nodiscard]] std::string sha256_hex(std::span<const std::uint8_t> data);

/// Incremental hasher for multi-part messages. The constructor fetches
/// SHA-256 once; finish() re-arms the same context, so a long-lived
/// (e.g. thread-local) hasher pays no fetch and no EVP_MD_CTX allocation
/// per digest.
class Sha256 {
 public:
  Sha256();
  ~Sha256();
  Sha256(const Sha256&) = delete;
  Sha256& operator=(const Sha256&) = delete;

  void update(std::span<const std::uint8_t> data);
  /// Finalizes and resets for reuse.
  [[nodiscard]] Digest finish();

 private:
  void* ctx_;  // EVP_MD_CTX, opaque to keep OpenSSL out of the header
};

}  // namespace tlc::crypto
