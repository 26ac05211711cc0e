#include "crypto/sha256.hpp"

#include <openssl/evp.h>

#include <stdexcept>

#include "common/hex.hpp"
#include "common/hot.hpp"

namespace tlc::crypto {

TLC_HOT Digest sha256(std::span<const std::uint8_t> data) {
  // finish() re-initialises the context, so one hasher per thread serves
  // every one-shot call without an EVP_MD_CTX allocation per digest (the
  // CDR→CDA→PoC signing path hashes at every message).
  thread_local Sha256 hasher;
  hasher.update(data);
  return hasher.finish();
}

std::string sha256_hex(std::span<const std::uint8_t> data) {
  const Digest d = sha256(data);
  return to_hex(d);
}

// The algorithm is fetched once, here. Initialising with the legacy
// EVP_sha256() handle instead makes OpenSSL 3 fetch the provider
// implementation on every EVP_DigestInit_ex: 0.3–0.65 µs per digest on a
// 4-CPU Xeon host, about doubling what a 65-byte Merkle node costs.
Sha256::Sha256() : ctx_(EVP_MD_CTX_new()) {
  auto* ctx = static_cast<EVP_MD_CTX*>(ctx_);
  if (ctx == nullptr) throw std::runtime_error{"EVP_MD_CTX_new failed"};
  EVP_MD* md = EVP_MD_fetch(nullptr, "SHA256", nullptr);
  const bool ok = md != nullptr && EVP_DigestInit_ex2(ctx, md, nullptr) == 1;
  EVP_MD_free(md);  // the initialised context holds its own reference
  if (!ok) {
    EVP_MD_CTX_free(ctx);
    throw std::runtime_error{"SHA-256 fetch or EVP_DigestInit_ex2 failed"};
  }
}

Sha256::~Sha256() { EVP_MD_CTX_free(static_cast<EVP_MD_CTX*>(ctx_)); }

TLC_HOT void Sha256::update(std::span<const std::uint8_t> data) {
  if (EVP_DigestUpdate(static_cast<EVP_MD_CTX*>(ctx_), data.data(),
                       data.size()) != 1) {
    // tlc-lint: allow(hot-path-alloc): EVP failure is a library fault,
    // never taken while OpenSSL works
    throw std::runtime_error{"EVP_DigestUpdate failed"};
  }
}

TLC_HOT Digest Sha256::finish() {
  Digest out{};
  unsigned int len = 0;
  auto* ctx = static_cast<EVP_MD_CTX*>(ctx_);
  if (EVP_DigestFinal_ex(ctx, out.data(), &len) != 1 || len != out.size()) {
    // tlc-lint: allow(hot-path-alloc): EVP failure is a library fault,
    // never taken while OpenSSL works
    throw std::runtime_error{"EVP_DigestFinal_ex failed"};
  }
  // A null type re-arms the context with the digest it already holds: no
  // fetch.
  if (EVP_DigestInit_ex2(ctx, nullptr, nullptr) != 1) {
    // tlc-lint: allow(hot-path-alloc): EVP failure is a library fault,
    // never taken while OpenSSL works
    throw std::runtime_error{"EVP_DigestInit_ex2 (reset) failed"};
  }
  return out;
}

}  // namespace tlc::crypto
