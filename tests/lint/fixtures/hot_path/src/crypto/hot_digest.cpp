// Seeded hot-path-alloc violations: digest-algorithm fetches inside
// TLC_HOT functions. Re-arming a context with EVP_sha256() makes OpenSSL 3
// fetch SHA-256 again on every digest; the real crypto::Sha256 fetches once
// in its constructor and re-arms with a null type. Lexed by the lint tests,
// never compiled.
#include <openssl/evp.h>

#include "common/hot.hpp"

namespace tlc::crypto {

TLC_HOT void rearm(EVP_MD_CTX* ctx) {
  EVP_DigestInit_ex(ctx, EVP_sha256(), nullptr);
}

TLC_HOT void rearm_by_name(EVP_MD_CTX* ctx) {
  EVP_DigestInit_ex(ctx, EVP_get_digestbyname("SHA256"), nullptr);
}

TLC_HOT void refetch(EVP_MD_CTX* ctx) {
  EVP_MD* md = EVP_MD_fetch(nullptr, "SHA256", nullptr);
  EVP_DigestInit_ex2(ctx, md, nullptr);
  EVP_MD_free(md);
}

// Not annotated: a constructor-time fetch is the intended place for it.
void init_once(EVP_MD_CTX* ctx) {
  EVP_MD* md = EVP_MD_fetch(nullptr, "SHA256", nullptr);
  EVP_DigestInit_ex2(ctx, md, nullptr);
  EVP_MD_free(md);
}

// Annotated and clean: re-arming with a null type reuses the fetched
// digest.
TLC_HOT void rearm_in_place(EVP_MD_CTX* ctx) {
  EVP_DigestInit_ex2(ctx, nullptr, nullptr);
}

}  // namespace tlc::crypto
