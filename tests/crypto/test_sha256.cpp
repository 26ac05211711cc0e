#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

#include <string_view>

#include "common/hex.hpp"

namespace tlc::crypto {
namespace {

std::span<const std::uint8_t> as_bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

TEST(Sha256, EmptyInputVector) {
  EXPECT_EQ(sha256_hex({}),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, AbcVector) {
  EXPECT_EQ(sha256_hex(as_bytes("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, LongerVector) {
  EXPECT_EQ(sha256_hex(as_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Sha256 hasher;
  hasher.update(as_bytes("hello "));
  hasher.update(as_bytes("world"));
  const Digest incremental = hasher.finish();
  EXPECT_EQ(incremental, sha256(as_bytes("hello world")));
}

TEST(Sha256, FinishResetsForReuse) {
  Sha256 hasher;
  hasher.update(as_bytes("first"));
  (void)hasher.finish();
  hasher.update(as_bytes("abc"));
  EXPECT_EQ(to_hex(hasher.finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");

  // The empty message right after a reset: nothing of "abc" survives it.
  EXPECT_EQ(to_hex(hasher.finish()),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");

  // Hundreds of resets of one context, cycling through the known answers
  // (one block, empty, two blocks).
  struct KnownAnswer {
    std::string_view message;
    std::string_view digest;
  };
  constexpr KnownAnswer kAnswers[] = {
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
  };
  for (int i = 0; i < 300; ++i) {
    const KnownAnswer& answer = kAnswers[i % 3];
    hasher.update(as_bytes(answer.message));
    EXPECT_EQ(to_hex(hasher.finish()), answer.digest) << "digest " << i;
  }
}

TEST(Sha256, DifferentInputsDiffer) {
  EXPECT_NE(sha256(as_bytes("a")), sha256(as_bytes("b")));
}

TEST(Sha256, SingleBitFlipChangesDigest) {
  ByteVec data(100, 0x55);
  const Digest before = sha256(data);
  data[50] ^= 0x01;
  EXPECT_NE(sha256(data), before);
}

}  // namespace
}  // namespace tlc::crypto
