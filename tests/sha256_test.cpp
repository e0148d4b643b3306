// SHA-256 / HMAC-SHA256 against FIPS 180-4 and RFC 4231 vectors, the
// SHA-extension compression kernel against the portable one, and the
// one-step padding against an explicitly padded message at every length
// through three blocks.
#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "crypto/rng.hpp"

namespace dla::crypto {
namespace {

TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(Sha256::hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(Sha256::hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(to_hex(Sha256::hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  std::string a_million(1000000, 'a');
  EXPECT_EQ(to_hex(Sha256::hash(a_million)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ExactBlockBoundary) {
  // 55, 56, 63, 64 and 65 bytes cross the padding edge cases.
  std::string base(65, 'x');
  for (std::size_t len : {55u, 56u, 63u, 64u, 65u}) {
    Digest once = Sha256::hash(std::string_view(base).substr(0, len));
    // Same input split into two updates must give the same digest.
    Sha256 ctx;
    ctx.update(std::string_view(base).substr(0, len / 2));
    ctx.update(std::string_view(base).substr(len / 2, len - len / 2));
    EXPECT_EQ(to_hex(ctx.finalize()), to_hex(once)) << len;
  }
}

TEST(Sha256, IncrementalMatchesOneShot) {
  std::string msg = "the quick brown fox jumps over the lazy dog";
  Sha256 ctx;
  for (char c : msg) ctx.update(std::string_view(&c, 1));
  EXPECT_EQ(to_hex(ctx.finalize()), to_hex(Sha256::hash(msg)));
}

TEST(Sha256, DistinctInputsDistinctDigests) {
  EXPECT_NE(to_hex(Sha256::hash("a")), to_hex(Sha256::hash("b")));
}

TEST(HmacSha256, Rfc4231Case1) {
  std::vector<std::uint8_t> key(20, 0x0b);
  EXPECT_EQ(to_hex(hmac_sha256(key, "Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  std::string key_str = "Jefe";
  std::vector<std::uint8_t> key(key_str.begin(), key_str.end());
  EXPECT_EQ(to_hex(hmac_sha256(key, "what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, LongKeyIsHashedFirst) {
  // RFC 4231 case 6: 131-byte key.
  std::vector<std::uint8_t> key(131, 0xaa);
  EXPECT_EQ(to_hex(hmac_sha256(
                key, "Test Using Larger Than Block-Size Key - Hash Key First")),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, KeySensitivity) {
  std::vector<std::uint8_t> k1(16, 1), k2(16, 2);
  EXPECT_NE(to_hex(hmac_sha256(k1, "msg")), to_hex(hmac_sha256(k2, "msg")));
}

// The kernel Sha256 runs on a SHA-extension CPU gives the portable kernel's
// state on random states and blocks, one block at a time and several.
TEST(Sha256Kernels, ExtensionsMatchPortable) {
#if defined(__x86_64__)
  if (!sha256_has_extensions()) {
    GTEST_SKIP() << "CPU lacks the SHA extensions: Sha256 runs the portable "
                    "kernel only";
  }
  ChaCha20Rng rng("sha256-kernels");
  auto random_state = [&] {
    Sha256State state;
    for (std::uint32_t& word : state) word = rng.next_u32();
    return state;
  };
  std::array<std::uint8_t, 64> block;
  for (int trial = 0; trial < 10000; ++trial) {
    Sha256State portable = random_state();
    Sha256State extensions = portable;
    rng.fill(block);
    sha256_compress_portable(portable, block.data(), 1);
    sha256_compress_extensions(extensions, block.data(), 1);
    ASSERT_EQ(extensions, portable) << "trial " << trial;
  }
  std::vector<std::uint8_t> blocks(64 * 7);
  rng.fill(blocks);
  Sha256State portable = random_state();
  Sha256State extensions = portable;
  sha256_compress_portable(portable, blocks.data(), 7);
  sha256_compress_extensions(extensions, blocks.data(), 7);
  EXPECT_EQ(extensions, portable);
#else
  GTEST_SKIP() << "the SHA-extension kernel exists on x86-64 only";
#endif
}

// Every length from 0 to 300 bytes (the padding edges 55, 56, 63, 64, 119
// and 120 among them), fed whole and in pieces of 1, 7 and 64 bytes, gives
// the digest of the message padded by hand (FIPS 180-4 §5.1.1) and
// compressed by the portable kernel.
TEST(Sha256, EveryLengthInPiecesMatchesExplicitPadding) {
  ChaCha20Rng rng("sha256-lengths");
  std::vector<std::uint8_t> msg(300);
  rng.fill(msg);
  for (std::size_t len = 0; len <= msg.size(); ++len) {
    std::vector<std::uint8_t> padded(msg.begin(), msg.begin() + len);
    padded.push_back(0x80);
    while (padded.size() % 64 != 56) padded.push_back(0);
    for (int i = 7; i >= 0; --i) {
      padded.push_back(static_cast<std::uint8_t>((len * 8) >> (8 * i)));
    }
    Sha256State state = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                         0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
    sha256_compress_portable(state, padded.data(), padded.size() / 64);
    Digest expected;
    for (std::size_t i = 0; i < 32; ++i) {
      expected[i] =
          static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
    }
    const std::span<const std::uint8_t> whole(msg.data(), len);
    ASSERT_EQ(Sha256::hash(whole), expected) << "length " << len;
    for (std::size_t piece : {1u, 7u, 64u}) {
      Sha256 ctx;
      for (std::size_t at = 0; at < len; at += piece) {
        ctx.update(whole.subspan(at, std::min(piece, len - at)));
      }
      ASSERT_EQ(ctx.finalize(), expected)
          << "length " << len << " in pieces of " << piece;
    }
  }
}

// One key object, used twice per message, gives the RFC 4231 MACs (cases
// 1-4, 6 and 7; the one-block key is checked against Python's hmac) and
// what hmac_sha256 gives, for keys shorter than, exactly and longer than one
// block.
TEST(HmacSha256, KeyObjectMatchesRfc4231AndOneShot) {
  std::vector<std::uint8_t> key25(25);  // 0x01..0x19
  for (std::size_t i = 0; i < key25.size(); ++i) {
    key25[i] = static_cast<std::uint8_t>(i + 1);
  }
  std::vector<std::uint8_t> key64(64);  // 0x00..0x3f, exactly one block
  for (std::size_t i = 0; i < key64.size(); ++i) {
    key64[i] = static_cast<std::uint8_t>(i);
  }
  struct Case {
    std::vector<std::uint8_t> key;
    std::vector<std::string> msgs;
    std::vector<std::string> macs;
  };
  const std::vector<Case> cases = {
      {std::vector<std::uint8_t>(20, 0x0b),
       {"Hi There"},
       {"b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"}},
      {{'J', 'e', 'f', 'e'},
       {"what do ya want for nothing?"},
       {"5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"}},
      {std::vector<std::uint8_t>(20, 0xaa),
       {std::string(50, '\xdd')},
       {"773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"}},
      {key25,
       {std::string(50, '\xcd')},
       {"82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"}},
      {key64,
       {"one block of key"},
       {"7af2b6e161f891aa99691bb3deb2ce0b30d600ae91f877455fcf9031acd2cafb"}},
      {std::vector<std::uint8_t>(131, 0xaa),
       {"Test Using Larger Than Block-Size Key - Hash Key First",
        "This is a test using a larger than block-size key and a larger "
        "than block-size data. The key needs to be hashed before being "
        "used by the HMAC algorithm."},
       {"60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"}},
  };
  for (const Case& c : cases) {
    const HmacSha256Key key(c.key);
    for (int round = 0; round < 2; ++round) {
      for (std::size_t i = 0; i < c.msgs.size(); ++i) {
        EXPECT_EQ(to_hex(key.mac(c.msgs[i])), c.macs[i])
            << "key of " << c.key.size() << " bytes, message " << i;
        EXPECT_EQ(key.mac(c.msgs[i]), hmac_sha256(c.key, c.msgs[i]));
      }
    }
  }
}

}  // namespace
}  // namespace dla::crypto
