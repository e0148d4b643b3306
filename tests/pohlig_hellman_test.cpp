// Tests for the commutative cipher — the heart of the paper's secure set
// protocols (Section 3, Eqs. 6-7; Figure 4).
#include "crypto/pohlig_hellman.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "bignum/prime.hpp"

namespace dla::crypto {
namespace {

TEST(PohligHellman, Fixed256DomainIsSafePrime) {
  ChaCha20Rng rng(1);
  PhDomain d = PhDomain::fixed256();
  EXPECT_EQ(d.p.bit_length(), 256u);
  EXPECT_TRUE(bn::is_probable_prime(d.p, rng));
}

TEST(PohligHellman, EncryptDecryptRoundTrip) {
  PhDomain domain = PhDomain::fixed256();
  ChaCha20Rng rng(2);
  PhKey key = PhKey::generate(domain, rng);
  for (int i = 0; i < 20; ++i) {
    bn::BigUInt m =
        bn::BigUInt::random_below(rng, domain.p - bn::BigUInt(1)) + bn::BigUInt(1);
    EXPECT_EQ(key.decrypt(key.encrypt(m)), m);
  }
}

// Every session key of a seeded run, and so every ciphertext and trace
// digest, follows from PhKey::generate's draws and rejection loop. The first
// three keys of seed 1 are pinned. PhKey keeps e and d private, so they are
// read through 2, a generator of Z_p* (2^q = -1 mod p): 2^x mod p fixes x
// mod p - 1, and both exponents lie below p - 1.
TEST(PohligHellman, GeneratedKeysArePinned) {
  const PhDomain domain = PhDomain::fixed256();
  const bn::BigUInt p_minus_1 = domain.p - bn::BigUInt(1);
  const bn::BigUInt two(2);
  ASSERT_EQ(bn::BigUInt::modexp(two, p_minus_1 >> 1, domain.p), p_minus_1);
  const struct {
    const char* e;
    const char* d;
  } pinned[] = {
      {"9827ac84cd81f29308d68b5fa219f334bf2b26a591c5592d91098c4e6d1d3b7",
       "3ed8632a1c437a2ad40c6196050c64d90740b66f79eac405e6379a28bb63ef71"},
      {"c00071b2b16ace70604e009e867e9d398b4cb9e0c316a028c5eb1b6cd461747",
       "44fe2f49199f8d90654f54174ded9d5da56c8d0992dc42ea123d181199693a1d"},
      {"841f7b923349a017a6129e4390529318c633b4ba3ffe2449b1fb3797a93bec53",
       "8cea5cfcb0a59213454d474a790c966fa5fc5fbdd462e493a454e97c858b1ac7"},
  };
  ChaCha20Rng rng(1);
  for (const auto& [e_hex, d_hex] : pinned) {
    const bn::BigUInt e = bn::BigUInt::from_hex(e_hex);
    const bn::BigUInt d = bn::BigUInt::from_hex(d_hex);
    EXPECT_EQ(bn::BigUInt::mulmod(e, d, p_minus_1), bn::BigUInt(1));
    const PhKey key = PhKey::generate(domain, rng);
    EXPECT_EQ(key.encrypt(two), bn::BigUInt::modexp(two, e, domain.p)) << e_hex;
    EXPECT_EQ(key.decrypt(two), bn::BigUInt::modexp(two, d, domain.p)) << d_hex;
  }
}

TEST(PohligHellman, RejectsOutOfRangePlaintext) {
  PhDomain domain = PhDomain::fixed256();
  ChaCha20Rng rng(3);
  PhKey key = PhKey::generate(domain, rng);
  EXPECT_THROW(key.encrypt(bn::BigUInt{}), std::invalid_argument);
  EXPECT_THROW(key.encrypt(domain.p), std::invalid_argument);
  EXPECT_THROW(key.decrypt(domain.p + bn::BigUInt(1)), std::invalid_argument);
}

// Eq. (6) of the paper: encryption by any permutation of keys is identical.
TEST(PohligHellman, CommutativityTwoKeys) {
  PhDomain domain = PhDomain::fixed256();
  ChaCha20Rng rng(4);
  PhKey a = PhKey::generate(domain, rng);
  PhKey b = PhKey::generate(domain, rng);
  bn::BigUInt m = encode_element(domain, "transaction T1100265");
  EXPECT_EQ(a.encrypt(b.encrypt(m)), b.encrypt(a.encrypt(m)));
}

TEST(PohligHellman, CommutativityManyKeysAllPermutations) {
  PhDomain domain = PhDomain::fixed256();
  ChaCha20Rng rng(5);
  std::vector<PhKey> keys;
  for (int i = 0; i < 4; ++i) keys.push_back(PhKey::generate(domain, rng));
  bn::BigUInt m = encode_element(domain, "glsn 139aef78");

  std::vector<std::size_t> order = {0, 1, 2, 3};
  bn::BigUInt reference;
  bool first = true;
  do {
    bn::BigUInt c = m;
    for (std::size_t idx : order) c = keys[idx].encrypt(c);
    if (first) {
      reference = c;
      first = false;
    } else {
      EXPECT_EQ(c, reference);
    }
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(PohligHellman, DecryptionInAnyOrder) {
  PhDomain domain = PhDomain::fixed256();
  ChaCha20Rng rng(6);
  PhKey a = PhKey::generate(domain, rng);
  PhKey b = PhKey::generate(domain, rng);
  PhKey c = PhKey::generate(domain, rng);
  bn::BigUInt m = encode_element(domain, "event e");
  bn::BigUInt ct = c.encrypt(a.encrypt(b.encrypt(m)));
  // Strip keys in an order unrelated to application order.
  EXPECT_EQ(b.decrypt(c.decrypt(a.decrypt(ct))), m);
}

// Eq. (7): distinct plaintexts collide under multi-key encryption only with
// negligible probability — here, never, since x -> x^e is a bijection.
TEST(PohligHellman, DistinctPlaintextsStayDistinct) {
  PhDomain domain = PhDomain::fixed256();
  ChaCha20Rng rng(7);
  PhKey a = PhKey::generate(domain, rng);
  PhKey b = PhKey::generate(domain, rng);
  std::vector<bn::BigUInt> cts;
  for (int i = 0; i < 32; ++i) {
    bn::BigUInt m = encode_element(domain, "item-" + std::to_string(i));
    cts.push_back(a.encrypt(b.encrypt(m)));
  }
  std::sort(cts.begin(), cts.end());
  EXPECT_EQ(std::adjacent_find(cts.begin(), cts.end()), cts.end());
}

TEST(PohligHellman, EqualPlaintextsMatchUnderSameKeySets) {
  // The secure-set-intersection matching property of Figure 4:
  // E_a(E_b(m)) == E_b(E_a(m)) for the common element regardless of route.
  PhDomain domain = PhDomain::fixed256();
  ChaCha20Rng rng(8);
  PhKey p1 = PhKey::generate(domain, rng);
  PhKey p2 = PhKey::generate(domain, rng);
  PhKey p3 = PhKey::generate(domain, rng);
  bn::BigUInt e = encode_element(domain, "e");
  bn::BigUInt route132 = p2.encrypt(p3.encrypt(p1.encrypt(e)));
  bn::BigUInt route321 = p1.encrypt(p2.encrypt(p3.encrypt(e)));
  bn::BigUInt route213 = p3.encrypt(p1.encrypt(p2.encrypt(e)));
  EXPECT_EQ(route132, route321);
  EXPECT_EQ(route321, route213);
}

TEST(PohligHellman, EncodeElementInRangeAndDeterministic) {
  PhDomain domain = PhDomain::fixed256();
  bn::BigUInt a1 = encode_element(domain, "alpha");
  bn::BigUInt a2 = encode_element(domain, "alpha");
  bn::BigUInt b = encode_element(domain, "beta");
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
  EXPECT_FALSE(a1.is_zero());
  EXPECT_LT(a1, domain.p);
}

TEST(PohligHellman, GeneratedDomainRoundTrips) {
  ChaCha20Rng rng(9);
  PhDomain domain = PhDomain::generate(rng, 64);  // small for test speed
  EXPECT_TRUE(bn::is_probable_prime(domain.p, rng, 16));
  PhKey key = PhKey::generate(domain, rng);
  bn::BigUInt m = encode_element(domain, "round trip");
  EXPECT_EQ(key.decrypt(key.encrypt(m)), m);
}

class PhPermutationTest : public ::testing::TestWithParam<int> {};

// Parameterised sweep: ciphertext equality across shuffled key orders for
// varying party counts (the n-node ring of Section 3.1).
TEST_P(PhPermutationTest, RingOrderIndependence) {
  const int n = GetParam();
  PhDomain domain = PhDomain::fixed256();
  ChaCha20Rng rng(100 + n);
  std::vector<PhKey> keys;
  keys.reserve(n);
  for (int i = 0; i < n; ++i) keys.push_back(PhKey::generate(domain, rng));
  bn::BigUInt m = encode_element(domain, "common");
  bn::BigUInt forward = m, backward = m;
  for (int i = 0; i < n; ++i) forward = keys[i].encrypt(forward);
  for (int i = n; i-- > 0;) backward = keys[i].encrypt(backward);
  EXPECT_EQ(forward, backward);
}

INSTANTIATE_TEST_SUITE_P(PartyCounts, PhPermutationTest,
                         ::testing::Values(2, 3, 5, 8, 13));

}  // namespace
}  // namespace dla::crypto
