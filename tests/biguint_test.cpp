// Unit and property tests for the arbitrary-precision integer substrate.
#include "bignum/biguint.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <vector>

#include "crypto/rng.hpp"

namespace dla::bn {
namespace {

using crypto::ChaCha20Rng;

TEST(BigUInt, DefaultIsZero) {
  BigUInt v;
  EXPECT_TRUE(v.is_zero());
  EXPECT_EQ(v.bit_length(), 0u);
  EXPECT_EQ(v.to_hex(), "0");
  EXPECT_EQ(v.to_decimal(), "0");
}

TEST(BigUInt, FromU64RoundTrips) {
  BigUInt v(0xdeadbeefcafebabeull);
  EXPECT_EQ(v.to_hex(), "deadbeefcafebabe");
  EXPECT_EQ(v.low_u64(), 0xdeadbeefcafebabeull);
  EXPECT_TRUE(v.fits_u64());
}

TEST(BigUInt, HexRoundTrip) {
  const std::string hex = "1fffffffffffffffffffffffffffffffffffffffff";
  EXPECT_EQ(BigUInt::from_hex(hex).to_hex(), hex);
}

TEST(BigUInt, HexAccepts0xPrefixAndMixedCase) {
  EXPECT_EQ(BigUInt::from_hex("0xABCdef").to_hex(), "abcdef");
}

TEST(BigUInt, HexRejectsBadInput) {
  EXPECT_THROW(BigUInt::from_hex(""), std::invalid_argument);
  EXPECT_THROW(BigUInt::from_hex("xyz"), std::invalid_argument);
}

TEST(BigUInt, DecimalRoundTrip) {
  const std::string dec = "123456789012345678901234567890123456789";
  EXPECT_EQ(BigUInt::from_decimal(dec).to_decimal(), dec);
}

TEST(BigUInt, DecimalRejectsBadInput) {
  EXPECT_THROW(BigUInt::from_decimal(""), std::invalid_argument);
  EXPECT_THROW(BigUInt::from_decimal("12a3"), std::invalid_argument);
}

TEST(BigUInt, BytesRoundTrip) {
  BigUInt v = BigUInt::from_hex("0102030405060708090a0b0c0d0e0f10");
  auto bytes = v.to_bytes();
  EXPECT_EQ(bytes.size(), 16u);
  EXPECT_EQ(bytes.front(), 0x01);
  EXPECT_EQ(bytes.back(), 0x10);
  EXPECT_EQ(BigUInt::from_bytes(bytes), v);
}

TEST(BigUInt, BytesOfZeroIsEmpty) {
  EXPECT_TRUE(BigUInt{}.to_bytes().empty());
  EXPECT_TRUE(BigUInt::from_bytes({}).is_zero());
}

TEST(BigUInt, FromBytesMatchesHornerReference) {
  ChaCha20Rng rng(12);
  for (std::size_t len = 0; len <= 65; ++len) {
    for (std::size_t leading_zeros : {0u, 1u, 9u}) {
      std::vector<std::uint8_t> bytes(len);
      for (std::size_t i = 0; i < len; ++i) {
        bytes[i] = i < leading_zeros
                       ? 0
                       : static_cast<std::uint8_t>(rng.next_u64());
      }
      BigUInt horner;
      for (std::uint8_t b : bytes) horner = horner * BigUInt(256) + BigUInt(b);
      const BigUInt v = BigUInt::from_bytes(bytes);
      EXPECT_EQ(v, horner) << "len " << len << ", zeros " << leading_zeros;
      // Canonical: the top limb is nonzero, so equal values compare equal.
      EXPECT_EQ(v.limbs().size(), (v.bit_length() + 63) / 64);
    }
  }
}

TEST(BigUInt, Ordering) {
  BigUInt a = BigUInt::from_hex("ffffffffffffffff");           // 64 bits
  BigUInt b = BigUInt::from_hex("10000000000000000");          // 65 bits
  EXPECT_LT(a, b);
  EXPECT_GT(b, a);
  EXPECT_EQ(a, a);
  EXPECT_LE(a, a);
  EXPECT_LT(BigUInt{}, a);
}

TEST(BigUInt, AdditionCarriesAcrossLimbs) {
  BigUInt a = BigUInt::from_hex("ffffffffffffffffffffffffffffffff");
  BigUInt sum = a + BigUInt(1);
  EXPECT_EQ(sum.to_hex(), "100000000000000000000000000000000");
}

TEST(BigUInt, SubtractionBorrowsAcrossLimbs) {
  BigUInt a = BigUInt::from_hex("100000000000000000000000000000000");
  EXPECT_EQ((a - BigUInt(1)).to_hex(), "ffffffffffffffffffffffffffffffff");
}

TEST(BigUInt, SubtractionUnderflowThrows) {
  EXPECT_THROW(BigUInt(1) - BigUInt(2), std::underflow_error);
}

TEST(BigUInt, MultiplicationKnownValue) {
  // 2^128 - 1 squared.
  BigUInt a = BigUInt::from_hex("ffffffffffffffffffffffffffffffff");
  EXPECT_EQ((a * a).to_hex(),
            "fffffffffffffffffffffffffffffffe00000000000000000000000000000001");
}

TEST(BigUInt, MultiplyByZero) {
  BigUInt a = BigUInt::from_hex("123456789abcdef0");
  EXPECT_TRUE((a * BigUInt{}).is_zero());
  EXPECT_TRUE((BigUInt{} * a).is_zero());
}

TEST(BigUInt, ShiftLeftRightInverse) {
  BigUInt v = BigUInt::from_hex("123456789abcdef0123456789abcdef");
  for (std::size_t s : {1u, 7u, 63u, 64u, 65u, 130u}) {
    EXPECT_EQ(((v << s) >> s), v) << "shift " << s;
  }
}

TEST(BigUInt, ShiftRightDropsBits) {
  BigUInt v(0b1011);
  EXPECT_EQ((v >> 2).low_u64(), 0b10u);
  EXPECT_TRUE((v >> 10).is_zero());
}

TEST(BigUInt, DivModSingleLimb) {
  BigUInt v = BigUInt::from_decimal("123456789012345678901234567890");
  auto [q, r] = BigUInt::divmod(v, BigUInt(97));
  EXPECT_EQ(q * BigUInt(97) + r, v);
  EXPECT_LT(r, BigUInt(97));
}

TEST(BigUInt, DivModByZeroThrows) {
  EXPECT_THROW(BigUInt::divmod(BigUInt(1), BigUInt{}), std::domain_error);
  EXPECT_THROW(BigUInt(1) / BigUInt{}, std::domain_error);
  EXPECT_THROW(BigUInt(1) % BigUInt{}, std::domain_error);
}

TEST(BigUInt, DivModSmallerDividend) {
  auto [q, r] = BigUInt::divmod(BigUInt(5), BigUInt(7));
  EXPECT_TRUE(q.is_zero());
  EXPECT_EQ(r, BigUInt(5));
}

TEST(BigUInt, DivModEqualOperands) {
  BigUInt v = BigUInt::from_hex("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa");
  auto [q, r] = BigUInt::divmod(v, v);
  EXPECT_EQ(q, BigUInt(1));
  EXPECT_TRUE(r.is_zero());
}

// Property: for random a, b: a == (a/b)*b + a%b and a%b < b.
TEST(BigUInt, DivModInvariantRandomised) {
  ChaCha20Rng rng(1234);
  for (int i = 0; i < 200; ++i) {
    BigUInt a = BigUInt::random_bits(rng, 1 + rng.next_below(512));
    BigUInt b = BigUInt::random_bits(rng, 1 + rng.next_below(256));
    auto [q, r] = BigUInt::divmod(a, b);
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(r, b);
  }
}

// The Knuth-D "add back" branch fires with probability ~2/2^64 on random
// inputs; construct a case that forces the first qhat estimate too high.
TEST(BigUInt, DivModHardCases) {
  // Dividend chosen so top limbs are all ones against a divisor just above
  // a power of two — classic qhat-overestimate shape.
  BigUInt a = BigUInt::from_hex(
      "ffffffffffffffffffffffffffffffff00000000000000000000000000000000");
  BigUInt b = BigUInt::from_hex("ffffffffffffffff0000000000000001");
  auto [q, r] = BigUInt::divmod(a, b);
  EXPECT_EQ(q * b + r, a);
  EXPECT_LT(r, b);

  BigUInt c = BigUInt::from_hex("80000000000000000000000000000000"
                                "00000000000000000000000000000000");
  BigUInt d = BigUInt::from_hex("80000000000000000000000000000001");
  auto [q2, r2] = BigUInt::divmod(c, d);
  EXPECT_EQ(q2 * d + r2, c);
  EXPECT_LT(r2, d);
}

TEST(BigUInt, ModExpSmallKnownValues) {
  // 3^4 mod 5 = 1; 2^10 mod 1000 = 24.
  EXPECT_EQ(BigUInt::modexp(BigUInt(3), BigUInt(4), BigUInt(5)), BigUInt(1));
  EXPECT_EQ(BigUInt::modexp(BigUInt(2), BigUInt(10), BigUInt(1000)),
            BigUInt(24));
}

TEST(BigUInt, ModExpEdgeCases) {
  EXPECT_TRUE(BigUInt::modexp(BigUInt(5), BigUInt(3), BigUInt(1)).is_zero());
  EXPECT_EQ(BigUInt::modexp(BigUInt(5), BigUInt{}, BigUInt(7)), BigUInt(1));
  EXPECT_TRUE(BigUInt::modexp(BigUInt{}, BigUInt(5), BigUInt(7)).is_zero());
  EXPECT_THROW(BigUInt::modexp(BigUInt(2), BigUInt(2), BigUInt{}),
               std::domain_error);
}

// Property: Fermat's little theorem a^(p-1) = 1 mod p for prime p, a != 0.
TEST(BigUInt, ModExpFermat) {
  const BigUInt p = BigUInt::from_hex("dc202a2e41eb3f8b");  // 64-bit safe prime
  ChaCha20Rng rng(99);
  for (int i = 0; i < 50; ++i) {
    BigUInt a = BigUInt::random_below(rng, p - BigUInt(1)) + BigUInt(1);
    EXPECT_EQ(BigUInt::modexp(a, p - BigUInt(1), p), BigUInt(1));
  }
}

TEST(BigUInt, GcdKnownValues) {
  EXPECT_EQ(BigUInt::gcd(BigUInt(48), BigUInt(18)), BigUInt(6));
  EXPECT_EQ(BigUInt::gcd(BigUInt(17), BigUInt(5)), BigUInt(1));
  EXPECT_EQ(BigUInt::gcd(BigUInt{}, BigUInt(7)), BigUInt(7));
  EXPECT_EQ(BigUInt::gcd(BigUInt(7), BigUInt{}), BigUInt(7));
}

TEST(BigUInt, ModInvRoundTrip) {
  ChaCha20Rng rng(5);
  const BigUInt p = BigUInt::from_hex(
      "b253d0f212cac9fb474dbafa53e183bf");  // 128-bit prime
  for (int i = 0; i < 50; ++i) {
    BigUInt a = BigUInt::random_below(rng, p - BigUInt(1)) + BigUInt(1);
    auto inv = BigUInt::modinv(a, p);
    ASSERT_TRUE(inv.has_value());
    EXPECT_EQ(BigUInt::mulmod(a, *inv, p), BigUInt(1));
  }
}

TEST(BigUInt, ModInvNonCoprimeFails) {
  EXPECT_FALSE(BigUInt::modinv(BigUInt(6), BigUInt(9)).has_value());
  EXPECT_FALSE(BigUInt::modinv(BigUInt{}, BigUInt(9)).has_value());
}

// Extended Euclid on whole BigUInts, one divmod per quotient and the signed
// cofactor of a as (magnitude, sign): the plain algorithm the word-level
// modinv must agree with on every input.
std::optional<BigUInt> euclid_modinv_reference(const BigUInt& a,
                                               const BigUInt& m) {
  BigUInt r0 = a % m, r1 = m;
  BigUInt s0(1), s1;
  bool s0_neg = false, s1_neg = false;
  while (!r1.is_zero()) {
    auto [q, r2] = BigUInt::divmod(r0, r1);
    // s2 = s0 - q * s1
    BigUInt qs1 = q * s1;
    BigUInt s2;
    bool s2_neg;
    if (s0_neg == s1_neg) {
      if (s0 >= qs1) {
        s2 = s0 - qs1;
        s2_neg = s0_neg;
      } else {
        s2 = qs1 - s0;
        s2_neg = !s0_neg;
      }
    } else {
      s2 = s0 + qs1;
      s2_neg = s0_neg;
    }
    r0 = std::move(r1);
    r1 = std::move(r2);
    s0 = std::move(s1);
    s0_neg = s1_neg;
    s1 = std::move(s2);
    s1_neg = s2_neg;
  }
  if (r0 != BigUInt(1)) return std::nullopt;
  BigUInt inv = s0 % m;
  if (s0_neg && !inv.is_zero()) inv = m - inv;
  return inv;
}

TEST(BigUInt, ModInvMatchesEuclidReference) {
  ChaCha20Rng rng(19);
  const BigUInt ph_p = BigUInt::from_hex(
      "dc9db496edbc0c1c97972e233e1a191fdb56a14df65a307ca1cea9ebe0fb9b93");
  const BigUInt p128 = BigUInt::from_hex("b253d0f212cac9fb474dbafa53e183bf");
  const BigUInt one(1);
  std::vector<BigUInt> moduli = {
      BigUInt(1), BigUInt(2), BigUInt(3),
      ph_p - one,                        // fixed256's p - 1 = 2q
      (ph_p - one) >> 1,                 // q, the Lagrange modulus
      (ph_p - one) * (p128 - one),       // RSA-style (p - 1)(q - 1)
  };
  for (std::size_t k : {1u, 2u, 8u, 63u, 64u, 65u, 128u, 256u, 512u, 1024u,
                        1099u}) {
    moduli.push_back(one << k);
  }
  for (std::size_t bits : {5u, 63u, 64u, 100u, 128u, 192u, 256u, 257u, 512u,
                           700u, 1024u, 1100u}) {
    BigUInt m = BigUInt::random_bits(rng, bits);
    moduli.push_back(m.is_odd() ? m : m + one);  // odd
    moduli.push_back(m.is_odd() ? m - one : m);  // even
  }
  std::size_t checked = 0, invertible = 0;
  auto check = [&](const BigUInt& a, const BigUInt& m) {
    const auto got = BigUInt::modinv(a, m);
    EXPECT_EQ(got, euclid_modinv_reference(a, m))
        << a.to_hex() << " mod " << m.to_hex();
    ++checked;
    if (got.has_value()) ++invertible;
  };
  for (const BigUInt& m : moduli) {
    const std::size_t bits = m.bit_length();
    std::vector<BigUInt> inputs = {BigUInt{}, one, m - one, m, m + one,
                                   m + m, BigUInt(2), BigUInt(65537)};
    for (std::size_t extra : {1u, 64u, 130u}) {
      inputs.push_back(BigUInt::random_bits(rng, bits + extra));
    }
    for (int i = 0; i < 8; ++i) inputs.push_back(BigUInt::random_below(rng, m));
    for (const BigUInt& a : inputs) check(a, m);
    // gcd 2, gcd 3 with both operands odd, and a large shared factor.
    const BigUInt f = BigUInt::random_bits(rng, 1 + bits / 2);
    check(BigUInt(2) * BigUInt::random_bits(rng, bits), BigUInt(2) * m);
    check(BigUInt(3) * (BigUInt::random_bits(rng, bits) * BigUInt(2) + one),
          BigUInt(3) * (m.is_odd() ? m : m + one));
    check(f * BigUInt::random_bits(rng, bits), f * m);
  }
  // Consecutive Fibonacci numbers: the longest runs of quotient 1.
  BigUInt f0(1), f1(2);
  for (int i = 0; i < 1500; ++i) {
    BigUInt f2 = f0 + f1;
    f0 = std::move(f1);
    f1 = std::move(f2);
    if (i % 50 == 0) check(f0, f1);
  }
  EXPECT_GT(invertible, checked / 4);
}

TEST(BigUInt, RandomBitsHasExactWidth) {
  ChaCha20Rng rng(77);
  for (std::size_t bits : {1u, 2u, 63u, 64u, 65u, 127u, 256u, 1000u}) {
    BigUInt v = BigUInt::random_bits(rng, bits);
    EXPECT_EQ(v.bit_length(), bits);
  }
}

TEST(BigUInt, RandomBelowStaysBelow) {
  ChaCha20Rng rng(88);
  BigUInt bound = BigUInt::from_hex("10000000000000001");
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(BigUInt::random_below(rng, bound), bound);
  }
  EXPECT_THROW(BigUInt::random_below(rng, BigUInt{}), std::domain_error);
}

TEST(BigUInt, BitAccess) {
  BigUInt v = BigUInt::from_hex("8000000000000001");
  EXPECT_TRUE(v.bit(0));
  EXPECT_FALSE(v.bit(1));
  EXPECT_TRUE(v.bit(63));
  EXPECT_FALSE(v.bit(64));
  EXPECT_FALSE(v.bit(10000));
}

TEST(BigUInt, MulModMatchesManual) {
  BigUInt a = BigUInt::from_hex("ffffffffffffffffffffffff");
  BigUInt b = BigUInt::from_hex("eeeeeeeeeeeeeeeeeeeeeeee");
  BigUInt m = BigUInt::from_hex("fffffffffffffffffffffff1");
  EXPECT_EQ(BigUInt::mulmod(a, b, m), (a * b) % m);
}

TEST(BigUInt, StreamOutputIsDecimal) {
  std::ostringstream os;
  os << BigUInt::from_decimal("340282366920938463463374607431768211455");
  EXPECT_EQ(os.str(), "340282366920938463463374607431768211455");
  std::ostringstream zero;
  zero << BigUInt{};
  EXPECT_EQ(zero.str(), "0");
}

// Property: algebraic identities on random operands.
class BigUIntAlgebraTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BigUIntAlgebraTest, RingAxiomsHold) {
  ChaCha20Rng rng(GetParam());
  BigUInt a = BigUInt::random_bits(rng, 200);
  BigUInt b = BigUInt::random_bits(rng, 180);
  BigUInt c = BigUInt::random_bits(rng, 160);
  EXPECT_EQ(a + b, b + a);
  EXPECT_EQ(a * b, b * a);
  EXPECT_EQ((a + b) + c, a + (b + c));
  EXPECT_EQ((a * b) * c, a * (b * c));
  EXPECT_EQ(a * (b + c), a * b + a * c);
  EXPECT_EQ((a + b) - b, a);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigUIntAlgebraTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace dla::bn
