// Tests for Montgomery-form arithmetic against the generic BigUInt path.
#include "bignum/montgomery.hpp"

#include <gtest/gtest.h>

#include "bignum/prime.hpp"
#include "crypto/rng.hpp"

namespace dla::bn {
namespace {

using crypto::ChaCha20Rng;

BigUInt prime256() {
  return BigUInt::from_hex(
      "dc9db496edbc0c1c97972e233e1a191fdb56a14df65a307ca1cea9ebe0fb9b93");
}

TEST(Montgomery, RejectsBadModulus) {
  EXPECT_THROW(MontgomeryContext(BigUInt(10)), std::invalid_argument);
  EXPECT_THROW(MontgomeryContext(BigUInt(1)), std::invalid_argument);
  EXPECT_THROW(MontgomeryContext(BigUInt{}), std::invalid_argument);
}

TEST(Montgomery, MulModSmallKnownValues) {
  MontgomeryContext ctx(BigUInt(97));
  EXPECT_EQ(ctx.mulmod(BigUInt(12), BigUInt(34)), BigUInt((12 * 34) % 97));
  EXPECT_EQ(ctx.mulmod(BigUInt{}, BigUInt(34)), BigUInt{});
  EXPECT_EQ(ctx.mulmod(BigUInt(96), BigUInt(96)), BigUInt((96 * 96) % 97));
}

TEST(Montgomery, MulModMatchesGenericRandomised) {
  MontgomeryContext ctx(prime256());
  ChaCha20Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    BigUInt a = BigUInt::random_below(rng, prime256());
    BigUInt b = BigUInt::random_below(rng, prime256());
    EXPECT_EQ(ctx.mulmod(a, b), BigUInt::mulmod(a, b, prime256()));
  }
}

TEST(Montgomery, PowMatchesGenericRandomised) {
  MontgomeryContext ctx(prime256());
  ChaCha20Rng rng(2);
  for (int i = 0; i < 25; ++i) {
    BigUInt base = BigUInt::random_below(rng, prime256());
    BigUInt exp = BigUInt::random_bits(rng, 1 + rng.next_below(256));
    EXPECT_EQ(ctx.pow(base, exp), BigUInt::modexp(base, exp, prime256()));
  }
}

TEST(Montgomery, PowEdgeCases) {
  MontgomeryContext ctx(prime256());
  EXPECT_EQ(ctx.pow(BigUInt(5), BigUInt{}), BigUInt(1));
  EXPECT_EQ(ctx.pow(BigUInt{}, BigUInt(5)), BigUInt{});
  EXPECT_EQ(ctx.pow(BigUInt(5), BigUInt(1)), BigUInt(5));
  // Base larger than the modulus is reduced first.
  BigUInt big_base = prime256() + BigUInt(7);
  EXPECT_EQ(ctx.pow(big_base, BigUInt(3)),
            BigUInt::modexp(BigUInt(7), BigUInt(3), prime256()));
}

TEST(Montgomery, FermatHolds) {
  MontgomeryContext ctx(prime256());
  ChaCha20Rng rng(3);
  BigUInt p_minus_1 = prime256() - BigUInt(1);
  for (int i = 0; i < 10; ++i) {
    BigUInt a =
        BigUInt::random_below(rng, p_minus_1 - BigUInt(1)) + BigUInt(1);
    EXPECT_EQ(ctx.pow(a, p_minus_1), BigUInt(1));
  }
}

TEST(Montgomery, WorksAcrossModulusWidths) {
  ChaCha20Rng rng(4);
  for (std::size_t bits : {17u, 64u, 65u, 128u, 192u, 384u, 512u, 576u,
                           1024u}) {
    BigUInt m = generate_prime(rng, bits, 12);
    MontgomeryContext ctx(m);
    for (int i = 0; i < 8; ++i) {
      BigUInt a = BigUInt::random_below(rng, m);
      BigUInt e = BigUInt::random_bits(rng, 1 + rng.next_below(bits));
      ASSERT_EQ(ctx.pow(a, e), BigUInt::modexp(a, e, m))
          << bits << "-bit modulus";
    }
  }
}

// The raw kernels at every limb count, both the fixed-width ones (1..8
// limbs) and the run-time-width one (9 and 10), against BigUInt::mulmod. Each
// modulus is either all ones (m = R - 1) or a random odd value whose top bit
// is clear. A raw result `out` must be fully reduced and satisfy
// out * R == expected (mod m).
TEST(Montgomery, RawKernelsMatchGenericAtEveryLimbCount) {
  using Limbs = MontgomeryContext::Limbs;
  ChaCha20Rng rng(6);
  for (std::size_t k = 1; k <= 10; ++k) {
    const BigUInt r = BigUInt(1) << (64 * k);
    BigUInt odd = BigUInt::random_bits(rng, 64 * k - 1);
    if (odd.is_even()) odd += BigUInt(1);
    for (const BigUInt& m : {r - BigUInt(1), odd}) {
      MontgomeryContext ctx(m);
      ASSERT_EQ(ctx.limb_count(), k);
      const BigUInt r_mod = r % m;
      auto raw = [k](const BigUInt& v) {
        Limbs limbs = v.limbs();
        limbs.resize(k, 0);
        return limbs;
      };
      auto check = [&](const Limbs& out, const BigUInt& expected,
                       const char* what) {
        const BigUInt v = BigUInt::from_limbs(out);
        EXPECT_LT(v, m) << what << ", " << k << " limbs";
        EXPECT_EQ(BigUInt::mulmod(v, r_mod, m), expected)
            << what << ", " << k << " limbs, m = " << m.to_hex();
      };
      std::vector<BigUInt> values = {BigUInt{}, BigUInt(1), m - BigUInt(1)};
      for (int i = 0; i < 5; ++i) {
        values.push_back(BigUInt::random_below(rng, m));
      }
      std::vector<std::uint64_t> scratch(ctx.scratch_limbs());
      for (const BigUInt& a : values) {
        for (const BigUInt& b : values) {
          const BigUInt ab = BigUInt::mulmod(a, b, m);
          Limbs x = raw(a);
          Limbs y = raw(b);
          ctx.mont_mul_raw(x.data(), y.data(), x.data(), scratch.data());
          check(x, ab, "mul, out aliases a");
          x = raw(a);
          ctx.mont_mul_raw(x.data(), y.data(), y.data(), scratch.data());
          check(y, ab, "mul, out aliases b");
        }
        Limbs x = raw(a);
        ctx.mont_sqr_raw(x.data(), x.data(), scratch.data());
        check(x, BigUInt::mulmod(a, a, m), "sqr");
        x = raw(a);
        ctx.redc_raw(x.data(), x.data(), scratch.data());
        check(x, a, "redc");
        EXPECT_EQ(BigUInt::from_limbs(ctx.to_mont(a)),
                  BigUInt::mulmod(a, r_mod, m));
        EXPECT_EQ(ctx.from_mont(ctx.to_mont(a)), a);
      }
    }
  }
}

TEST(Montgomery, RsaStyleCompositeModulus) {
  // Works for any odd modulus, not only primes (accumulator / RSA use).
  BigUInt n = BigUInt::from_hex(
      "c7bea52f7ecdea46eaa073a2196b308db3041eb80decb72ed82bcae1108e1d37");
  MontgomeryContext ctx(n);
  ChaCha20Rng rng(5);
  for (int i = 0; i < 10; ++i) {
    BigUInt a = BigUInt::random_below(rng, n);
    BigUInt e = BigUInt::random_bits(rng, 128);
    EXPECT_EQ(ctx.pow(a, e), BigUInt::modexp(a, e, n));
  }
}

}  // namespace
}  // namespace dla::bn
