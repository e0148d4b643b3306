// Fixture: raw Montgomery kernel usage outside src/crypto + src/bignum.
// (Fixture files are linted, never compiled.)
#include "bignum/montgomery.hpp"  // EXPECT(crypto-boundary)

unsigned long raw_math(unsigned long b, unsigned long e, unsigned long n,
                       unsigned long* acc, unsigned long* scratch) {
  bn::MontgomeryContext ctx(n);  // EXPECT(crypto-boundary)
  ctx.mont_mul_raw(acc, acc, acc, scratch);  // EXPECT(crypto-boundary)
  ctx.mont_sqr_raw(acc, acc, scratch);  // EXPECT(crypto-boundary)
  ctx.lane_mul_raw(acc, acc, acc, 2);  // EXPECT(crypto-boundary)
  ctx.lane_sqr_raw(acc, acc, 2);  // EXPECT(crypto-boundary)
  return modpow(b, e, n);  // EXPECT(crypto-boundary)
}
