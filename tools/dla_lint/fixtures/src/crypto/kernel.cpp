// Fixture: the crypto layer itself may touch raw kernels, and the
// protocol-scoped determinism rules do not apply here.
#include "bignum/montgomery.hpp"

#include <unordered_set>

unsigned long crypto_ok(unsigned long x, unsigned long e, unsigned long n,
                        unsigned long* acc, unsigned long* scratch) {
  bn::MontgomeryContext ctx(n);
  ctx.mont_sqr_raw(acc, acc, scratch);
  ctx.lane_mul_raw(acc, acc, acc, 2);
  ctx.lane_sqr_raw(acc, acc, 2);
  std::unordered_set<unsigned long> seen;
  seen.insert(x);
  return modpow(x, e, n) + seen.size();
}
