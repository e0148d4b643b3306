// The 8-lane AVX-512 IFMA kernel behind ModExpEngine::pow_batch: for every
// 52-bit limb count K = 1..10, batches of 2..17, 63, 64 and 65 bases must
// equal the scalar ModExpEngine::pow and the generic BigUInt::modexp on
// every element, with 0, 1, m-1, m, m+7 and m/3 among the bases. On a CPU
// without AVX-512F + IFMA the same batches run the scalar kernel, and the
// test that asserts the lane path is skipped.
#include <gtest/gtest.h>

#include <vector>

#include "bignum/biguint.hpp"
#include "bignum/montgomery.hpp"
#include "crypto/modexp_engine.hpp"
#include "crypto/pohlig_hellman.hpp"
#include "crypto/rng.hpp"

namespace dla::crypto {
namespace {

bool cpu_has_ifma() {
#if defined(__x86_64__)
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512ifma");
#else
  return false;
#endif
}

TEST(ModExpLanes, ContextUsesLanesOnIfmaCpu) {
  if (!cpu_has_ifma()) {
    GTEST_SKIP() << "CPU lacks AVX-512F + IFMA: pow_batch runs the scalar "
                    "kernel only";
  }
  EXPECT_EQ(bn::MontgomeryContext(PhDomain::fixed256().p).lane_limbs(), 5u);
  // 518 bits is the widest modulus ten 52-bit limbs take (R > 4m).
  const bn::BigUInt widest = (bn::BigUInt(1) << 518) - bn::BigUInt(1);
  EXPECT_EQ(bn::MontgomeryContext(widest).lane_limbs(), 10u);
  const bn::BigUInt wider = (bn::BigUInt(1) << 519) - bn::BigUInt(1);
  EXPECT_EQ(bn::MontgomeryContext(wider).lane_limbs(), 0u);
}

struct ModExpLanesTest : ::testing::TestWithParam<std::size_t> {
  // One pool chunk, so a batch splits into lane groups of eight plus a
  // lone scalar base exactly as its size says.
  void SetUp() override { ModExpEngine::set_batch_threads(1); }
  void TearDown() override { ModExpEngine::set_batch_threads(0); }
};

TEST_P(ModExpLanesTest, BatchEqualsPowAndModexp) {
  const std::size_t k = GetParam();
  ChaCha20Rng rng("modexp-lanes/" + std::to_string(k));
  // The widest modulus K limbs take, and a random odd one of K limbs that
  // 9 divides, so that the base m/3 squares to 0 mod m: its lanes then
  // reach m itself, which only the final canonical step maps to 0.
  const std::size_t widest_bits = 52 * k - 2;
  const std::size_t low_bits = k == 1 ? 8 : 52 * (k - 1);
  const std::size_t bits =
      low_bits + rng.next_below(widest_bits - low_bits + 1);
  bn::BigUInt odd = bn::BigUInt::random_bits(rng, bits - 4);
  if (odd.is_even()) odd += bn::BigUInt(1);
  const std::vector<bn::BigUInt> moduli = {
      (bn::BigUInt(1) << widest_bits) - bn::BigUInt(1), bn::BigUInt(9) * odd};
  for (const bn::BigUInt& m : moduli) {
    auto ctx = std::make_shared<const bn::MontgomeryContext>(m);
    if (cpu_has_ifma()) {
      EXPECT_EQ(ctx->lane_limbs(), k);
    }
    const std::vector<bn::BigUInt> specials = {
        bn::BigUInt(0), bn::BigUInt(1), m - bn::BigUInt(1), m,
        m + bn::BigUInt(7), m / bn::BigUInt(3)};
    std::vector<bn::BigUInt> bases;
    for (std::size_t i = 0; i < 65; ++i) {
      bases.push_back(bn::BigUInt::random_below(rng, m));
    }
    // In the first groups, as the lone base of 9 and 17, and at the end.
    const std::size_t spots[] = {1, 4, 7, 8, 10, 16, 59, 60, 61, 62, 63, 64};
    for (std::size_t s = 0; s < std::size(spots); ++s) {
      bases[spots[s]] = specials[s % specials.size()];
    }
    const std::vector<bn::BigUInt> exponents = {
        bn::BigUInt(0), bn::BigUInt(1), bn::BigUInt(2),
        bn::BigUInt(1) << 64, m - bn::BigUInt(1),
        bn::BigUInt::random_below(rng, m)};
    for (const bn::BigUInt& e : exponents) {
      const ModExpEngine engine(ctx, e);
      std::vector<bn::BigUInt> expected;
      for (const bn::BigUInt& b : bases) {
        expected.push_back(bn::BigUInt::modexp(b, e, m));
        ASSERT_EQ(engine.pow(b), expected.back())
            << "m " << m.to_hex() << " e " << e.to_hex() << " b "
            << b.to_hex();
      }
      std::vector<std::size_t> counts;
      for (std::size_t c = 2; c <= 17; ++c) counts.push_back(c);
      counts.insert(counts.end(), {63, 64, 65});
      for (std::size_t count : counts) {
        std::vector<bn::BigUInt> batch(bases.begin(), bases.begin() + count);
        engine.pow_batch(batch);
        EXPECT_EQ(batch, std::vector<bn::BigUInt>(expected.begin(),
                                                  expected.begin() + count))
            << "m " << m.to_hex() << " e " << e.to_hex() << " count "
            << count;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(LimbCounts, ModExpLanesTest,
                         ::testing::Range<std::size_t>(1, 11));

}  // namespace
}  // namespace dla::crypto
