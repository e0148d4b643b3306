// The 8-lane AVX-512 IFMA kernels behind ModExpEngine::pow_batch: for every
// 52-bit limb count K = 1..10, batches of 2..33, 63, 64 and 65 bases must
// equal the scalar ModExpEngine::pow and the generic BigUInt::modexp on
// every element, with 0, 1, m-1, m, m+7 and m/3 among the bases; these
// counts give two full groups, a padded second group, one group after two
// and a lone base after two groups. The lane square must write the same
// words as the lane multiply of a value by itself, in every group count
// the context runs. On a CPU without AVX-512F + IFMA the batches run the
// scalar kernel, and the tests that need the lane kernels are skipped.
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
  const bn::MontgomeryContext ph(PhDomain::fixed256().p);
  EXPECT_EQ(ph.lane_limbs(), 5u);
  EXPECT_EQ(ph.lane_groups(), 2u);
  // 518 bits is the widest modulus ten 52-bit limbs take (R > 4m); ten
  // limbs run one group per call.
  const bn::BigUInt widest = (bn::BigUInt(1) << 518) - bn::BigUInt(1);
  EXPECT_EQ(bn::MontgomeryContext(widest).lane_limbs(), 10u);
  EXPECT_EQ(bn::MontgomeryContext(widest).lane_groups(), 1u);
  const bn::BigUInt wider = (bn::BigUInt(1) << 519) - bn::BigUInt(1);
  EXPECT_EQ(bn::MontgomeryContext(wider).lane_limbs(), 0u);
  EXPECT_EQ(bn::MontgomeryContext(wider).lane_groups(), 0u);
}

struct ModExpLanesTest : ::testing::TestWithParam<std::size_t> {
  // One pool chunk, so a batch splits into lane groups of eight plus a
  // lone scalar base exactly as its size says.
  void SetUp() override { ModExpEngine::set_batch_threads(1); }
  void TearDown() override { ModExpEngine::set_batch_threads(0); }
};

// The widest modulus K limbs take, and a random odd one of K limbs that 9
// divides, so that the base m/3 squares to 0 mod m: its lanes then reach m
// itself, which only the final canonical step maps to 0.
std::vector<bn::BigUInt> moduli_of(std::size_t k, ChaCha20Rng& rng) {
  const std::size_t widest_bits = 52 * k - 2;
  const std::size_t low_bits = k == 1 ? 8 : 52 * (k - 1);
  const std::size_t bits =
      low_bits + rng.next_below(widest_bits - low_bits + 1);
  bn::BigUInt odd = bn::BigUInt::random_bits(rng, bits - 4);
  if (odd.is_even()) odd += bn::BigUInt(1);
  return {(bn::BigUInt(1) << widest_bits) - bn::BigUInt(1),
          bn::BigUInt(9) * odd};
}

TEST_P(ModExpLanesTest, BatchEqualsPowAndModexp) {
  const std::size_t k = GetParam();
  ChaCha20Rng rng("modexp-lanes/" + std::to_string(k));
  for (const bn::BigUInt& m : moduli_of(k, rng)) {
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
    // In the first groups, as the lone base after one, two, three and four
    // groups, and at the end.
    const std::size_t spots[] = {1,  4,  7,  8,  10, 16, 24,
                                 32, 59, 60, 61, 62, 63, 64};
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
      for (std::size_t c = 2; c <= 33; ++c) counts.push_back(c);
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

// Lane l of `v`, a value below 2^(52K), written as K limbs of 52 bits at
// stride kLanes into group buffer `out`.
void put_lane(const bn::BigUInt& v, std::size_t k, std::size_t l,
              std::uint64_t* out) {
  constexpr std::size_t kLanes = bn::MontgomeryContext::kLanes;
  const bn::BigUInt radix = bn::BigUInt(1) << 52;
  bn::BigUInt rest = v;
  for (std::size_t j = 0; j < k; ++j) {
    const bn::BigUInt limb = rest % radix;
    out[j * kLanes + l] = limb.is_zero() ? 0 : limb.limbs()[0];
    rest = rest >> 52;
  }
}

TEST_P(ModExpLanesTest, LaneSquareEqualsLaneMultiply) {
  if (!cpu_has_ifma()) {
    GTEST_SKIP() << "CPU lacks AVX-512F + IFMA: no lane kernels to compare";
  }
  const std::size_t k = GetParam();
  constexpr std::size_t kLanes = bn::MontgomeryContext::kLanes;
  ChaCha20Rng rng("lane-square/" + std::to_string(k));
  for (const bn::BigUInt& m : moduli_of(k, rng)) {
    const bn::MontgomeryContext ctx(m);
    ASSERT_EQ(ctx.lane_limbs(), k);
    ASSERT_GE(ctx.lane_groups(), 1u);
    const bn::BigUInt one(1);
    const bn::BigUInt two_m = m + m;
    // Every lane value in [0, 2m) is a valid input; these sit at its ends
    // and around m.
    const std::vector<bn::BigUInt> edges = {bn::BigUInt(0), one, m - one, m,
                                            two_m - one};
    for (std::size_t groups = 1; groups <= ctx.lane_groups(); ++groups) {
      const std::size_t words = groups * k * kLanes;
      for (std::size_t round = 0; round < 16; ++round) {
        std::vector<std::uint64_t> a(words);
        for (std::size_t lane = 0; lane < groups * kLanes; ++lane) {
          // Round 0 puts every edge value in the first lanes of each group.
          const std::size_t l = lane % kLanes;
          const bn::BigUInt v = round == 0 && l < edges.size()
                                    ? edges[l]
                                    : bn::BigUInt::random_below(rng, two_m);
          put_lane(v, k, l, a.data() + lane / kLanes * k * kLanes);
        }
        std::vector<std::uint64_t> product(words);
        std::vector<std::uint64_t> square(words);
        ctx.lane_mul_raw(a.data(), a.data(), product.data(), groups);
        ctx.lane_sqr_raw(a.data(), square.data(), groups);
        EXPECT_EQ(square, product)
            << "m " << m.to_hex() << " groups " << groups << " round "
            << round;
        // In place, as the exponentiation runs it.
        ctx.lane_sqr_raw(a.data(), a.data(), groups);
        EXPECT_EQ(a, product)
            << "m " << m.to_hex() << " groups " << groups << " round "
            << round;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(LimbCounts, ModExpLanesTest,
                         ::testing::Range<std::size_t>(1, 11));

}  // namespace
}  // namespace dla::crypto
