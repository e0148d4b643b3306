// ModExpEngine / FixedBaseEngine: the batched fixed-exponent kernels must be
// bit-identical to the generic BigUInt::modexp reference on every input —
// the set ring-pass depends on batched and serial paths agreeing exactly.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "bignum/biguint.hpp"
#include "bignum/montgomery.hpp"
#include "crypto/modexp_engine.hpp"
#include "crypto/pohlig_hellman.hpp"
#include "crypto/rng.hpp"

namespace dla::crypto {
namespace {

std::shared_ptr<const bn::MontgomeryContext> make_ctx(const bn::BigUInt& m) {
  return std::make_shared<bn::MontgomeryContext>(m);
}

// Restores the batching knob after each test so ordering cannot leak state.
struct ModExpEngineTest : ::testing::Test {
  void TearDown() override { ModExpEngine::set_batch_threads(0); }
};

TEST_F(ModExpEngineTest, MatchesGenericModexpOnRandomInputs) {
  ChaCha20Rng rng(11);
  const bn::BigUInt p = PhDomain::fixed256().p;
  auto ctx = make_ctx(p);
  for (int round = 0; round < 10; ++round) {
    bn::BigUInt e = bn::BigUInt::random_below(rng, p);
    ModExpEngine engine(ctx, e);
    for (int i = 0; i < 5; ++i) {
      bn::BigUInt base = bn::BigUInt::random_below(rng, p);
      EXPECT_EQ(engine.pow(base), bn::BigUInt::modexp(base, e, p));
    }
  }
}

TEST_F(ModExpEngineTest, ExponentEdgeCases) {
  const bn::BigUInt p = PhDomain::fixed256().p;
  auto ctx = make_ctx(p);
  const bn::BigUInt base = bn::BigUInt(123456789);
  std::vector<bn::BigUInt> exponents = {
      bn::BigUInt(0),  bn::BigUInt(1),   bn::BigUInt(2),
      bn::BigUInt(3),  bn::BigUInt(4),   bn::BigUInt(15),
      bn::BigUInt(16), bn::BigUInt(255), bn::BigUInt(256),
      bn::BigUInt(1) << 64,          // single high bit, 64 trailing zeros
      (bn::BigUInt(1) << 100) - bn::BigUInt(1),  // all-ones
      p - bn::BigUInt(1),            // Fermat: must give 1
  };
  for (const auto& e : exponents) {
    ModExpEngine engine(ctx, e);
    EXPECT_EQ(engine.pow(base), bn::BigUInt::modexp(base, e, p))
        << "exponent " << e.to_hex();
  }
  // Base edge cases: 0, 1, p-1, and a base that needs reduction (>= p).
  ModExpEngine engine(ctx, bn::BigUInt(65537));
  for (const auto& b :
       {bn::BigUInt(0), bn::BigUInt(1), p - bn::BigUInt(1), p + bn::BigUInt(7)}) {
    EXPECT_EQ(engine.pow(b), bn::BigUInt::modexp(b, bn::BigUInt(65537), p));
  }
}

TEST_F(ModExpEngineTest, SmallModulus) {
  // Exercise the 1-limb path and tiny windows.
  const bn::BigUInt m(10007);  // odd prime
  auto ctx = make_ctx(m);
  for (std::uint64_t e : {0ull, 1ull, 2ull, 6ull, 10006ull}) {
    ModExpEngine engine(ctx, bn::BigUInt(e));
    for (std::uint64_t b : {0ull, 1ull, 2ull, 9999ull}) {
      EXPECT_EQ(engine.pow(bn::BigUInt(b)),
                bn::BigUInt::modexp(bn::BigUInt(b), bn::BigUInt(e), m));
    }
  }
}

TEST_F(ModExpEngineTest, BatchMatchesElementwiseAcrossSizesAndKeys) {
  ChaCha20Rng rng(21);
  ModExpEngine::set_batch_threads(4);  // force pool fan-out on any hardware
  for (std::size_t bits : {128u, 256u}) {
    PhDomain domain = bits == 256 ? PhDomain::fixed256()
                                  : PhDomain::generate(rng, bits);
    auto ctx = make_ctx(domain.p);
    bn::BigUInt e = bn::BigUInt::random_below(rng, domain.p);
    ModExpEngine engine(ctx, e);
    for (std::size_t count : {0u, 1u, 2u, 7u, 8u, 9u, 16u, 17u, 33u, 130u}) {
      std::vector<bn::BigUInt> batch(count);
      std::vector<bn::BigUInt> expected(count);
      for (std::size_t i = 0; i < count; ++i) {
        batch[i] = bn::BigUInt::random_below(rng, domain.p);
        expected[i] = engine.pow(batch[i]);
      }
      engine.pow_batch(batch);
      EXPECT_EQ(batch, expected) << bits << "-bit, count " << count;
    }
  }
}

TEST_F(ModExpEngineTest, BatchingDisabledGivesIdenticalResults) {
  ChaCha20Rng rng(31);
  const bn::BigUInt p = PhDomain::fixed256().p;
  auto ctx = make_ctx(p);
  ModExpEngine engine(ctx, bn::BigUInt::random_below(rng, p));
  std::vector<bn::BigUInt> a(64), b;
  for (auto& v : a) v = bn::BigUInt::random_below(rng, p);
  b = a;

  // Four threads fan the batch across the pool; one runs it on the calling
  // thread.
  ModExpEngine::set_batch_threads(4);
  engine.pow_batch(a);
  ModExpEngine::set_batch_threads(1);
  engine.pow_batch(b);
  EXPECT_EQ(a, b);
}

TEST_F(ModExpEngineTest, CountersTrackPowsAndBatches) {
  const bn::BigUInt p = PhDomain::fixed256().p;
  auto ctx = make_ctx(p);
  ModExpEngine engine(ctx, bn::BigUInt(65537));

  reset_modexp_stats();
  engine.pow(bn::BigUInt(2));
  engine.pow(bn::BigUInt(3));
  std::vector<bn::BigUInt> batch(40, bn::BigUInt(5));
  engine.pow_batch(batch);
  ModExpStats stats = modexp_stats();
  EXPECT_EQ(stats.modexp_count, 42u);
  EXPECT_EQ(stats.modexp_batch_count, 1u);

  reset_modexp_stats();
  stats = modexp_stats();
  EXPECT_EQ(stats.modexp_count, 0u);
  EXPECT_EQ(stats.modexp_batch_count, 0u);
}

TEST_F(ModExpEngineTest, PhKeyBatchEqualsElementwise) {
  ChaCha20Rng rng(41);
  PhDomain domain = PhDomain::fixed256();
  PhKey key = PhKey::generate(domain, rng);
  ModExpEngine::set_batch_threads(4);

  std::vector<bn::BigUInt> plain(50);
  for (std::size_t i = 0; i < plain.size(); ++i) {
    plain[i] = encode_element(domain, "elem-" + std::to_string(i));
  }
  std::vector<bn::BigUInt> batch = plain;
  key.encrypt_batch(batch);
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(batch[i], key.encrypt(plain[i]));
  }
  key.decrypt_batch(batch);
  EXPECT_EQ(batch, plain);  // decrypt inverts encrypt, element order kept
}

TEST_F(ModExpEngineTest, PhKeyBatchValidatesBeforeMutating) {
  ChaCha20Rng rng(43);
  PhDomain domain = PhDomain::fixed256();
  PhKey key = PhKey::generate(domain, rng);
  std::vector<bn::BigUInt> batch = {encode_element(domain, "ok"),
                                    bn::BigUInt(0)};  // invalid element
  std::vector<bn::BigUInt> before = batch;
  EXPECT_THROW(key.encrypt_batch(batch), std::invalid_argument);
  EXPECT_EQ(batch, before);  // untouched: validation precedes any work
  batch[1] = domain.p;       // >= p is equally invalid
  EXPECT_THROW(key.decrypt_batch(batch), std::invalid_argument);
}

TEST_F(ModExpEngineTest, FixedBaseMatchesGenericModexp) {
  ChaCha20Rng rng(51);
  const bn::BigUInt p = PhDomain::fixed256().p;
  const bn::BigUInt g(4);
  auto engine = FixedBaseEngine::shared(g, p);
  for (int i = 0; i < 20; ++i) {
    bn::BigUInt e = bn::BigUInt::random_below(rng, p);
    EXPECT_EQ(engine->pow(e), bn::BigUInt::modexp(g, e, p));
  }
  EXPECT_EQ(engine->pow(bn::BigUInt(0)), bn::BigUInt(1));
  EXPECT_EQ(engine->pow(bn::BigUInt(1)), g);
  // Exponent wider than the comb: falls back to the generic path.
  bn::BigUInt wide = (bn::BigUInt(1) << 300) + bn::BigUInt(17);
  EXPECT_EQ(engine->pow(wide), bn::BigUInt::modexp(g, wide, p));
}

TEST_F(ModExpEngineTest, FixedBaseSharedCacheReusesInstances) {
  const bn::BigUInt p = PhDomain::fixed256().p;
  auto a = FixedBaseEngine::shared(bn::BigUInt(4), p);
  auto b = FixedBaseEngine::shared(bn::BigUInt(4), p);
  auto c = FixedBaseEngine::shared(bn::BigUInt(9), p);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
}

TEST_F(ModExpEngineTest, FixedBaseSharedCacheEvictsLeastRecentlyUsed) {
  // Regression: the shared cache used to clear ALL entries once it held 16,
  // so the hot generator engine was rebuilt every 17th distinct key. With
  // LRU eviction, an entry that is touched while filler keys stream through
  // must survive; only the coldest keys fall out.
  const bn::BigUInt p = PhDomain::fixed256().p;
  const bn::BigUInt hot_base(4);
  auto hot = FixedBaseEngine::shared(hot_base, p);
  auto cold = FixedBaseEngine::shared(bn::BigUInt(100), p);
  // Stream 40 distinct filler keys through the 16-entry cache, re-touching
  // the hot key between them so it is never the LRU victim. The cold key is
  // never touched again.
  for (int i = 0; i < 40; ++i) {
    (void)FixedBaseEngine::shared(bn::BigUInt(101 + i), p);
    auto again = FixedBaseEngine::shared(hot_base, p);
    EXPECT_EQ(hot.get(), again.get()) << "hot engine evicted at filler " << i;
  }
  // The hot key still maps to the original engine; the untouched cold key
  // fell out and comes back as a fresh instance (the old one is pinned
  // alive by `cold`, so pointer inequality proves eviction).
  EXPECT_EQ(hot.get(), FixedBaseEngine::shared(hot_base, p).get());
  EXPECT_NE(cold.get(), FixedBaseEngine::shared(bn::BigUInt(100), p).get());
}

// Odd moduli of 1..8 limbs (the unrolled kernels) and of 10 limbs (the
// run-time-width N = 0 kernel), each with its top bit set.
std::vector<bn::BigUInt> comb_moduli(ChaCha20Rng& rng) {
  std::vector<bn::BigUInt> moduli;
  for (std::size_t limbs : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 10u}) {
    bn::BigUInt m = bn::BigUInt::random_bits(rng, 64 * limbs);
    if (m.is_even()) m += bn::BigUInt(1);
    moduli.push_back(std::move(m));
  }
  return moduli;
}

// Exponents of exactly `width` bits: one random, all ones (every tooth set
// in every column) and the lone top bit.
std::vector<bn::BigUInt> exponents_of_width(ChaCha20Rng& rng,
                                            std::size_t width) {
  return {bn::BigUInt::random_bits(rng, width),
          (bn::BigUInt(1) << width) - bn::BigUInt(1),
          bn::BigUInt(1) << (width - 1)};
}

TEST_F(ModExpEngineTest, FixedBaseCombMatchesMontgomeryPowAtRowBoundaries) {
  ChaCha20Rng rng(61);
  for (const bn::BigUInt& m : comb_moduli(rng)) {
    auto ctx = make_ctx(m);
    const bn::BigUInt base = bn::BigUInt::random_below(rng, m);
    // A width that is not a multiple of 8 rounds up to eight rows of d bits.
    FixedBaseEngine comb(ctx, base, m.bit_length() - 3);
    const std::size_t max = comb.max_exponent_bits();
    ASSERT_EQ(max, m.bit_length());
    const std::size_t d = max / 8;
    // Each row ends at k * d: its last bit, the next row's first and the
    // one after it; 8d + 1 is the first width past the comb (the fallback).
    std::set<std::size_t> widths = {1, 2};
    for (std::size_t k = 1; k <= 8; ++k) {
      for (std::size_t w : {k * d - 1, k * d, k * d + 1}) widths.insert(w);
    }
    for (std::size_t w : widths) {
      for (const bn::BigUInt& e : exponents_of_width(rng, w)) {
        EXPECT_EQ(comb.pow(e), ctx->pow(base, e))
            << m.bit_length() << "-bit modulus, width " << w << ", exponent "
            << e.to_hex();
      }
    }
  }
}

TEST_F(ModExpEngineTest, FixedBaseCombMatchesMontgomeryPowAtEveryWidth) {
  ChaCha20Rng rng(62);
  for (std::size_t bits : {64u, 130u}) {
    bn::BigUInt m = bn::BigUInt::random_bits(rng, bits);
    if (m.is_even()) m += bn::BigUInt(1);
    auto ctx = make_ctx(m);
    const bn::BigUInt base = bn::BigUInt::random_below(rng, m);
    FixedBaseEngine comb(ctx, base, bits);
    for (std::size_t w = 1; w <= comb.max_exponent_bits() + 1; ++w) {
      for (const bn::BigUInt& e : exponents_of_width(rng, w)) {
        EXPECT_EQ(comb.pow(e), ctx->pow(base, e))
            << bits << "-bit modulus, width " << w << ", exponent "
            << e.to_hex();
      }
    }
  }
}

TEST_F(ModExpEngineTest, FixedBaseCombEdgeBasesAndExponents) {
  ChaCha20Rng rng(63);
  for (const bn::BigUInt& m : comb_moduli(rng)) {
    auto ctx = make_ctx(m);
    const std::size_t max = m.bit_length();
    const std::vector<bn::BigUInt> exponents = {
        bn::BigUInt(0), bn::BigUInt(1), bn::BigUInt(2),
        bn::BigUInt::random_bits(rng, max),
        bn::BigUInt::random_bits(rng, max + 1)};  // the fallback
    for (const bn::BigUInt& base :
         {bn::BigUInt(0), bn::BigUInt(1), m - bn::BigUInt(1), m,
          m + bn::BigUInt(5), m * bn::BigUInt(3) + bn::BigUInt(2)}) {
      FixedBaseEngine comb(ctx, base, max);
      for (const bn::BigUInt& e : exponents) {
        EXPECT_EQ(comb.pow(e), ctx->pow(base, e))
            << max << "-bit modulus, base " << base.to_hex() << ", exponent "
            << e.to_hex();
      }
    }
  }
}

TEST_F(ModExpEngineTest, FixedBaseCombCountsOneModexpPerPow) {
  const bn::BigUInt p = PhDomain::fixed256().p;
  FixedBaseEngine comb(make_ctx(p), bn::BigUInt(4), 64);
  reset_modexp_stats();
  comb.pow(bn::BigUInt(12345));                      // in the comb
  comb.pow((bn::BigUInt(1) << 64) + bn::BigUInt(1));  // the fallback
  EXPECT_EQ(modexp_stats().modexp_count, 2u);
  EXPECT_EQ(modexp_stats().modexp_batch_count, 0u);
}

TEST_F(ModExpEngineTest, FixedBaseSharedCacheKeysOnWidth) {
  const bn::BigUInt p = PhDomain::fixed256().p;
  auto modulus_wide = FixedBaseEngine::shared(bn::BigUInt(4), p);
  auto deposit_wide = FixedBaseEngine::shared(bn::BigUInt(4), p, 1024);
  EXPECT_EQ(modulus_wide->max_exponent_bits(), p.bit_length());
  EXPECT_EQ(deposit_wide->max_exponent_bits(), 1024u);
  EXPECT_NE(modulus_wide.get(), deposit_wide.get());
  EXPECT_EQ(deposit_wide.get(),
            FixedBaseEngine::shared(bn::BigUInt(4), p, 1024).get());
  EXPECT_EQ(modulus_wide.get(),
            FixedBaseEngine::shared(bn::BigUInt(4), p, p.bit_length()).get());
}

}  // namespace
}  // namespace dla::crypto
