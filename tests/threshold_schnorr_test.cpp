// Tests for (k, n) threshold Schnorr signatures.
#include "crypto/threshold_schnorr.hpp"

#include <gtest/gtest.h>

namespace dla::crypto {
namespace {

// Full signing flow for a given signer subset.
ThresholdSignature sign_with(const Dealing& dealing,
                             const std::vector<std::uint32_t>& signer_set,
                             std::string_view message, ChaCha20Rng& rng) {
  std::vector<NoncePair> nonces;
  std::vector<bn::BigUInt> commitments;
  for (std::size_t i = 0; i < signer_set.size(); ++i) {
    nonces.push_back(make_nonce(dealing.params, rng));
    commitments.push_back(nonces.back().r);
  }
  bn::BigUInt r = combine_commitments(dealing.params, commitments);
  bn::BigUInt c = challenge(dealing.params, r, message);
  std::vector<bn::BigUInt> s_shares;
  for (std::size_t i = 0; i < signer_set.size(); ++i) {
    const SignerShare& share = dealing.shares[signer_set[i] - 1];
    bn::BigUInt lambda =
        lagrange_at_zero(dealing.params, signer_set, signer_set[i]);
    s_shares.push_back(
        response_share(dealing.params, share, nonces[i].k, c, lambda));
  }
  return combine_signature(dealing.params, r, s_shares);
}

struct ThresholdFixture : ::testing::Test {
  ThresholdFixture() : rng(42), dealing(deal_threshold_key(rng, 3, 5)) {}
  ChaCha20Rng rng;
  Dealing dealing;
};

TEST_F(ThresholdFixture, DealingShapes) {
  EXPECT_EQ(dealing.shares.size(), 5u);
  EXPECT_EQ(dealing.params.p, (dealing.params.q << 1) + bn::BigUInt(1));
  // g generates the order-q subgroup: g^q == 1.
  EXPECT_EQ(bn::BigUInt::modexp(dealing.params.g, dealing.params.q,
                                dealing.params.p),
            bn::BigUInt(1));
  EXPECT_THROW(deal_threshold_key(rng, 0, 3), std::invalid_argument);
  EXPECT_THROW(deal_threshold_key(rng, 4, 3), std::invalid_argument);
}

// A gateway computes its signer set's coefficients once and reuses them.
TEST_F(ThresholdFixture, CachedCoefficientsMatchLagrangeAtZero) {
  for (const auto& set : std::vector<std::vector<std::uint32_t>>{
           {1}, {1, 2, 3}, {2, 4, 5}, {5, 1, 3}, {1, 2, 3, 4, 5}}) {
    const std::vector<bn::BigUInt> lambdas =
        lagrange_coefficients(dealing.params, set);
    ASSERT_EQ(lambdas.size(), set.size());
    for (std::size_t i = 0; i < set.size(); ++i) {
      EXPECT_EQ(lambdas[i], lagrange_at_zero(dealing.params, set, set[i]))
          << "index " << set[i];
    }
  }
  EXPECT_THROW(lagrange_coefficients(dealing.params, {1, 1, 2}),
               std::invalid_argument);
}

TEST_F(ThresholdFixture, ExactThresholdSigns) {
  auto sig = sign_with(dealing, {1, 2, 3}, "audit report #1", rng);
  EXPECT_TRUE(verify_threshold(dealing.params, "audit report #1", sig));
}

TEST_F(ThresholdFixture, AnySubsetOfKSigns) {
  for (const auto& set : std::vector<std::vector<std::uint32_t>>{
           {1, 2, 3}, {1, 2, 4}, {2, 4, 5}, {3, 4, 5}, {1, 3, 5}}) {
    auto sig = sign_with(dealing, set, "msg", rng);
    EXPECT_TRUE(verify_threshold(dealing.params, "msg", sig))
        << set[0] << set[1] << set[2];
  }
}

TEST_F(ThresholdFixture, MoreThanKSignersAlsoWork) {
  auto sig = sign_with(dealing, {1, 2, 3, 4, 5}, "msg", rng);
  EXPECT_TRUE(verify_threshold(dealing.params, "msg", sig));
}

TEST_F(ThresholdFixture, FewerThanKSignersFail) {
  // With only k-1 shares the Lagrange combination reconstructs a different
  // polynomial value; the signature cannot verify.
  auto sig = sign_with(dealing, {1, 2}, "msg", rng);
  EXPECT_FALSE(verify_threshold(dealing.params, "msg", sig));
}

TEST_F(ThresholdFixture, WrongMessageRejected) {
  auto sig = sign_with(dealing, {1, 2, 3}, "original", rng);
  EXPECT_FALSE(verify_threshold(dealing.params, "tampered", sig));
}

TEST_F(ThresholdFixture, TamperedSignatureRejected) {
  auto sig = sign_with(dealing, {1, 2, 3}, "msg", rng);
  ThresholdSignature bad = sig;
  bad.s = (bad.s + bn::BigUInt(1)) % dealing.params.q;
  EXPECT_FALSE(verify_threshold(dealing.params, "msg", bad));
  bad = sig;
  bad.r = bn::BigUInt::mulmod(bad.r, dealing.params.g, dealing.params.p);
  EXPECT_FALSE(verify_threshold(dealing.params, "msg", bad));
}

TEST_F(ThresholdFixture, MalformedSignatureRejected) {
  EXPECT_FALSE(verify_threshold(dealing.params, "msg",
                                ThresholdSignature{bn::BigUInt{}, bn::BigUInt{}}));
  EXPECT_FALSE(verify_threshold(
      dealing.params, "msg",
      ThresholdSignature{dealing.params.p, bn::BigUInt(1)}));
  EXPECT_FALSE(verify_threshold(
      dealing.params, "msg",
      ThresholdSignature{bn::BigUInt(2), dealing.params.q}));
}

TEST_F(ThresholdFixture, WrongShareCorruptsSignature) {
  // A Byzantine signer contributing a bogus response share breaks the
  // combined signature — detectable before publishing the report.
  std::vector<std::uint32_t> set = {1, 2, 3};
  std::vector<NoncePair> nonces;
  std::vector<bn::BigUInt> commitments;
  for (std::size_t i = 0; i < 3; ++i) {
    nonces.push_back(make_nonce(dealing.params, rng));
    commitments.push_back(nonces.back().r);
  }
  bn::BigUInt r = combine_commitments(dealing.params, commitments);
  bn::BigUInt c = challenge(dealing.params, r, "msg");
  std::vector<bn::BigUInt> s_shares;
  for (std::size_t i = 0; i < 3; ++i) {
    bn::BigUInt lambda = lagrange_at_zero(dealing.params, set, set[i]);
    s_shares.push_back(response_share(dealing.params, dealing.shares[set[i] - 1],
                                      nonces[i].k, c, lambda));
  }
  s_shares[1] = (s_shares[1] + bn::BigUInt(7)) % dealing.params.q;
  auto sig = combine_signature(dealing.params, r, s_shares);
  EXPECT_FALSE(verify_threshold(dealing.params, "msg", sig));
}

TEST_F(ThresholdFixture, LagrangeValidation) {
  EXPECT_THROW(lagrange_at_zero(dealing.params, {1, 2}, 3),
               std::invalid_argument);
  EXPECT_THROW(lagrange_at_zero(dealing.params, {1, 1, 2}, 1),
               std::invalid_argument);
}

TEST(ThresholdSchnorr, OneOfOneDegeneratesToPlainSchnorr) {
  ChaCha20Rng rng(7);
  Dealing dealing = deal_threshold_key(rng, 1, 1);
  std::vector<std::uint32_t> set = {1};
  NoncePair nonce = make_nonce(dealing.params, rng);
  bn::BigUInt c = challenge(dealing.params, nonce.r, "solo");
  bn::BigUInt lambda = lagrange_at_zero(dealing.params, set, 1);
  EXPECT_EQ(lambda, bn::BigUInt(1));  // single signer: coefficient 1
  bn::BigUInt s =
      response_share(dealing.params, dealing.shares[0], nonce.k, c, lambda);
  EXPECT_TRUE(verify_threshold(dealing.params, "solo",
                               ThresholdSignature{nonce.r, s}));
}

TEST(ThresholdSchnorr, DifferentDealingsDontCrossVerify) {
  ChaCha20Rng rng1(1), rng2(2);
  Dealing a = deal_threshold_key(rng1, 2, 3);
  Dealing b = deal_threshold_key(rng2, 2, 3);
  auto sig = sign_with(a, {1, 2}, "msg", rng1);
  EXPECT_TRUE(verify_threshold(a.params, "msg", sig));
  EXPECT_FALSE(verify_threshold(b.params, "msg", sig));
}

}  // namespace
}  // namespace dla::crypto
