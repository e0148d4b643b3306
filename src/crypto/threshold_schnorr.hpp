// (k, n) threshold Schnorr signatures over Z_p* — the "threshold signature"
// mechanism Section 2 lists among the DLA cluster's tools for "trusted and
// reliable auditing": an audit report is valid only if at least k cluster
// nodes co-signed it, so no single (or small coalition of) DLA node(s) can
// forge a certified report.
//
// Construction (trusted dealer, Shamir-shared key):
//   parameters: safe prime p = 2q + 1, generator g of the order-q subgroup,
//               secret key x in Z_q, public key y = g^x mod p;
//   dealing:    x is Shamir-shared with threshold k at points 1..n;
//   signing (any set S, |S| >= k):
//     round 1:  each signer i draws nonce k_i, publishes R_i = g^{k_i};
//               R = prod R_i, c = H(R || m) mod q;
//     round 2:  each signer returns s_i = k_i + c * lambda_i(S) * x_i mod q,
//               where lambda_i(S) is its Lagrange coefficient at 0;
//               s = sum s_i mod q.
//   verify:     g^s == R * y^c (mod p).
#pragma once

#include <cstdint>
#include <map>
#include <string_view>
#include <vector>

#include "bignum/biguint.hpp"
#include "crypto/rng.hpp"

namespace dla::crypto {

struct ThresholdParams {
  bn::BigUInt p;  // safe prime
  bn::BigUInt q;  // (p-1)/2, the subgroup order
  bn::BigUInt g;  // generator of the order-q subgroup
  bn::BigUInt y;  // public key g^x

  // Fixed parameters over the 256-bit safe prime used elsewhere; `x` is
  // derived from the dealer seed. For tests/examples.
  bool operator==(const ThresholdParams&) const = default;
};

struct SignerShare {
  std::uint32_t index = 0;  // Shamir x-coordinate (1-based)
  bn::BigUInt x_share;      // f(index)
};

struct ThresholdSignature {
  bn::BigUInt r;  // combined nonce commitment R
  bn::BigUInt s;  // combined response

  bool operator==(const ThresholdSignature&) const = default;
};

// Trusted dealer: generates parameters and n shares with threshold k.
struct Dealing {
  ThresholdParams params;
  std::vector<SignerShare> shares;
};
Dealing deal_threshold_key(ChaCha20Rng& rng, std::size_t k, std::size_t n,
                           std::size_t prime_bits = 0);  // 0 = fixed 256-bit

// Round 1: a signer's nonce pair.
struct NoncePair {
  bn::BigUInt k;  // secret nonce
  bn::BigUInt r;  // public commitment g^k
};
NoncePair make_nonce(const ThresholdParams& params, ChaCha20Rng& rng);

// Combine the signer set's commitments: R = prod R_i mod p.
bn::BigUInt combine_commitments(const ThresholdParams& params,
                                const std::vector<bn::BigUInt>& rs);

// Fiat-Shamir challenge c = H(R || message) mod q.
bn::BigUInt challenge(const ThresholdParams& params, const bn::BigUInt& r,
                      std::string_view message);

// Lagrange coefficient of `index` at zero for the signer set (mod q).
bn::BigUInt lagrange_at_zero(const ThresholdParams& params,
                             const std::vector<std::uint32_t>& signer_set,
                             std::uint32_t index);
// Every member's coefficient, in set order: entry i is
// lagrange_at_zero(params, signer_set, signer_set[i]). A coordinator whose
// signer set never changes computes them once.
std::vector<bn::BigUInt> lagrange_coefficients(
    const ThresholdParams& params, const std::vector<std::uint32_t>& signer_set);

// Round 2: one signer's response share.
bn::BigUInt response_share(const ThresholdParams& params,
                           const SignerShare& share, const bn::BigUInt& nonce_k,
                           const bn::BigUInt& c, const bn::BigUInt& lambda);

// Combine response shares: s = sum s_i mod q.
ThresholdSignature combine_signature(const ThresholdParams& params,
                                     const bn::BigUInt& r,
                                     const std::vector<bn::BigUInt>& s_shares);

// Verification: g^s == R * y^c mod p.
bool verify_threshold(const ThresholdParams& params, std::string_view message,
                      const ThresholdSignature& sig);

}  // namespace dla::crypto
