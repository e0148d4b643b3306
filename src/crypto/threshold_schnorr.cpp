#include "crypto/threshold_schnorr.hpp"

#include <set>
#include <stdexcept>

#include "bignum/prime.hpp"
#include "crypto/modexp_engine.hpp"
#include "crypto/pohlig_hellman.hpp"
#include "crypto/shamir.hpp"
#include "crypto/sha256.hpp"

namespace dla::crypto {

namespace {

// Finds a generator of the order-q subgroup of Z_p* for a safe prime
// p = 2q+1: any h with h^2 != 1 gives g = h^2 of order q.
bn::BigUInt find_generator(const bn::BigUInt& p, ChaCha20Rng& rng) {
  for (;;) {
    bn::BigUInt h =
        bn::BigUInt::random_below(rng, p - bn::BigUInt(3)) + bn::BigUInt(2);
    bn::BigUInt g = bn::BigUInt::mulmod(h, h, p);
    if (g != bn::BigUInt(1)) return g;
  }
}

}  // namespace

Dealing deal_threshold_key(ChaCha20Rng& rng, std::size_t k, std::size_t n,
                           std::size_t prime_bits) {
  if (k == 0 || k > n)
    throw std::invalid_argument("deal_threshold_key: bad threshold");
  Dealing out;
  out.params.p = prime_bits == 0 ? PhDomain::fixed256().p
                                 : bn::generate_safe_prime(rng, prime_bits);
  out.params.q = (out.params.p - bn::BigUInt(1)) >> 1;
  out.params.g = find_generator(out.params.p, rng);

  bn::BigUInt x = bn::BigUInt::random_below(rng, out.params.q);
  out.params.y = FixedBaseEngine::shared(out.params.g, out.params.p)->pow(x);

  ShamirField field(out.params.q);
  std::vector<bn::BigUInt> xs;
  xs.reserve(n);
  for (std::size_t i = 1; i <= n; ++i) {
    xs.emplace_back(static_cast<std::uint64_t>(i));
  }
  auto shares = field.split(x, k, xs, rng);
  for (std::size_t i = 0; i < n; ++i) {
    out.shares.push_back(
        SignerShare{static_cast<std::uint32_t>(i + 1), shares[i].y});
  }
  return out;
}

NoncePair make_nonce(const ThresholdParams& params, ChaCha20Rng& rng) {
  NoncePair pair;
  pair.k = bn::BigUInt::random_below(rng, params.q);
  // g is fixed per key: the shared comb takes every nonce commitment in
  // one pass over its columns.
  pair.r = FixedBaseEngine::shared(params.g, params.p)->pow(pair.k);
  return pair;
}

bn::BigUInt combine_commitments(const ThresholdParams& params,
                                const std::vector<bn::BigUInt>& rs) {
  bn::BigUInt r(1);
  for (const auto& ri : rs) r = bn::BigUInt::mulmod(r, ri, params.p);
  return r;
}

bn::BigUInt challenge(const ThresholdParams& params, const bn::BigUInt& r,
                      std::string_view message) {
  Sha256 ctx;
  ctx.update(r.to_hex());
  ctx.update("|");
  ctx.update(message);
  Digest d = ctx.finalize();
  return bn::BigUInt::from_bytes({d.begin(), d.end()}) % params.q;
}

bn::BigUInt lagrange_at_zero(const ThresholdParams& params,
                             const std::vector<std::uint32_t>& signer_set,
                             std::uint32_t index) {
  // lambda_i = prod_{j != i} x_j / (x_j - x_i) mod q, x_m = m.
  std::set<std::uint32_t> unique(signer_set.begin(), signer_set.end());
  if (unique.size() != signer_set.size())
    throw std::invalid_argument("lagrange_at_zero: duplicate signer indices");
  if (!unique.contains(index))
    throw std::invalid_argument("lagrange_at_zero: index not in signer set");
  ShamirField field(params.q);
  bn::BigUInt num(1), den(1);
  bn::BigUInt xi(index);
  for (std::uint32_t j : signer_set) {
    if (j == index) continue;
    bn::BigUInt xj(j);
    num = field.mul(num, xj);
    den = field.mul(den, field.sub(xj, xi));
  }
  auto den_inv = bn::BigUInt::modinv(den, params.q);
  if (!den_inv)
    throw std::invalid_argument("lagrange_at_zero: degenerate signer set");
  return field.mul(num, *den_inv);
}

std::vector<bn::BigUInt> lagrange_coefficients(
    const ThresholdParams& params,
    const std::vector<std::uint32_t>& signer_set) {
  std::vector<bn::BigUInt> out;
  out.reserve(signer_set.size());
  for (std::uint32_t index : signer_set) {
    out.push_back(lagrange_at_zero(params, signer_set, index));
  }
  return out;
}

bn::BigUInt response_share(const ThresholdParams& params,
                           const SignerShare& share,
                           const bn::BigUInt& nonce_k, const bn::BigUInt& c,
                           const bn::BigUInt& lambda) {
  ShamirField field(params.q);
  return field.add(nonce_k, field.mul(c, field.mul(lambda, share.x_share)));
}

ThresholdSignature combine_signature(const ThresholdParams& params,
                                     const bn::BigUInt& r,
                                     const std::vector<bn::BigUInt>& s_shares) {
  ShamirField field(params.q);
  bn::BigUInt s;
  for (const auto& si : s_shares) s = field.add(s, si);
  return ThresholdSignature{r, s};
}

bool verify_threshold(const ThresholdParams& params, std::string_view message,
                      const ThresholdSignature& sig) {
  if (sig.r.is_zero() || sig.r >= params.p || sig.s >= params.q) return false;
  bn::BigUInt c = challenge(params, sig.r, message);
  bn::BigUInt lhs = FixedBaseEngine::shared(params.g, params.p)->pow(sig.s);
  bn::BigUInt rhs = bn::BigUInt::mulmod(
      sig.r, FixedBaseEngine::shared(params.y, params.p)->pow(c), params.p);
  return lhs == rhs;
}

}  // namespace dla::crypto
