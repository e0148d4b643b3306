#include "crypto/pohlig_hellman.hpp"

#include <stdexcept>

#include "bignum/prime.hpp"
#include "crypto/sha256.hpp"

namespace dla::crypto {

PhDomain::PhDomain(bn::BigUInt prime)
    : p(std::move(prime)),
      mont(std::make_shared<const bn::MontgomeryContext>(p)) {}

PhDomain PhDomain::generate(ChaCha20Rng& rng, std::size_t bits) {
  return PhDomain{bn::generate_safe_prime(rng, bits)};
}

PhDomain PhDomain::fixed256() {
  // Precomputed 256-bit safe prime (p = 2q+1, q prime); verified by the
  // dla_bignum prime tests.
  static const PhDomain domain{bn::BigUInt::from_hex(
      "dc9db496edbc0c1c97972e233e1a191fdb56a14df65a307ca1cea9ebe0fb9b93")};
  return domain;
}

PhKey::PhKey(const PhDomain& domain, bn::BigUInt e, bn::BigUInt d)
    : p_(domain.p),
      e_(std::move(e)),
      d_(std::move(d)),
      enc_engine_(std::make_shared<const ModExpEngine>(domain.mont, e_)),
      dec_engine_(std::make_shared<const ModExpEngine>(domain.mont, d_)) {}

PhKey PhKey::generate(const PhDomain& domain, ChaCha20Rng& rng) {
  const bn::BigUInt p_minus_1 = domain.p - bn::BigUInt(1);
  for (;;) {
    bn::BigUInt e = bn::BigUInt::random_below(rng, p_minus_1 - bn::BigUInt(3)) +
                    bn::BigUInt(3);
    auto d = bn::BigUInt::modinv(e, p_minus_1);
    if (d.has_value()) return PhKey(domain, std::move(e), std::move(*d));
  }
}

bn::BigUInt PhKey::encrypt(const bn::BigUInt& m) const {
  if (m.is_zero() || m >= p_)
    throw std::invalid_argument("PhKey::encrypt: plaintext outside [1, p-1]");
  return enc_engine_->pow(m);
}

bn::BigUInt PhKey::decrypt(const bn::BigUInt& c) const {
  if (c.is_zero() || c >= p_)
    throw std::invalid_argument("PhKey::decrypt: ciphertext outside [1, p-1]");
  return dec_engine_->pow(c);
}

void PhKey::encrypt_batch(std::span<bn::BigUInt> elements) const {
  for (const auto& m : elements) {
    if (m.is_zero() || m >= p_)
      throw std::invalid_argument(
          "PhKey::encrypt_batch: plaintext outside [1, p-1]");
  }
  enc_engine_->pow_batch(elements);
}

void PhKey::decrypt_batch(std::span<bn::BigUInt> elements) const {
  for (const auto& c : elements) {
    if (c.is_zero() || c >= p_)
      throw std::invalid_argument(
          "PhKey::decrypt_batch: ciphertext outside [1, p-1]");
  }
  dec_engine_->pow_batch(elements);
}

bn::BigUInt encode_element(const PhDomain& domain, std::string_view data) {
  // Iterated hashing until the digest falls in [1, p-1]. For a 256-bit p the
  // first round almost always succeeds; the loop guarantees termination for
  // smaller domains by folding the digest down to the required width.
  Digest d = Sha256::hash(data);
  for (;;) {
    bn::BigUInt candidate =
        bn::BigUInt::from_bytes({d.begin(), d.end()}) % domain.p;
    if (!candidate.is_zero()) return candidate;
    d = Sha256::hash(std::span<const std::uint8_t>(d.data(), d.size()));
  }
}

}  // namespace dla::crypto
