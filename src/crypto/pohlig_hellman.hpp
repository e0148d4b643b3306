// Pohlig-Hellman commutative encryption (Section 3 of the paper).
//
// Over a shared prime p whose p-1 has a large prime factor (we use safe
// primes, p = 2q+1), each party holds an exponent pair (e, d) with
// e*d = 1 (mod p-1). Encryption is C = M^e mod p, decryption M = C^d mod p.
// Because exponents compose multiplicatively, encryption by several parties
// commutes:  (M^ea)^eb = M^(ea*eb) = (M^eb)^ea  — exactly Eq. (6) of the
// paper — which is what allows the secure set intersection / union ring-pass
// of Figure 4 to work regardless of routing order.
//
// Plaintexts must lie in [1, p-1]. Arbitrary data is first mapped into the
// group with encode_element (SHA-256 based), which also implements the
// collision bound of Eq. (7): two distinct inputs map to the same ciphertext
// only with negligible probability.
#pragma once

#include <memory>
#include <span>

#include "bignum/biguint.hpp"
#include "bignum/montgomery.hpp"
#include "crypto/modexp_engine.hpp"
#include "crypto/rng.hpp"

namespace dla::crypto {

// The shared group: a safe prime p. All parties in one protocol instance use
// the same domain; exponent keys are private per party.
struct PhDomain {
  explicit PhDomain(bn::BigUInt prime);

  bn::BigUInt p;
  // Montgomery context for p, built once per domain; copies of the domain
  // and every key drawn from it share it.
  std::shared_ptr<const bn::MontgomeryContext> mont;

  // Generate a fresh domain with a `bits`-bit safe prime.
  static PhDomain generate(ChaCha20Rng& rng, std::size_t bits);
  // A fixed, precomputed 256-bit domain for tests and examples that do not
  // want to pay safe-prime generation at startup. Every call returns a copy
  // of one process-wide domain.
  static PhDomain fixed256();
};

class PhKey {
 public:
  // Draw a random exponent e coprime to p-1 and compute d = e^-1 mod (p-1).
  static PhKey generate(const PhDomain& domain, ChaCha20Rng& rng);

  const bn::BigUInt& p() const { return p_; }

  // C = M^e mod p. M must be in [1, p-1].
  bn::BigUInt encrypt(const bn::BigUInt& m) const;
  // M = C^d mod p.
  bn::BigUInt decrypt(const bn::BigUInt& c) const;

  // In-place batch forms: elements[i] <- elements[i]^e (resp. ^d) mod p.
  // Every element is range-checked up front — on a bad element the call
  // throws before anything is modified. Large batches fan out across the
  // ModExpEngine worker pool; results are identical to the element-wise
  // loop either way (the set ring-pass relies on this).
  void encrypt_batch(std::span<bn::BigUInt> elements) const;
  void decrypt_batch(std::span<bn::BigUInt> elements) const;

 private:
  PhKey(const PhDomain& domain, bn::BigUInt e, bn::BigUInt d);

  bn::BigUInt p_;
  bn::BigUInt e_;
  bn::BigUInt d_;
  // Montgomery fast path over the domain's shared context; the engines carry
  // the compiled window schedules for the fixed exponents e and d.
  std::shared_ptr<const ModExpEngine> enc_engine_;
  std::shared_ptr<const ModExpEngine> dec_engine_;
};

// Deterministically maps arbitrary bytes into [1, p-1] by iterated SHA-256,
// so log attribute values can act as set elements in the ring protocols.
bn::BigUInt encode_element(const PhDomain& domain, std::string_view data);

}  // namespace dla::crypto
