// Arbitrary-precision unsigned integer arithmetic.
//
// BigUInt is the numeric substrate for every cryptographic primitive in this
// repository (Pohlig-Hellman commutative encryption, RSA-style signatures,
// one-way accumulators, Shamir secret sharing). It stores magnitudes as
// little-endian 64-bit limbs and keeps the canonical invariant that the most
// significant limb is nonzero (zero is the empty limb vector).
//
// The class is a regular value type: copyable, movable, totally ordered,
// hashable via to_bytes(). All operations are defined for non-negative
// integers only; subtraction of a larger value from a smaller one throws.
#pragma once

#include <compare>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dla::bn {

// Source of randomness consumed by random sampling helpers and by
// probabilistic primality testing. Implemented by dla::crypto::ChaCha20Rng;
// declared here so the bignum layer has no dependency on the crypto layer.
class RandomSource {
 public:
  virtual ~RandomSource() = default;
  virtual std::uint64_t next_u64() = 0;
};

struct DivMod;

class BigUInt {
 public:
  // Zero.
  BigUInt() = default;
  // Value-initialise from a machine word.
  BigUInt(std::uint64_t v);  // NOLINT(google-explicit-constructor)

  // Parses a big-endian hex string (no 0x prefix required; one is accepted).
  // Throws std::invalid_argument on empty input or non-hex characters.
  static BigUInt from_hex(std::string_view hex);
  // Parses a base-10 string. Throws std::invalid_argument on bad input.
  static BigUInt from_decimal(std::string_view dec);
  // Deserialises a big-endian byte string (inverse of to_bytes).
  static BigUInt from_bytes(const std::vector<std::uint8_t>& bytes);
  // Adopts a little-endian limb vector (trailing zero limbs allowed; they
  // are trimmed). The fast path out of Montgomery form — no re-parsing.
  static BigUInt from_limbs(std::vector<std::uint64_t> limbs);

  // Lower-case hex, no leading zeros ("0" for zero).
  std::string to_hex() const;
  // Base-10 rendering.
  std::string to_decimal() const;
  // Minimal big-endian byte string (empty for zero).
  std::vector<std::uint8_t> to_bytes() const;

  bool is_zero() const { return limbs_.empty(); }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1u); }
  bool is_even() const { return !is_odd(); }

  // Number of significant bits; 0 for zero.
  std::size_t bit_length() const;
  // Value of bit i (i=0 is the least significant bit).
  bool bit(std::size_t i) const;
  // Low 64 bits of the value (0 for zero).
  std::uint64_t low_u64() const { return limbs_.empty() ? 0 : limbs_[0]; }
  // True when the value fits in a u64.
  bool fits_u64() const { return limbs_.size() <= 1; }

  std::strong_ordering operator<=>(const BigUInt& rhs) const;
  bool operator==(const BigUInt& rhs) const = default;

  BigUInt& operator+=(const BigUInt& rhs);
  // Throws std::underflow_error if rhs > *this.
  BigUInt& operator-=(const BigUInt& rhs);
  BigUInt& operator*=(const BigUInt& rhs);
  // Throws std::domain_error on division by zero.
  BigUInt& operator/=(const BigUInt& rhs);
  BigUInt& operator%=(const BigUInt& rhs);
  BigUInt& operator<<=(std::size_t bits);
  BigUInt& operator>>=(std::size_t bits);

  friend BigUInt operator+(BigUInt a, const BigUInt& b) { return a += b; }
  friend BigUInt operator-(BigUInt a, const BigUInt& b) { return a -= b; }
  friend BigUInt operator*(BigUInt a, const BigUInt& b) { return a *= b; }
  friend BigUInt operator/(BigUInt a, const BigUInt& b) { return a /= b; }
  friend BigUInt operator%(BigUInt a, const BigUInt& b) { return a %= b; }
  friend BigUInt operator<<(BigUInt a, std::size_t s) { return a <<= s; }
  friend BigUInt operator>>(BigUInt a, std::size_t s) { return a >>= s; }

  // Quotient and remainder in one pass (Knuth Algorithm D).
  // Throws std::domain_error when divisor is zero.
  static DivMod divmod(const BigUInt& dividend, const BigUInt& divisor);

  // (a * b) mod m. m must be nonzero.
  static BigUInt mulmod(const BigUInt& a, const BigUInt& b, const BigUInt& m);
  // (base ^ exponent) mod m via left-to-right square and multiply.
  // m must be nonzero; returns 0 when m == 1.
  static BigUInt modexp(const BigUInt& base, const BigUInt& exponent,
                        const BigUInt& m);
  // Greatest common divisor (Euclid over divmod).
  static BigUInt gcd(BigUInt a, BigUInt b);
  // Multiplicative inverse of a modulo m in [0, m), if gcd(a, m) == 1
  // (so 0 for every a when m == 1); m must be nonzero. Lehmer's extended
  // Euclid: runs of single-word steps on the leading 64 bits, checked by
  // Collins' condition, applied as 2x2 cosequence matrices to fixed-width
  // limb buffers, allocating per call but not per step. An even a modulo
  // an even m returns nullopt at once. About 1 us at 256 bits.
  static std::optional<BigUInt> modinv(const BigUInt& a, const BigUInt& m);

  // Uniform sample from [0, bound) via rejection sampling. bound must be > 0.
  static BigUInt random_below(RandomSource& rng, const BigUInt& bound);
  // Uniform sample with exactly `bits` significant bits (top bit forced).
  static BigUInt random_bits(RandomSource& rng, std::size_t bits);

  // Access for serialisation layers; little-endian limbs, no trailing zeros.
  const std::vector<std::uint64_t>& limbs() const { return limbs_; }

 private:
  void trim();
  static int compare_magnitudes(const std::vector<std::uint64_t>& a,
                                const std::vector<std::uint64_t>& b);

  std::vector<std::uint64_t> limbs_;
};

// Result of BigUInt::divmod.
struct DivMod {
  BigUInt quotient;
  BigUInt remainder;
};

std::ostream& operator<<(std::ostream& os, const BigUInt& v);

}  // namespace dla::bn
