#include "crypto/accumulator.hpp"

#include "bignum/prime.hpp"
#include "crypto/sha256.hpp"

namespace dla::crypto {

namespace {

// item_exponent() is a SHA-256 digest, made odd without a carry.
constexpr std::size_t kItemExponentBits = 256;

}  // namespace

Accumulator::Params Accumulator::Params::generate(ChaCha20Rng& rng,
                                                  std::size_t bits) {
  bn::BigUInt p = bn::generate_prime(rng, bits / 2);
  bn::BigUInt q = bn::generate_prime(rng, bits - bits / 2);
  bn::BigUInt n = p * q;
  // Any x0 in [2, n-2] coprime to n works; a random draw collides with a
  // factor only with negligible probability.
  bn::BigUInt x0 =
      bn::BigUInt::random_below(rng, n - bn::BigUInt(3)) + bn::BigUInt(2);
  return Params{std::move(n), std::move(x0)};
}

Accumulator::Params Accumulator::Params::fixed256() {
  // Precomputed 256-bit RSA modulus of two 128-bit primes (factors discarded).
  static const bn::BigUInt n = bn::BigUInt::from_hex(
      "c7bea52f7ecdea46eaa073a2196b308db3041eb80decb72ed82bcae1108e1d37");
  return Params{n, bn::BigUInt(3)};
}

Accumulator::Accumulator(Params params)
    : params_(std::move(params)), mont_(params_.n), value_(params_.x0) {}

bn::BigUInt Accumulator::item_exponent(std::string_view item) {
  Digest d = Sha256::hash(item);
  bn::BigUInt e = bn::BigUInt::from_bytes({d.begin(), d.end()});
  if (e.is_even()) e += bn::BigUInt(1);
  return e;
}

bn::BigUInt Accumulator::step(const Params& params, const bn::BigUInt& current,
                              std::string_view item) {
  return bn::BigUInt::modexp(current, item_exponent(item), params.n);
}

bn::BigUInt Accumulator::step_with(const bn::MontgomeryContext& ctx,
                                   const bn::BigUInt& current,
                                   std::string_view item) {
  return ctx.pow(current, item_exponent(item));
}

Accumulator& Accumulator::add(std::string_view item) {
  value_ = step_with(mont_, value_, item);
  return *this;
}

AccumulatorStepper::AccumulatorStepper(const Accumulator::Params& params,
                                       std::size_t items)
    : x0_comb_(FixedBaseEngine::shared(params.x0, params.n,
                                       kItemExponentBits * items)) {}

bn::BigUInt AccumulatorStepper::deposit(
    const std::vector<std::string>& items) const {
  bn::BigUInt exponent(1);
  for (const auto& item : items) {
    exponent *= Accumulator::item_exponent(item);
  }
  return x0_comb_->pow(exponent);
}

bn::BigUInt AccumulatorStepper::step(const bn::BigUInt& current,
                                     std::string_view item) const {
  return Accumulator::step_with(x0_comb_->context(), current, item);
}

}  // namespace dla::crypto
