// One-way modular accumulator (Benaloh-de Mare), Section 4.1 of the paper.
//
// A(x, y) = x^y mod n where n is an RSA modulus of unknown factorisation.
// Accumulation is order-independent (Eq. 9):
//   A(A(A(x0,y1),y2),y3) == A(A(A(x0,y2),y3),y1)
// which is exactly what lets the DLA cluster circulate partial accumulations
// of log fragments in ring order and compare against the value the user
// deposited, without any node revealing its fragment.
//
// Items are arbitrary byte strings; they are mapped to odd exponents via
// SHA-256 (odd so that the exponent is coprime to lambda(n) with overwhelming
// probability, keeping the map collision-resistant).
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bignum/biguint.hpp"
#include "bignum/montgomery.hpp"
#include "crypto/modexp_engine.hpp"
#include "crypto/rng.hpp"

namespace dla::crypto {

class Accumulator {
 public:
  // Shared public parameters: modulus n = p*q and agreed base x0.
  struct Params {
    bn::BigUInt n;
    bn::BigUInt x0;

    // Generate fresh parameters with a `bits`-bit modulus. The factors are
    // discarded (trusted setup, as in [26]).
    static Params generate(ChaCha20Rng& rng, std::size_t bits);
    // Fixed 256-bit parameters for tests/examples.
    static Params fixed256();
  };

  explicit Accumulator(Params params);

  // Current accumulated value (x0 when nothing was added).
  const bn::BigUInt& value() const { return value_; }
  const Params& params() const { return params_; }

  // Absorb one item. Returns *this for chaining.
  Accumulator& add(std::string_view item);

  // Continue accumulation from an intermediate value received from a peer —
  // the circulation step of the distributed integrity check.
  static bn::BigUInt step(const Params& params, const bn::BigUInt& current,
                          std::string_view item);
  // Montgomery fast path for callers that hold a context for params.n
  // (e.g. a DLA node folding many circulation steps).
  static bn::BigUInt step_with(const bn::MontgomeryContext& ctx,
                               const bn::BigUInt& current,
                               std::string_view item);

  // Map an item to its (odd) exponent; exposed for tests.
  static bn::BigUInt item_exponent(std::string_view item);

 private:
  Params params_;
  bn::MontgomeryContext mont_;
  bn::BigUInt value_;
};

// Key handle for one parameter set's accumulator on the protocol path: the
// user's deposit and the steps of the distributed integrity check, so
// protocol code never touches raw bignum kernels (dla_lint's
// crypto-boundary rule keeps those confined to the crypto layer).
//
// A deposit folds one item per fragment. By Eq. 9 its value is x0 raised
// to the product of the items' exponents, so it is one power of the fixed
// base x0: the handle takes it through the process-wide FixedBaseEngine
// comb for (x0, n) sized at 256 bits (an item exponent's width) per item,
// built once per parameter set and item count and shared by every handle.
// The product is taken in Z, unreduced, so a deposit is bit-identical to
// folding the items one by one with Accumulator::add.
class AccumulatorStepper {
 public:
  // `items`: how many items a deposit folds (the cluster size). A deposit
  // of more items is still exact, through the comb's wide fallback.
  AccumulatorStepper(const Accumulator::Params& params, std::size_t items);

  // A(x0, items...): the value Accumulator::add leaves after every item.
  bn::BigUInt deposit(const std::vector<std::string>& items) const;
  // A(current, item): one later step of a circulation.
  bn::BigUInt step(const bn::BigUInt& current, std::string_view item) const;

 private:
  std::shared_ptr<const FixedBaseEngine> x0_comb_;
};

}  // namespace dla::crypto
