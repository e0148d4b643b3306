// Montgomery-form modular arithmetic and windowed exponentiation.
//
// Every protocol in this repository bottoms out in modexp over a fixed odd
// modulus (Pohlig-Hellman prime, RSA modulus, accumulator modulus,
// threshold-Schnorr prime). MontgomeryContext precomputes the Montgomery
// parameters for such a modulus once and provides:
//   * REDC-based modular multiplication without division,
//   * a fixed 4-bit-window exponentiation,
//   * a raw limb-form API (mont_mul_raw + to_mont/from_mont) that lets
//     callers run long multiply chains with zero heap allocation — the
//     substrate of crypto::ModExpEngine's batched fixed-exponent kernel.
// BigUInt::modexp remains the generic (odd or even modulus) path;
// MontgomeryContext::pow is the fast path used by the crypto layer when the
// modulus is odd (see bench_set_intersection's BM_PohligHellmanEncrypt).
//
// The raw multiply, square and REDC come from one kernel source templated
// on the limb count N. N = 1..8 (64- to 512-bit moduli, every modulus the
// repository builds) get compile-time loop bounds and a local product, so
// the compiler unrolls them and keeps the product in registers; the N = 0
// instantiation reads the width at run time, works in the caller's scratch
// and serves wider moduli. The constructor picks the kernels once from the
// modulus' limb count, so no raw operation branches on the width. The
// multiply is CIOS (product and reduction interleaved per limb); the square
// computes the cross terms once, doubles them, adds the diagonal and then
// runs REDC. A fully reduced Montgomery product is unique, so every width
// gives bit-identical results. Measured on an x86-64 Xeon (GCC 12.2, -O2),
// a square costs 1.0x a multiply at 256 bits and 0.8x at 512 and 1024 bits.
//
// Beside the scalar kernels sits an 8-lane multiply for batches that share
// one modulus: eight values in the 52-bit lanes of AVX-512 IFMA (Gueron &
// Krasnov, ARITH 2016), radix 2^52, one kernel source templated on the
// 52-bit limb count K = ceil((bits + 2) / 52) for K = 1..10 (moduli up to
// 518 bits). With R = 2^(52K) > 4m it is an almost-Montgomery multiply: lane
// values stay in [0, 2m) with no final subtraction, and from_lanes_raw
// returns the canonical value. The lane code is compiled only on x86-64,
// through a target attribute on the lane functions (no global -m flag), and
// the constructor enables it once, when the CPU reports AVX-512F and IFMA
// and K <= 10; lane_limbs() reads 0 otherwise.
#pragma once

#include <cstdint>
#include <vector>

#include "bignum/biguint.hpp"

namespace dla::bn {

class MontgomeryContext {
 public:
  // Fixed-width little-endian limb vector of limb_count() limbs, value < m,
  // in Montgomery form (v * R mod m).
  using Limbs = std::vector<std::uint64_t>;

  // modulus must be odd and >= 3; throws std::invalid_argument otherwise.
  explicit MontgomeryContext(BigUInt modulus);

  const BigUInt& modulus() const { return modulus_; }
  std::size_t limb_count() const { return n_limbs_; }

  // (a * b) mod m via Montgomery REDC. Inputs must be < m.
  BigUInt mulmod(const BigUInt& a, const BigUInt& b) const;

  // (base ^ exponent) mod m via 4-bit windowed Montgomery exponentiation.
  // base may be >= m (reduced first).
  BigUInt pow(const BigUInt& base, const BigUInt& exponent) const;

  // --- raw limb-form API (crypto::ModExpEngine fast path) -----------------
  // All raw entry points operate on limb_count()-limb buffers holding
  // Montgomery-form values < m. None of them allocates.

  Limbs to_mont(const BigUInt& v) const;    // v * R mod m (reduces v first)
  BigUInt from_mont(const Limbs& v) const;  // v * R^-1 mod m
  // The Montgomery representation of 1 (R mod m).
  const Limbs& mont_one() const { return one_mont_; }
  // Limbs a scratch buffer passed to mont_mul_raw must hold.
  std::size_t scratch_limbs() const { return 2 * n_limbs_ + 1; }
  // out = a * b * R^-1 mod m. `out` may alias `a` or `b`; `scratch` must
  // hold scratch_limbs() limbs and must not alias the operands.
  void mont_mul_raw(const std::uint64_t* a, const std::uint64_t* b,
                    std::uint64_t* out, std::uint64_t* scratch) const;
  // out = a^2 * R^-1 mod m: the cross terms are computed once and doubled,
  // so the product takes n(n+1)/2 limb multiplies instead of n^2.
  // Exponentiation is squaring-dominated, so this is the hottest kernel.
  void mont_sqr_raw(const std::uint64_t* a, std::uint64_t* out,
                    std::uint64_t* scratch) const;
  // Writes v * R mod m into `out` (to_mont without the vector return).
  // `out` must not alias `scratch`.
  void to_mont_raw(const BigUInt& v, std::uint64_t* out,
                   std::uint64_t* scratch) const;
  // out = v * R^-1 mod m by straight REDC — from_mont without the dummy
  // multiply by 1. `out` may alias `v`.
  void redc_raw(const std::uint64_t* v, std::uint64_t* out,
                std::uint64_t* scratch) const;

  // --- 8-lane API (crypto::ModExpEngine batch path) -----------------------
  // A lane buffer holds lane_limbs() * kLanes words: radix-2^52 limb j of
  // lane l at [j * kLanes + l], each lane a Montgomery form for
  // R = 2^(52 * lane_limbs()) in [0, 2m). None of these allocates.
  static constexpr std::size_t kLanes = 8;
  static constexpr std::size_t kMaxLaneLimbs = 10;
  // K when this context runs the lane kernel; 0 on a CPU without AVX-512
  // IFMA or for a modulus wider than 518 bits.
  std::size_t lane_limbs() const { return lane_limbs_; }
  // Lane l <- v[l] * R mod m (v[l] reduced first) for l < count; the lanes
  // from count on repeat v[0]. 1 <= count <= kLanes.
  void to_lanes_raw(const BigUInt* v, std::size_t count,
                    std::uint64_t* out) const;
  // out = a * b * R^-1 mod m in every lane. `out` may alias `a` or `b`.
  void lane_mul_raw(const std::uint64_t* a, const std::uint64_t* b,
                    std::uint64_t* out) const;
  // out[l] <- lane l * R^-1 mod m, canonical, for l < count.
  void from_lanes_raw(const std::uint64_t* v, std::size_t count,
                      BigUInt* out) const;

 private:
  // Function pointers to the multiply, square and REDC kernels for one limb
  // count; defined in montgomery.cpp.
  struct Kernels;
  using LaneMul = void (*)(const std::uint64_t* mod, std::uint64_t k0,
                           const std::uint64_t* a, const std::uint64_t* b,
                           std::uint64_t* out);

  Limbs mont_mul(const Limbs& a, const Limbs& b) const;

  const Kernels* kernels_ = nullptr;  // chosen once, by the constructor
  BigUInt modulus_;
  std::size_t n_limbs_ = 0;
  std::uint64_t n_prime_ = 0;  // -m^-1 mod 2^64
  Limbs r2_;                   // R^2 mod m (for to_mont)
  Limbs one_mont_;             // R mod m (Montgomery one)
  Limbs mod_limbs_;

  // Radix-2^52 constants of the lane kernel, set only when it runs.
  LaneMul lane_mul_ = nullptr;
  std::size_t lane_limbs_ = 0;
  std::uint64_t lane_k0_ = 0;  // -m^-1 mod 2^52
  Limbs lane_mod_;             // m, K limbs of 52 bits
  Limbs lane_r2_;              // R^2 mod m, broadcast to every lane
};

}  // namespace dla::bn
