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
// Beside the scalar kernels sit 8-lane kernels for batches that share one
// modulus: eight values in the 52-bit lanes of AVX-512 IFMA (Gueron &
// Krasnov, ARITH 2016), radix 2^52, for K = ceil((bits + 2) / 52) limbs,
// K = 1..10 (moduli up to 518 bits). With R = 2^(52K) > 4m they are
// almost-Montgomery: lane values stay in [0, 2m) with no final
// subtraction, and from_lanes_raw returns the canonical value. A lane
// multiply is one serial chain per limb row (q from the low limb, q * m,
// the carry), so a single group is bound by latency, not by IFMA
// throughput. The kernels therefore come from one source templated on
// (K, G) and run G = 1 or 2 independent groups of eight lanes in one
// instruction stream, the groups' IFMAs issued side by side. A dedicated
// square (Drucker & Gueron, ITNG 2019) computes the cross products once,
// doubles them and adds the diagonal before its K reduction rows; it
// returns the same words as the multiply of a value by itself.
//
// Two groups run only for K <= kMaxTwoGroupLimbs = 7, fixed in the kernel
// table: there the two groups' operands and accumulators (about 5K zmm
// values) stay in or near the 32 registers; beyond it the two-group
// multiply spills so much that it costs more than the overlap gains.
// Measured on a 4-core Xeon with AVX-512 IFMA (GCC 12.2, -O2, one thread):
// BM_PohligHellmanEncryptBatch {256, 64} (K = 5) ran 2.1 -> 1.29 us per
// element with two groups and the square, and {512, 128} (K = 10, one
// group) 8.6-11.5 -> 8.9-9.3 us. Per element of ModExpEngine::pow_batch
// over 64 random bases (medians of 5 runs), one group -> two groups and the
// square: K = 6 2.92 -> 2.20 us, K = 7 4.26 -> 3.03 us; two groups without
// the square against one group: K = 8 5.36 -> 5.79 us, K = 10 8.63 ->
// 14.78 us. The square alone, in one group, reads 0.93-0.98x a multiply.
//
// The lane code is compiled only on x86-64, through a target attribute on
// the lane functions (no global -m flag), and the constructor enables it
// once, when the CPU reports AVX-512F and IFMA and K <= 10; lane_limbs()
// and lane_groups() read 0 otherwise.
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
  // A lane group holds lane_limbs() * kLanes words: radix-2^52 limb j of
  // lane l at [j * kLanes + l], each lane a Montgomery form for
  // R = 2^(52 * lane_limbs()) in [0, 2m). A buffer of G groups holds
  // G * lane_limbs() * kLanes words, group g at g * lane_limbs() * kLanes.
  // None of these allocates.
  static constexpr std::size_t kLanes = 8;
  static constexpr std::size_t kMaxLaneLimbs = 10;
  // The widest K that runs two groups per call; see the file comment.
  static constexpr std::size_t kMaxTwoGroupLimbs = 7;
  // K when this context runs the lane kernel; 0 on a CPU without AVX-512
  // IFMA or for a modulus wider than 518 bits.
  std::size_t lane_limbs() const { return lane_limbs_; }
  // The most groups one lane_mul_raw or lane_sqr_raw call runs: 2 for
  // K <= kMaxTwoGroupLimbs, 1 above, 0 without lanes.
  std::size_t lane_groups() const { return lane_groups_; }
  // One group: lane l <- v[l] * R mod m (v[l] reduced first) for
  // l < count; the lanes from count on repeat v[0]. 1 <= count <= kLanes.
  void to_lanes_raw(const BigUInt* v, std::size_t count,
                    std::uint64_t* out) const;
  // out = a * b * R^-1 mod m in every lane of `groups` groups,
  // 1 <= groups <= lane_groups(). `out` may alias `a` or `b`.
  void lane_mul_raw(const std::uint64_t* a, const std::uint64_t* b,
                    std::uint64_t* out, std::size_t groups) const;
  // out = a^2 * R^-1 mod m, the same words lane_mul_raw(a, a, out, groups)
  // writes; the product takes K(K+1)/2 limb multiplies instead of K^2.
  // `out` may alias `a`.
  void lane_sqr_raw(const std::uint64_t* a, std::uint64_t* out,
                    std::size_t groups) const;
  // One group: out[l] <- lane l * R^-1 mod m, canonical, for l < count.
  void from_lanes_raw(const std::uint64_t* v, std::size_t count,
                      BigUInt* out) const;

 private:
  // Function pointers to the multiply, square and REDC kernels for one limb
  // count; defined in montgomery.cpp.
  struct Kernels;
  // The same for the lane multiply and square of one K, per group count.
  struct LaneKernels;

  Limbs mont_mul(const Limbs& a, const Limbs& b) const;

  const Kernels* kernels_ = nullptr;  // chosen once, by the constructor
  BigUInt modulus_;
  std::size_t n_limbs_ = 0;
  std::uint64_t n_prime_ = 0;  // -m^-1 mod 2^64
  Limbs r2_;                   // R^2 mod m (for to_mont)
  Limbs one_mont_;             // R mod m (Montgomery one)
  Limbs mod_limbs_;

  // Radix-2^52 constants of the lane kernels, set only when they run.
  const LaneKernels* lane_kernels_ = nullptr;
  std::size_t lane_limbs_ = 0;
  std::size_t lane_groups_ = 0;
  std::uint64_t lane_k0_ = 0;  // -m^-1 mod 2^52
  Limbs lane_mod_;             // m, K limbs of 52 bits
  Limbs lane_r2_;              // R^2 mod m, broadcast to every lane
};

}  // namespace dla::bn
