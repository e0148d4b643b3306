// Batched fixed-exponent / fixed-base modular exponentiation engines.
//
// Every hot protocol loop in this repository raises many values to the SAME
// exponent over the SAME modulus — one Pohlig-Hellman ring hop encrypts the
// whole circulating set with one session key (Figure 4), an RSA signer
// always uses its private exponent d, threshold-Schnorr signers exponentiate
// the fixed generator g. A naive modexp re-derives the exponent's window
// structure and re-allocates its Montgomery temporaries for every element.
//
// ModExpEngine amortizes the exponent-invariant work once per key/session:
//   * the exponent's sliding-window multiplication schedule is compiled at
//     construction and replayed for every base (odd-power windows skip zero
//     runs — fewer multiplies than a fixed window);
//   * per-base odd-power tables and all REDC temporaries live in one flat,
//     reused workspace — the hot loop performs zero heap allocations;
//   * where the context has the 8-lane AVX-512 IFMA kernels (see
//     bignum/montgomery.hpp), pow_batch() runs bases through the schedule
//     in lock-step, as many groups of eight at once as the context runs:
//     two groups (16 bases per replay) while 9 or more bases remain and the
//     modulus is narrow enough (K <= 7 limbs of 52 bits, 362 bits), one
//     group for 2..8, the last group padded by repeating a base. The
//     squarings, about 80% of a modexp's steps, run the lane square. A
//     lone base, a modulus wider than 518 bits or a CPU without IFMA takes
//     the scalar kernel, and so does pow(), the scalar reference. A modexp
//     has one value mod m, so every path gives bit-identical results;
//   * pow_batch() fans independent elements across a small internal thread
//     pool (sized by set_batch_threads / DLA_MODEXP_THREADS, default = the
//     hardware concurrency capped at 8). Callers block until the batch is
//     done, so actor handlers stay run-to-completion; parallelism is only
//     across elements and results are bit-identical to the serial path.
//
// FixedBaseEngine is the transpose: an 8-tooth Lim-Lee comb (Lim & Lee,
// CRYPTO '94) of base products built once per (base, modulus, width), after
// which a b-bit exponent costs ceil(b/8) - 1 squarings and at most
// ceil(b/8) multiplies — the g^k / g^s / y^c shapes of Schnorr and Feldman,
// and the accumulator's x0^(e1*...*en) deposit.
//
// Global modexp_count / modexp_batch_count counters (surfaced through
// audit/metrics) make the per-protocol exponentiation budget observable in
// benchmarks and tests.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "bignum/biguint.hpp"
#include "bignum/montgomery.hpp"

namespace dla::crypto {

// Snapshot of the process-wide exponentiation counters.
struct ModExpStats {
  std::uint64_t modexp_count = 0;        // individual exponentiations
  std::uint64_t modexp_batch_count = 0;  // pow_batch invocations
};
ModExpStats modexp_stats();
void reset_modexp_stats();

// Fixed exponent, varying base: C_i = base_i ^ e mod m.
class ModExpEngine {
 public:
  // ctx must outlive the engine (shared ownership); compiling the window
  // schedule is cheap (a bit scan — no multiplications).
  ModExpEngine(std::shared_ptr<const bn::MontgomeryContext> ctx,
               bn::BigUInt exponent);

  const bn::BigUInt& exponent() const { return exponent_; }
  const bn::MontgomeryContext& context() const { return *ctx_; }

  // base ^ exponent mod m (base may be >= m; reduced first).
  bn::BigUInt pow(const bn::BigUInt& base) const;

  // In-place batch: bases[i] <- bases[i] ^ exponent mod m. Splits across
  // the internal pool when the batch is large enough and more than one
  // thread is allowed; otherwise runs on the calling thread. Either way the
  // results are identical.
  void pow_batch(std::span<bn::BigUInt> bases) const;

  // --- batching knob (process-wide) --------------------------------------
  // Worker threads for pow_batch. 0 = auto (hardware concurrency, capped
  // at 8; overridable via the DLA_MODEXP_THREADS environment variable).
  static void set_batch_threads(std::size_t n);
  static std::size_t batch_threads();

 private:
  // One sliding-window step: square `squarings` times, then multiply by
  // odd-power table entry `table_index` (base^(2*table_index+1)).
  struct WindowOp {
    std::uint32_t squarings = 0;
    std::uint32_t table_index = 0;
  };

  // Exponentiates `count` bases starting at `first` (the per-thread unit of
  // pow_batch): runs of up to lane_groups() * kLanes bases in the lane
  // kernels when the context has them, a lone base in the scalar kernel
  // with one workspace.
  void pow_run(bn::BigUInt* first, std::size_t count) const;
  // Exponentiates 2..lane_groups() * kLanes bases in the lanes of one lane
  // buffer of ceil(count / kLanes) groups.
  void pow_lanes(bn::BigUInt* first, std::size_t count) const;
  // Replays the schedule over values of `width` words through `mul`
  // (a, b, out) and `sqr` (a, out). ws holds table_entries_ + 2 values, the
  // base's Montgomery form first; returns the one holding base^exponent.
  template <class Mul, class Sqr>
  std::uint64_t* replay(std::uint64_t* ws, std::size_t width, const Mul& mul,
                        const Sqr& sqr) const;

  std::shared_ptr<const bn::MontgomeryContext> ctx_;
  bn::BigUInt exponent_;
  std::vector<WindowOp> ops_;       // MSB-first schedule
  std::uint32_t tail_squarings_ = 0;  // trailing zero bits of the exponent
  std::size_t window_bits_ = 0;
  std::size_t table_entries_ = 0;   // odd powers: 2^(window_bits-1)
};

// Fixed base, varying exponent: C_i = base ^ e_i mod m, through an 8-tooth
// Lim-Lee comb. The comb covers exponents of up to w = 8 * d bits, with
// d = ceil(max_exponent_bits / 8) columns: an exponent is read as eight rows
// of d bits, and column c gathers bit c of every row into an index
// v = sum_j e[j*d + c] << j. The table holds the 255 products
// base^(sum_{j in v} 2^(j*d)), so one pass over the columns, MSB first,
// squares once per column and multiplies by at most one table entry.
// Exponents wider than w fall back to MontgomeryContext::pow.
class FixedBaseEngine {
 public:
  FixedBaseEngine(std::shared_ptr<const bn::MontgomeryContext> ctx,
                  const bn::BigUInt& base, std::size_t max_exponent_bits);

  const bn::MontgomeryContext& context() const { return *ctx_; }
  // Widest exponent the comb covers (max_exponent_bits rounded up to 8).
  std::size_t max_exponent_bits() const { return kTeeth * columns_; }

  // base ^ exponent mod m; counted as one modexp.
  bn::BigUInt pow(const bn::BigUInt& exponent) const;

  // Process-wide cache keyed by (base, modulus, width): threshold-Schnorr,
  // DKG and the accumulator share one comb per generator, public key or
  // deposit width instead of rebuilding it per message. Without a width
  // the comb covers the modulus' width. Bounded (small LRU); thread-safe.
  static std::shared_ptr<const FixedBaseEngine> shared(
      const bn::BigUInt& base, const bn::BigUInt& modulus);
  static std::shared_ptr<const FixedBaseEngine> shared(
      const bn::BigUInt& base, const bn::BigUInt& modulus,
      std::size_t max_exponent_bits);

 private:
  static constexpr std::size_t kTeeth = 8;

  // Table entry for index v in 1..255, limb_count() limbs.
  std::uint64_t* entry(std::size_t v) {
    return table_.data() + (v - 1) * ctx_->limb_count();
  }
  const std::uint64_t* entry(std::size_t v) const {
    return table_.data() + (v - 1) * ctx_->limb_count();
  }

  std::shared_ptr<const bn::MontgomeryContext> ctx_;
  bn::BigUInt base_;
  std::size_t columns_ = 0;  // d: the spacing of the teeth
  // Entry v in Montgomery form, as consecutive limb_count()-limb slices of
  // one flat vector; entry 2^j is row j's tooth base^(2^(j*d)).
  std::vector<std::uint64_t> table_;
};

}  // namespace dla::crypto
