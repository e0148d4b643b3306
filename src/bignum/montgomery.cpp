#include "bignum/montgomery.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace dla::bn {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

constexpr u64 kMask52 = (u64{1} << 52) - 1;
constexpr std::size_t kLanes = MontgomeryContext::kLanes;

// -m^-1 mod 2^64 by Newton iteration (m odd).
u64 neg_inverse_64(u64 m) {
  u64 inv = m;  // 3 correct bits
  for (int i = 0; i < 5; ++i) {
    inv *= 2 - m * inv;  // doubles correct bits each round
  }
  return ~inv + 1;  // -(m^-1)
}

// The widest modulus (in limbs) that gets a kernel with compile-time loop
// bounds; wider moduli run the N = 0 instantiation, which reads the width
// at run time and works in the caller's scratch.
constexpr std::size_t kMaxFixedLimbs = 8;

// Kernels templated on the limb count N. For N > 0 the width w is the
// constant N in every loop bound (final_sub and reduce inline into their
// callers) and the working product is a local array, so the unroll pragmas
// flatten the loops and the product lives in registers; for N = 0 the same
// source runs over the run-time width in `scratch` (scratch_limbs() = 2w + 1
// covers every kernel). The kernels write `out` only after their last read
// of the operands, so `out` may alias them.
template <std::size_t N>
struct Kernel {
  // (top:t) < 2m reduced into out: t - m unless that borrows past `top`.
  static void final_sub(const u64* t, u64 top, const u64* mod, std::size_t w,
                        u64* out) {
    u64 borrow = 0;
#pragma GCC unroll 8
    for (std::size_t j = 0; j < w; ++j) {
      const u128 d = static_cast<u128>(t[j]) - mod[j] - borrow;
      out[j] = static_cast<u64>(d);
      borrow = static_cast<u64>(d >> 64) & 1;
    }
    if (borrow > top) std::copy_n(t, w, out);  // t < m already
  }

  // REDC of the 2w-limb t < m * R: one row per limb, each row's carry out of
  // limb i + w is summed into a single top word instead of being propagated.
  static void reduce(u64* t, const u64* mod, u64 n_prime, std::size_t w,
                     u64* out) {
    u64 top = 0;
#pragma GCC unroll 8
    for (std::size_t i = 0; i < w; ++i) {
      const u64 m = t[i] * n_prime;
      u64 carry = 0;
#pragma GCC unroll 8
      for (std::size_t j = 0; j < w; ++j) {
        const u128 cur = static_cast<u128>(t[i + j]) +
                         static_cast<u128>(m) * mod[j] + carry;
        t[i + j] = static_cast<u64>(cur);
        carry = static_cast<u64>(cur >> 64);
      }
      const u128 cur = static_cast<u128>(t[i + w]) + carry + top;
      t[i + w] = static_cast<u64>(cur);
      top = static_cast<u64>(cur >> 64);
    }
    final_sub(t + w, top, mod, w, out);
  }

  // CIOS: each row adds a[i] * b, then divides by 2^64 after adding the
  // multiple of m that clears limb 0; t stays < 2m in w + 1 limbs.
  static void mul(const u64* mod, u64 n_prime, std::size_t n, const u64* a,
                  const u64* b, u64* out, u64* scratch) {
    const std::size_t w = N ? N : n;
    std::array<u64, N + 1> local{};
    u64* t = N ? local.data() : scratch;
    if constexpr (N == 0) std::fill_n(t, w + 1, 0);
#pragma GCC unroll 8
    for (std::size_t i = 0; i < w; ++i) {
      const u128 ai = a[i];
      u64 carry = 0;
#pragma GCC unroll 8
      for (std::size_t j = 0; j < w; ++j) {
        const u128 cur = static_cast<u128>(t[j]) + ai * b[j] + carry;
        t[j] = static_cast<u64>(cur);
        carry = static_cast<u64>(cur >> 64);
      }
      u128 cur = static_cast<u128>(t[w]) + carry;
      t[w] = static_cast<u64>(cur);
      const u64 hi = static_cast<u64>(cur >> 64);

      const u64 m = t[0] * n_prime;
      cur = static_cast<u128>(t[0]) + static_cast<u128>(m) * mod[0];
      carry = static_cast<u64>(cur >> 64);
#pragma GCC unroll 8
      for (std::size_t j = 1; j < w; ++j) {
        cur = static_cast<u128>(t[j]) + static_cast<u128>(m) * mod[j] + carry;
        t[j - 1] = static_cast<u64>(cur);
        carry = static_cast<u64>(cur >> 64);
      }
      cur = static_cast<u128>(t[w]) + carry;
      t[w - 1] = static_cast<u64>(cur);
      t[w] = hi + static_cast<u64>(cur >> 64);
    }
    final_sub(t, t[w], mod, w, out);
  }

  // The cross terms a[i] * a[j] (i < j) once, doubled, plus the diagonal
  // a[i]^2, then REDC.
  static void sqr(const u64* mod, u64 n_prime, std::size_t n, const u64* a,
                  u64* out, u64* scratch) {
    const std::size_t w = N ? N : n;
    std::array<u64, 2 * N> local{};
    u64* t = N ? local.data() : scratch;
    if constexpr (N == 0) std::fill_n(t, 2 * w, 0);
#pragma GCC unroll 8
    for (std::size_t i = 0; i + 1 < w; ++i) {
      const u128 ai = a[i];
      u64 carry = 0;
#pragma GCC unroll 8
      for (std::size_t j = i + 1; j < w; ++j) {
        const u128 cur = static_cast<u128>(t[i + j]) + ai * a[j] + carry;
        t[i + j] = static_cast<u64>(cur);
        carry = static_cast<u64>(cur >> 64);
      }
      t[i + w] = carry;
    }
    // a^2 < R^2, so the doubling never shifts a bit out of limb 2w - 1.
    u64 bit = 0;
#pragma GCC unroll 16
    for (std::size_t k = 0; k < 2 * w; ++k) {
      const u64 next = t[k] >> 63;
      t[k] = (t[k] << 1) | bit;
      bit = next;
    }
    u64 carry = 0;
#pragma GCC unroll 8
    for (std::size_t i = 0; i < w; ++i) {
      const u128 sq = static_cast<u128>(a[i]) * a[i];
      const u128 lo =
          static_cast<u128>(t[2 * i]) + static_cast<u64>(sq) + carry;
      t[2 * i] = static_cast<u64>(lo);
      const u128 hi = static_cast<u128>(t[2 * i + 1]) +
                      static_cast<u64>(sq >> 64) + static_cast<u64>(lo >> 64);
      t[2 * i + 1] = static_cast<u64>(hi);
      carry = static_cast<u64>(hi >> 64);
    }
    reduce(t, mod, n_prime, w, out);
  }

  static void redc(const u64* mod, u64 n_prime, std::size_t n, const u64* v,
                   u64* out, u64* scratch) {
    const std::size_t w = N ? N : n;
    std::array<u64, 2 * N> local{};
    u64* t = N ? local.data() : scratch;
    if constexpr (N == 0) std::fill_n(t, 2 * w, 0);
    std::copy_n(v, w, t);
    reduce(t, mod, n_prime, w, out);
  }
};

template <class Table, std::size_t... N>
constexpr std::array<Table, sizeof...(N)> kernel_table(
    std::index_sequence<N...>) {
  return {{{&Kernel<N>::mul, &Kernel<N>::sqr, &Kernel<N>::redc}...}};
}

// Radix-2^52 limbs 0..k-1 of the n-limb x; limb j goes to out[j * stride].
void split52(const u64* x, std::size_t n, std::size_t k, std::size_t stride,
             u64* out) {
  for (std::size_t j = 0; j < k; ++j) {
    const std::size_t word = 52 * j / 64;
    const std::size_t shift = 52 * j % 64;
    u64 v = word < n ? x[word] >> shift : 0;
    if (shift > 12 && word + 1 < n) v |= x[word + 1] << (64 - shift);
    out[j * stride] = v & kMask52;
  }
}

// The inverse of split52 for a value below 2^(64n): n limbs into out.
void join52(const u64* v, std::size_t k, std::size_t stride, std::size_t n,
            u64* out) {
  std::fill_n(out, n, 0);
  for (std::size_t j = 0; j < k; ++j) {
    const u64 limb = v[j * stride];
    const std::size_t word = 52 * j / 64;
    const std::size_t shift = 52 * j % 64;
    if (word < n) out[word] |= limb << shift;
    if (shift > 12 && word + 1 < n) out[word + 1] |= limb >> (64 - shift);
  }
}

#if defined(__x86_64__)
// AVX-512F and IFMA on this CPU, read once per process.
bool cpu_has_lanes() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512ifma");
  }();
  return has;
}

// The 8-lane almost-Montgomery kernels for K limbs of 52 bits, run over G
// independent lane groups in one instruction stream: every step issues the
// G groups' IFMAs side by side, so the out-of-order core overlaps their
// serial q -> q * m -> carry chains, which bound a single group's speed.
// Group g's operands and result sit at word g * K * kLanes. Products go in
// as unnormalised low and high 52-bit halves into 64-bit lane accumulators;
// a limb gathers fewer than 4K + 3 halves below 2^52 (< 2^58 for K <= 10),
// so one carry pass normalises the result, and no carry leaves its top limb
// because the result is below 2m < R. Both kernels return (T + Q * m) / R
// for the same product T and the unique Q < R with T + Q * m = 0 mod R, so
// the square and the multiply of a value by itself agree word for word.
// Every __m512i stays inside these functions: only word arrays cross them.
// Shifts use the zero-masking form with every lane selected: it is the same
// instruction, but GCC 12's unmasked forms pass an undefined source that
// trips -Wuninitialized (GCC bugzilla 105593).
#define DLA_LANE_TARGET __attribute__((target("avx512f,avx512ifma")))

DLA_LANE_TARGET inline __m512i srli52(__m512i v) {
  return _mm512_maskz_srli_epi64(0xFF, v, 52);
}

// Normalises the K accumulators t of one group into out, K limbs of 52 bits.
template <std::size_t K>
DLA_LANE_TARGET inline void lane_store(const __m512i* t, u64* out) {
  const __m512i mask = _mm512_set1_epi64(static_cast<long long>(kMask52));
  __m512i carry = _mm512_setzero_si512();
#pragma GCC unroll 10
  for (std::size_t j = 0; j < K; ++j) {
    const __m512i v = _mm512_add_epi64(t[j], carry);
    _mm512_storeu_si512(out + j * kLanes, _mm512_and_si512(v, mask));
    carry = srli52(v);
  }
}

// Operand scanning: row i adds b[i] * a and then q * m, q = acc[0] * k0 mod
// 2^52, and drops the low limb that q cleared.
template <std::size_t K, std::size_t G>
DLA_LANE_TARGET void lane_mul(const u64* mod, u64 k0, const u64* a,
                              const u64* b, u64* out) {
  const __m512i zero = _mm512_setzero_si512();
  const __m512i k0v = _mm512_set1_epi64(static_cast<long long>(k0));
  __m512i mv[K] = {};
  __m512i av[G][K] = {};
  __m512i acc[G][K + 1] = {};
#pragma GCC unroll 10
  for (std::size_t j = 0; j < K; ++j) {
    mv[j] = _mm512_set1_epi64(static_cast<long long>(mod[j]));
#pragma GCC unroll 2
    for (std::size_t g = 0; g < G; ++g) {
      av[g][j] = _mm512_loadu_si512(a + (g * K + j) * kLanes);
    }
  }
#pragma GCC unroll 10
  for (std::size_t i = 0; i < K; ++i) {
    __m512i bi[G];
    __m512i q[G];
#pragma GCC unroll 2
    for (std::size_t g = 0; g < G; ++g) {
      bi[g] = _mm512_loadu_si512(b + (g * K + i) * kLanes);
    }
#pragma GCC unroll 10
    for (std::size_t j = 0; j < K; ++j) {
#pragma GCC unroll 2
      for (std::size_t g = 0; g < G; ++g) {
        acc[g][j] = _mm512_madd52lo_epu64(acc[g][j], av[g][j], bi[g]);
        acc[g][j + 1] = _mm512_madd52hi_epu64(acc[g][j + 1], av[g][j], bi[g]);
      }
    }
#pragma GCC unroll 2
    for (std::size_t g = 0; g < G; ++g) {
      q[g] = _mm512_madd52lo_epu64(zero, acc[g][0], k0v);
    }
#pragma GCC unroll 10
    for (std::size_t j = 0; j < K; ++j) {
#pragma GCC unroll 2
      for (std::size_t g = 0; g < G; ++g) {
        acc[g][j] = _mm512_madd52lo_epu64(acc[g][j], mv[j], q[g]);
        acc[g][j + 1] = _mm512_madd52hi_epu64(acc[g][j + 1], mv[j], q[g]);
      }
    }
#pragma GCC unroll 2
    for (std::size_t g = 0; g < G; ++g) {
      acc[g][1] = _mm512_add_epi64(acc[g][1], srli52(acc[g][0]));
#pragma GCC unroll 10
      for (std::size_t j = 0; j < K; ++j) acc[g][j] = acc[g][j + 1];
      acc[g][K] = zero;
    }
  }
#pragma GCC unroll 2
  for (std::size_t g = 0; g < G; ++g) {
    lane_store<K>(acc[g], out + g * K * kLanes);
  }
}

// The cross products a[i] * a[j] (i < j) once into a 2K-limb accumulator,
// doubled with one add per limb, plus the diagonal a[i]^2; then K reduction
// rows, row i adding q * m at limb i, q = t[i] * k0 mod 2^52, and carrying
// t[i] >> 52 into t[i + 1]. Limbs K..2K-1 hold the result.
template <std::size_t K, std::size_t G>
DLA_LANE_TARGET void lane_sqr(const u64* mod, u64 k0, const u64* a,
                              u64* out) {
  const __m512i zero = _mm512_setzero_si512();
  const __m512i k0v = _mm512_set1_epi64(static_cast<long long>(k0));
  __m512i av[G][K] = {};
  __m512i t[G][2 * K] = {};
#pragma GCC unroll 2
  for (std::size_t g = 0; g < G; ++g) {
#pragma GCC unroll 10
    for (std::size_t j = 0; j < K; ++j) {
      av[g][j] = _mm512_loadu_si512(a + (g * K + j) * kLanes);
    }
  }
#pragma GCC unroll 10
  for (std::size_t i = 0; i + 1 < K; ++i) {
#pragma GCC unroll 10
    for (std::size_t j = i + 1; j < K; ++j) {
#pragma GCC unroll 2
      for (std::size_t g = 0; g < G; ++g) {
        t[g][i + j] = _mm512_madd52lo_epu64(t[g][i + j], av[g][i], av[g][j]);
        t[g][i + j + 1] =
            _mm512_madd52hi_epu64(t[g][i + j + 1], av[g][i], av[g][j]);
      }
    }
  }
#pragma GCC unroll 10
  for (std::size_t i = 0; i < K; ++i) {
#pragma GCC unroll 2
    for (std::size_t g = 0; g < G; ++g) {
      const __m512i lo = _mm512_add_epi64(t[g][2 * i], t[g][2 * i]);
      const __m512i hi = _mm512_add_epi64(t[g][2 * i + 1], t[g][2 * i + 1]);
      t[g][2 * i] = _mm512_madd52lo_epu64(lo, av[g][i], av[g][i]);
      t[g][2 * i + 1] = _mm512_madd52hi_epu64(hi, av[g][i], av[g][i]);
    }
  }
#pragma GCC unroll 10
  for (std::size_t i = 0; i < K; ++i) {
    __m512i q[G];
#pragma GCC unroll 2
    for (std::size_t g = 0; g < G; ++g) {
      q[g] = _mm512_madd52lo_epu64(zero, t[g][i], k0v);
    }
#pragma GCC unroll 10
    for (std::size_t j = 0; j < K; ++j) {
      const __m512i mj = _mm512_set1_epi64(static_cast<long long>(mod[j]));
#pragma GCC unroll 2
      for (std::size_t g = 0; g < G; ++g) {
        t[g][i + j] = _mm512_madd52lo_epu64(t[g][i + j], mj, q[g]);
        t[g][i + j + 1] = _mm512_madd52hi_epu64(t[g][i + j + 1], mj, q[g]);
      }
    }
#pragma GCC unroll 2
    for (std::size_t g = 0; g < G; ++g) {
      t[g][i + 1] = _mm512_add_epi64(t[g][i + 1], srli52(t[g][i]));
    }
  }
#pragma GCC unroll 2
  for (std::size_t g = 0; g < G; ++g) {
    lane_store<K>(t[g] + K, out + g * K * kLanes);
  }
}

// Two groups for K <= kMaxTwoGroupLimbs, one above; see the header.
template <class Table, std::size_t K>
constexpr Table lane_kernels() {
  if constexpr (K <= MontgomeryContext::kMaxTwoGroupLimbs) {
    return {{&lane_mul<K, 1>, &lane_mul<K, 2>},
            {&lane_sqr<K, 1>, &lane_sqr<K, 2>}};
  } else {
    return {{&lane_mul<K, 1>, nullptr}, {&lane_sqr<K, 1>, nullptr}};
  }
}

template <class Table, std::size_t... K>
constexpr std::array<Table, sizeof...(K)> lane_table(
    std::index_sequence<K...>) {
  return {{lane_kernels<Table, K + 1>()...}};
}
#undef DLA_LANE_TARGET
#endif

}  // namespace

struct MontgomeryContext::Kernels {
  void (*mul)(const u64* mod, u64 n_prime, std::size_t n, const u64* a,
              const u64* b, u64* out, u64* scratch);
  void (*sqr)(const u64* mod, u64 n_prime, std::size_t n, const u64* a,
              u64* out, u64* scratch);
  void (*redc)(const u64* mod, u64 n_prime, std::size_t n, const u64* v,
               u64* out, u64* scratch);
};

struct MontgomeryContext::LaneKernels {
  // Entry g - 1 runs g groups; null where K is too wide for two.
  void (*mul[2])(const u64* mod, u64 k0, const u64* a, const u64* b,
                 u64* out);
  void (*sqr[2])(const u64* mod, u64 k0, const u64* a, u64* out);
};

MontgomeryContext::MontgomeryContext(BigUInt modulus)
    : modulus_(std::move(modulus)) {
  if (modulus_.is_even() || modulus_ < BigUInt(3))
    throw std::invalid_argument("MontgomeryContext: modulus must be odd >= 3");
  mod_limbs_ = modulus_.limbs();
  n_limbs_ = mod_limbs_.size();
  n_prime_ = neg_inverse_64(mod_limbs_[0]);
  static constexpr auto kTable = kernel_table<Kernels>(
      std::make_index_sequence<kMaxFixedLimbs + 1>{});
  kernels_ = &kTable[n_limbs_ <= kMaxFixedLimbs ? n_limbs_ : 0];

  // R = 2^(64 * n); R^2 mod m and R mod m via generic arithmetic (setup
  // cost only).
  BigUInt r = BigUInt(1) << (64 * n_limbs_);
  BigUInt r2 = BigUInt::mulmod(r, r, modulus_);
  BigUInt r_mod = r % modulus_;
  r2_ = r2.limbs();
  r2_.resize(n_limbs_, 0);
  one_mont_ = r_mod.limbs();
  one_mont_.resize(n_limbs_, 0);

#if defined(__x86_64__)
  // R = 2^(52K) > 4m keeps every lane value below 2m.
  const std::size_t k = (modulus_.bit_length() + 2 + 51) / 52;
  if (k <= kMaxLaneLimbs && cpu_has_lanes()) {
    static constexpr auto kLaneTable =
        lane_table<LaneKernels>(std::make_index_sequence<kMaxLaneLimbs>{});
    lane_kernels_ = &kLaneTable[k - 1];
    lane_limbs_ = k;
    lane_groups_ = lane_kernels_->mul[1] != nullptr ? 2 : 1;
    lane_k0_ = n_prime_ & kMask52;
    lane_mod_.resize(k);
    split52(mod_limbs_.data(), n_limbs_, k, 1, lane_mod_.data());
    const BigUInt lane_r2 = (BigUInt(1) << (104 * k)) % modulus_;
    lane_r2_.resize(k * kLanes);
    for (std::size_t l = 0; l < kLanes; ++l) {
      split52(lane_r2.limbs().data(), lane_r2.limbs().size(), k, kLanes,
              lane_r2_.data() + l);
    }
  }
#endif
}

void MontgomeryContext::mont_mul_raw(const u64* a, const u64* b, u64* out,
                                     u64* scratch) const {
  kernels_->mul(mod_limbs_.data(), n_prime_, n_limbs_, a, b, out, scratch);
}

void MontgomeryContext::mont_sqr_raw(const u64* a, u64* out,
                                     u64* scratch) const {
  kernels_->sqr(mod_limbs_.data(), n_prime_, n_limbs_, a, out, scratch);
}

void MontgomeryContext::redc_raw(const u64* v, u64* out, u64* scratch) const {
  kernels_->redc(mod_limbs_.data(), n_prime_, n_limbs_, v, out, scratch);
}

void MontgomeryContext::to_mont_raw(const BigUInt& v, u64* out,
                                    u64* scratch) const {
  if (v < modulus_) {
    const Limbs& limbs = v.limbs();
    std::size_t have = std::min(limbs.size(), n_limbs_);
    std::copy_n(limbs.data(), have, out);
    std::fill(out + have, out + n_limbs_, 0);
  } else {
    BigUInt reduced = v % modulus_;
    const Limbs& limbs = reduced.limbs();
    std::copy_n(limbs.data(), limbs.size(), out);
    std::fill(out + limbs.size(), out + n_limbs_, 0);
  }
  mont_mul_raw(out, r2_.data(), out, scratch);
}

void MontgomeryContext::to_lanes_raw(const BigUInt* v, std::size_t count,
                                     u64* out) const {
  for (std::size_t l = 0; l < kLanes; ++l) {
    const BigUInt& x = v[l < count ? l : 0];
    if (x < modulus_) {
      split52(x.limbs().data(), x.limbs().size(), lane_limbs_, kLanes,
              out + l);
    } else {
      const BigUInt r = x % modulus_;
      split52(r.limbs().data(), r.limbs().size(), lane_limbs_, kLanes,
              out + l);
    }
  }
  lane_mul_raw(out, lane_r2_.data(), out, 1);
}

void MontgomeryContext::lane_mul_raw(const u64* a, const u64* b, u64* out,
                                     std::size_t groups) const {
  lane_kernels_->mul[groups - 1](lane_mod_.data(), lane_k0_, a, b, out);
}

void MontgomeryContext::lane_sqr_raw(const u64* a, u64* out,
                                     std::size_t groups) const {
  lane_kernels_->sqr[groups - 1](lane_mod_.data(), lane_k0_, a, out);
}

void MontgomeryContext::from_lanes_raw(const u64* v, std::size_t count,
                                       BigUInt* out) const {
  std::array<u64, kMaxLaneLimbs * kLanes> one{};
  std::fill_n(one.data(), kLanes, 1);
  std::array<u64, kMaxLaneLimbs * kLanes> t{};
  // t = v * R^-1 < m + 1, and t = m only for a lane that is 0 mod m.
  lane_mul_raw(v, one.data(), t.data(), 1);
  for (std::size_t l = 0; l < count; ++l) {
    bool is_m = true;
    for (std::size_t j = 0; j < lane_limbs_; ++j) {
      is_m = is_m && t[j * kLanes + l] == lane_mod_[j];
    }
    Limbs limbs(n_limbs_, 0);
    if (!is_m) {
      join52(t.data() + l, lane_limbs_, kLanes, n_limbs_, limbs.data());
    }
    out[l] = BigUInt::from_limbs(std::move(limbs));
  }
}

MontgomeryContext::Limbs MontgomeryContext::mont_mul(const Limbs& a,
                                                     const Limbs& b) const {
  Limbs out(n_limbs_);
  std::vector<u64> scratch(scratch_limbs());
  mont_mul_raw(a.data(), b.data(), out.data(), scratch.data());
  return out;
}

MontgomeryContext::Limbs MontgomeryContext::to_mont(const BigUInt& v) const {
  Limbs out(n_limbs_);
  std::vector<u64> scratch(scratch_limbs());
  to_mont_raw(v, out.data(), scratch.data());
  return out;
}

BigUInt MontgomeryContext::from_mont(const Limbs& v) const {
  Limbs out(n_limbs_);
  std::vector<u64> scratch(scratch_limbs());
  redc_raw(v.data(), out.data(), scratch.data());
  return BigUInt::from_limbs(std::move(out));
}

BigUInt MontgomeryContext::mulmod(const BigUInt& a, const BigUInt& b) const {
  return from_mont(mont_mul(to_mont(a), to_mont(b)));
}

BigUInt MontgomeryContext::pow(const BigUInt& base,
                               const BigUInt& exponent) const {
  if (exponent.is_zero()) return BigUInt(1) % modulus_;

  const std::size_t n = n_limbs_;
  // One flat workspace: 16-entry window table + accumulator + REDC scratch.
  std::vector<u64> ws(16 * n + n + scratch_limbs());
  u64* table = ws.data();           // base^0 .. base^15, Montgomery form
  u64* acc = table + 16 * n;
  u64* scratch = acc + n;

  std::copy_n(one_mont_.data(), n, table);
  Limbs base_m = to_mont(base);
  std::copy_n(base_m.data(), n, table + n);
  for (std::size_t i = 2; i < 16; ++i) {
    mont_mul_raw(table + (i - 1) * n, table + n, table + i * n, scratch);
  }

  const std::size_t bits = exponent.bit_length();
  const std::size_t windows = (bits + 3) / 4;
  std::copy_n(one_mont_.data(), n, acc);
  for (std::size_t w = windows; w-- > 0;) {
    for (int s = 0; s < 4; ++s) mont_sqr_raw(acc, acc, scratch);
    std::size_t nibble = 0;
    for (int b = 3; b >= 0; --b) {
      std::size_t bit_index = w * 4 + static_cast<std::size_t>(b);
      nibble = (nibble << 1) | (exponent.bit(bit_index) ? 1u : 0u);
    }
    if (nibble != 0) mont_mul_raw(acc, table + nibble * n, acc, scratch);
  }
  return from_mont(Limbs(acc, acc + n));
}

}  // namespace dla::bn
