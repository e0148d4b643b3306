#include "bignum/biguint.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <ostream>
#include <stdexcept>

namespace dla::bn {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

constexpr int kLimbBits = 64;

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

// Number of limbs of w[0, n) up to and including the top nonzero one.
std::size_t used_limbs(const u64* w, std::size_t n) {
  while (n > 0 && w[n - 1] == 0) --n;
  return n;
}

// dst[0, n) = src[0, n) << s for n >= 1, s < 64; returns the bits shifted
// out of the top limb. dst may equal src.
u64 shl_limbs(const u64* src, std::size_t n, unsigned s, u64* dst) {
  const u64 out = s == 0 ? 0 : src[n - 1] >> (kLimbBits - s);
  for (std::size_t i = n; i-- > 0;) {
    const u64 low = (s == 0 || i == 0) ? 0 : src[i - 1] >> (kLimbBits - s);
    dst[i] = (src[i] << s) | low;
  }
  return out;
}

// dst[0, n) = src[0, n) >> s for s < 64. dst may equal src.
void shr_limbs(const u64* src, std::size_t n, unsigned s, u64* dst) {
  for (std::size_t i = 0; i < n; ++i) {
    const u64 high = (s == 0 || i + 1 == n) ? 0 : src[i + 1] << (kLimbBits - s);
    dst[i] = (src[i] >> s) | high;
  }
}

// Divides u[0, n) by the word d != 0: quotient to q[0, n), remainder
// returned.
u64 divide_by_limb(const u64* u, std::size_t n, u64 d, u64* q) {
  u128 rem = 0;
  for (std::size_t i = n; i-- > 0;) {
    const u128 cur = (rem << kLimbBits) | u[i];
    q[i] = static_cast<u64>(cur / d);
    rem = cur - static_cast<u128>(q[i]) * d;
  }
  return static_cast<u64>(rem);
}

// Knuth Algorithm D. v[0, nv), nv >= 2, is the divisor shifted so its top
// bit is set; u[0, nu + 1) is the dividend under the same shift (u[nu] takes
// the bits shifted out). Writes the quotient to q[0, nu - nv + 1) and leaves
// the remainder, still shifted, in u[0, nv).
void divide_normalised(u64* u, std::size_t nu, const u64* v, std::size_t nv,
                       u64* q) {
  const u64 vtop = v[nv - 1];
  const u64 vsecond = v[nv - 2];
  for (std::size_t j = nu - nv + 1; j-- > 0;) {
    // Estimate qhat from the top two dividend limbs against vtop.
    u128 numerator = (static_cast<u128>(u[j + nv]) << kLimbBits) | u[j + nv - 1];
    u128 qhat = numerator / vtop;
    u128 rhat = numerator % vtop;
    while (qhat >= (static_cast<u128>(1) << kLimbBits) ||
           qhat * vsecond > ((rhat << kLimbBits) | u[j + nv - 2])) {
      --qhat;
      rhat += vtop;
      if (rhat >= (static_cast<u128>(1) << kLimbBits)) break;
    }
    // Multiply-and-subtract u[j..j+nv] -= qhat * v.
    u128 borrow = 0;
    u128 carry = 0;
    for (std::size_t i = 0; i < nv; ++i) {
      u128 prod = qhat * v[i] + carry;
      carry = prod >> kLimbBits;
      u64 plo = static_cast<u64>(prod);
      u128 sub = static_cast<u128>(plo) + borrow;
      if (static_cast<u128>(u[j + i]) >= sub) {
        u[j + i] = static_cast<u64>(u[j + i] - sub);
        borrow = 0;
      } else {
        u[j + i] = static_cast<u64>((static_cast<u128>(1) << kLimbBits) +
                                    u[j + i] - sub);
        borrow = 1;
      }
    }
    u128 top_sub = carry + borrow;
    bool went_negative = static_cast<u128>(u[j + nv]) < top_sub;
    u[j + nv] = static_cast<u64>(static_cast<u128>(u[j + nv]) - top_sub);
    if (went_negative) {
      // qhat was one too large; add v back once.
      --qhat;
      u128 add_carry = 0;
      for (std::size_t i = 0; i < nv; ++i) {
        u128 sum = static_cast<u128>(u[j + i]) + v[i] + add_carry;
        u[j + i] = static_cast<u64>(sum);
        add_carry = sum >> kLimbBits;
      }
      u[j + nv] = static_cast<u64>(u[j + nv] + add_carry);
    }
    q[j] = static_cast<u64>(qhat);
  }
}

// --- modinv ---------------------------------------------------------------
//
// The 2x2 matrix of a run of Euclid steps on a pair (A, B), with every entry
// stored as a magnitude: afterwards the pair is (a*A - b*B, d*B - c*A) when
// the run has an even number of steps and (b*B - a*A, c*A - d*B) when odd.
// The cofactors of the input follow the same recurrence and alternate in
// sign, so on their magnitudes the run reads (a*tA + b*tB, c*tA + d*tB).
struct Cosequence {
  u64 a = 1, b = 0, c = 0, d = 1;
  bool odd = false;

  // One more step with quotient q: (A, B) <- (B, A - q*B).
  void step(u64 q) {
    const u64 a0 = a, b0 = b;
    a = c;
    b = d;
    c = a0 + q * c;
    d = b0 + q * d;
    odd = !odd;
  }
};

// One Euclid step (x, y) -> (y, x mod y) on words, x >= y > 0; returns the
// quotient. Two in five quotients are 1, so try the subtraction first.
u64 word_step(u64& x, u64& y) {
  u64 q = 1;
  u64 r = x - y;
  if (r >= y) {
    q = x / y;
    r = x - q * y;
  }
  x = y;
  y = r;
  return q;
}

// Lehmer's simulation: Euclid steps on x and y, the leading 64 bits of A and
// B under one shift (A > B), kept only while Collins' condition proves each
// quotient is the one the full values give (Jebelean, "Improving the
// multiprecision Euclidean algorithm", DISCO 1993). Returns the identity
// when not even the first quotient is certain.
Cosequence lehmer_run(u64 x, u64 y) {
  Cosequence run;
  if (y == 0 || x == y) return run;
  for (;;) {
    Cosequence next = run;
    u64 nx = x, ny = y;
    next.step(word_step(nx, ny));
    // Keep the step iff ny >= d and nx - ny >= b + d (no overflow: nx > ny).
    if (ny < next.d || nx - ny < next.d || nx - ny - next.d < next.b) break;
    run = next;
    x = nx;
    y = ny;
  }
  return run;
}

// Every Euclid step on words x > y down to y == 0; x ends as the gcd.
Cosequence word_euclid(u64& x, u64& y) {
  Cosequence run;
  while (y != 0) run.step(word_step(x, y));
  return run;
}

// Streams x*P - y*Q one limb at a time, for a result known to be >= 0.
struct MulSub {
  u64 x, y;
  u64 carry_p = 0, carry_q = 0, borrow = 0;

  u64 next(u64 p, u64 q) {
    const u128 sp = static_cast<u128>(x) * p + carry_p;
    const u128 sq = static_cast<u128>(y) * q + carry_q;
    carry_p = static_cast<u64>(sp >> kLimbBits);
    carry_q = static_cast<u64>(sq >> kLimbBits);
    const u64 lp = static_cast<u64>(sp), lq = static_cast<u64>(sq);
    const u64 out = lp - lq - borrow;
    borrow = (lp < lq || lp - lq < borrow) ? 1 : 0;
    return out;
  }
};

// Streams x*P + y*Q one limb at a time.
struct MulAdd {
  u64 x, y;
  u64 carry_p = 0, carry_q = 0, carry = 0;

  u64 next(u64 p, u64 q) {
    const u128 sp = static_cast<u128>(x) * p + carry_p;
    const u128 sq = static_cast<u128>(y) * q + carry_q;
    carry_p = static_cast<u64>(sp >> kLimbBits);
    carry_q = static_cast<u64>(sq >> kLimbBits);
    const u128 sum = static_cast<u128>(static_cast<u64>(sp)) +
                     static_cast<u64>(sq) + carry;
    carry = static_cast<u64>(sum >> kLimbBits);
    return static_cast<u64>(sum);
  }
};

// (A, B) <- the run's combinations of (A, B), over the n limbs of A.
void apply_to_remainders(const Cosequence& run, u64* A, u64* B,
                         std::size_t n) {
  // Even: A' = a*A - b*B, B' = d*B - c*A. Odd: A' = b*B - a*A,
  // B' = c*A - d*B. With (p, q) = (A, B), or (B, A) when odd, both read
  // A' = x*p - y*q and B' = x*q - y*p.
  MulSub na = run.odd ? MulSub{run.b, run.a} : MulSub{run.a, run.b};
  MulSub nb = run.odd ? MulSub{run.c, run.d} : MulSub{run.d, run.c};
  for (std::size_t i = 0; i < n; ++i) {
    const u64 p = run.odd ? B[i] : A[i];
    const u64 q = run.odd ? A[i] : B[i];
    A[i] = na.next(p, q);
    B[i] = nb.next(q, p);
  }
}

// (tA, tB) <- (a*tA + b*tB, c*tA + d*tB) over n limbs. Every cofactor of a
// Euclid run on (m, x < m) is at most m, so nothing carries out of n limbs.
void apply_to_cofactors(const Cosequence& run, u64* ta, u64* tb,
                        std::size_t n) {
  MulAdd na{run.a, run.b};
  MulAdd nb{run.c, run.d};
  for (std::size_t i = 0; i < n; ++i) {
    const u64 x = ta[i], y = tb[i];
    ta[i] = na.next(x, y);
    tb[i] = nb.next(x, y);
  }
}

// t[0, n) += q[0, nq) * s[0, n), for a sum known to fit in n limbs.
void add_product(u64* t, const u64* q, std::size_t nq, const u64* s,
                 std::size_t n) {
  for (std::size_t j = 0; j < nq; ++j) {
    u64 carry = 0;
    for (std::size_t i = 0; i + j < n; ++i) {
      const u128 cur = static_cast<u128>(q[j]) * s[i] + t[i + j] + carry;
      t[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> kLimbBits);
    }
  }
}

}  // namespace

BigUInt::BigUInt(u64 v) {
  if (v != 0) limbs_.push_back(v);
}

void BigUInt::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

int BigUInt::compare_magnitudes(const std::vector<u64>& a,
                                const std::vector<u64>& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (std::size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

std::strong_ordering BigUInt::operator<=>(const BigUInt& rhs) const {
  int c = compare_magnitudes(limbs_, rhs.limbs_);
  if (c < 0) return std::strong_ordering::less;
  if (c > 0) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

BigUInt BigUInt::from_hex(std::string_view hex) {
  if (hex.substr(0, 2) == "0x" || hex.substr(0, 2) == "0X") hex.remove_prefix(2);
  if (hex.empty()) throw std::invalid_argument("BigUInt::from_hex: empty");
  BigUInt out;
  // Consume from the least significant end, 16 hex digits per limb.
  std::size_t pos = hex.size();
  while (pos > 0) {
    std::size_t take = std::min<std::size_t>(16, pos);
    u64 limb = 0;
    for (std::size_t i = pos - take; i < pos; ++i) {
      int d = hex_digit(hex[i]);
      if (d < 0) throw std::invalid_argument("BigUInt::from_hex: bad digit");
      limb = (limb << 4) | static_cast<u64>(d);
    }
    out.limbs_.push_back(limb);
    pos -= take;
  }
  // Limbs were pushed least-significant-first already.
  out.trim();
  return out;
}

BigUInt BigUInt::from_decimal(std::string_view dec) {
  if (dec.empty()) throw std::invalid_argument("BigUInt::from_decimal: empty");
  BigUInt out;
  for (char c : dec) {
    if (c < '0' || c > '9')
      throw std::invalid_argument("BigUInt::from_decimal: bad digit");
    out *= BigUInt(10);
    out += BigUInt(static_cast<u64>(c - '0'));
  }
  return out;
}

BigUInt BigUInt::from_bytes(const std::vector<std::uint8_t>& bytes) {
  // The last byte is the lowest: byte i from the end lands in limb i / 8.
  BigUInt out;
  const std::size_t n = bytes.size();
  out.limbs_.assign((n + 7) / 8, 0);
  for (std::size_t i = 0; i < n; ++i) {
    out.limbs_[i / 8] |= static_cast<u64>(bytes[n - 1 - i]) << (8 * (i % 8));
  }
  out.trim();
  return out;
}

BigUInt BigUInt::from_limbs(std::vector<std::uint64_t> limbs) {
  BigUInt out;
  out.limbs_ = std::move(limbs);
  out.trim();
  return out;
}

std::string BigUInt::to_hex() const {
  if (is_zero()) return "0";
  static const char* digits = "0123456789abcdef";
  std::string s;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    for (int shift = kLimbBits - 4; shift >= 0; shift -= 4) {
      s.push_back(digits[(limbs_[i] >> shift) & 0xF]);
    }
  }
  std::size_t first = s.find_first_not_of('0');
  return s.substr(first);
}

std::string BigUInt::to_decimal() const {
  if (is_zero()) return "0";
  std::string s;
  BigUInt v = *this;
  const BigUInt ten(10);
  while (!v.is_zero()) {
    auto [q, r] = divmod(v, ten);
    s.push_back(static_cast<char>('0' + r.low_u64()));
    v = std::move(q);
  }
  std::reverse(s.begin(), s.end());
  return s;
}

std::vector<std::uint8_t> BigUInt::to_bytes() const {
  std::vector<std::uint8_t> out;
  if (is_zero()) return out;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    for (int shift = kLimbBits - 8; shift >= 0; shift -= 8) {
      out.push_back(static_cast<std::uint8_t>(limbs_[i] >> shift));
    }
  }
  std::size_t first = 0;
  while (first < out.size() && out[first] == 0) ++first;
  out.erase(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(first));
  return out;
}

std::size_t BigUInt::bit_length() const {
  if (limbs_.empty()) return 0;
  u64 top = limbs_.back();
  std::size_t bits = (limbs_.size() - 1) * kLimbBits;
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigUInt::bit(std::size_t i) const {
  std::size_t limb = i / kLimbBits;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % kLimbBits)) & 1u;
}

BigUInt& BigUInt::operator+=(const BigUInt& rhs) {
  limbs_.resize(std::max(limbs_.size(), rhs.limbs_.size()), 0);
  u64 carry = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    u128 sum = static_cast<u128>(limbs_[i]) + carry;
    if (i < rhs.limbs_.size()) sum += rhs.limbs_[i];
    limbs_[i] = static_cast<u64>(sum);
    carry = static_cast<u64>(sum >> kLimbBits);
  }
  if (carry) limbs_.push_back(carry);
  return *this;
}

BigUInt& BigUInt::operator-=(const BigUInt& rhs) {
  if (compare_magnitudes(limbs_, rhs.limbs_) < 0)
    throw std::underflow_error("BigUInt: subtraction underflow");
  u64 borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    u128 sub = static_cast<u128>(borrow);
    if (i < rhs.limbs_.size()) sub += rhs.limbs_[i];
    if (static_cast<u128>(limbs_[i]) >= sub) {
      limbs_[i] = static_cast<u64>(static_cast<u128>(limbs_[i]) - sub);
      borrow = 0;
    } else {
      limbs_[i] = static_cast<u64>((static_cast<u128>(1) << kLimbBits) +
                                   limbs_[i] - sub);
      borrow = 1;
    }
  }
  trim();
  return *this;
}

BigUInt& BigUInt::operator*=(const BigUInt& rhs) {
  if (is_zero() || rhs.is_zero()) {
    limbs_.clear();
    return *this;
  }
  std::vector<u64> out(limbs_.size() + rhs.limbs_.size(), 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    u64 carry = 0;
    u128 ai = limbs_[i];
    for (std::size_t j = 0; j < rhs.limbs_.size(); ++j) {
      u128 cur = static_cast<u128>(out[i + j]) + ai * rhs.limbs_[j] + carry;
      out[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> kLimbBits);
    }
    out[i + rhs.limbs_.size()] = carry;
  }
  limbs_ = std::move(out);
  trim();
  return *this;
}

BigUInt& BigUInt::operator<<=(std::size_t bits) {
  if (is_zero() || bits == 0) return *this;
  std::size_t limb_shift = bits / kLimbBits;
  std::size_t bit_shift = bits % kLimbBits;
  std::vector<u64> out(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    out[i + limb_shift] |= bit_shift == 0 ? limbs_[i] : (limbs_[i] << bit_shift);
    if (bit_shift != 0) {
      out[i + limb_shift + 1] |= limbs_[i] >> (kLimbBits - bit_shift);
    }
  }
  limbs_ = std::move(out);
  trim();
  return *this;
}

BigUInt& BigUInt::operator>>=(std::size_t bits) {
  if (is_zero() || bits == 0) return *this;
  std::size_t limb_shift = bits / kLimbBits;
  std::size_t bit_shift = bits % kLimbBits;
  if (limb_shift >= limbs_.size()) {
    limbs_.clear();
    return *this;
  }
  std::vector<u64> out(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = bit_shift == 0 ? limbs_[i + limb_shift]
                            : (limbs_[i + limb_shift] >> bit_shift);
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      out[i] |= limbs_[i + limb_shift + 1] << (kLimbBits - bit_shift);
    }
  }
  limbs_ = std::move(out);
  trim();
  return *this;
}

DivMod BigUInt::divmod(const BigUInt& dividend,
                                const BigUInt& divisor) {
  if (divisor.is_zero()) throw std::domain_error("BigUInt: division by zero");
  int cmp = compare_magnitudes(dividend.limbs_, divisor.limbs_);
  if (cmp < 0) return {BigUInt{}, dividend};
  if (cmp == 0) return {BigUInt(1), BigUInt{}};

  const std::size_t nu = dividend.limbs_.size();
  const std::size_t nv = divisor.limbs_.size();
  BigUInt q;
  q.limbs_.resize(nu - nv + 1);
  if (nv == 1) {
    BigUInt r(divide_by_limb(dividend.limbs_.data(), nu, divisor.limbs_[0],
                             q.limbs_.data()));
    q.trim();
    return {std::move(q), std::move(r)};
  }

  // Normalise so the top divisor limb has its high bit set.
  const auto shift = static_cast<unsigned>(std::countl_zero(divisor.limbs_.back()));
  std::vector<u64> v(nv);
  shl_limbs(divisor.limbs_.data(), nv, shift, v.data());
  BigUInt r;
  r.limbs_.resize(nu + 1);
  r.limbs_[nu] = shl_limbs(dividend.limbs_.data(), nu, shift, r.limbs_.data());
  divide_normalised(r.limbs_.data(), nu, v.data(), nv, q.limbs_.data());
  r.limbs_.resize(nv);
  shr_limbs(r.limbs_.data(), nv, shift, r.limbs_.data());
  q.trim();
  r.trim();
  return {std::move(q), std::move(r)};
}

BigUInt& BigUInt::operator/=(const BigUInt& rhs) {
  *this = divmod(*this, rhs).quotient;
  return *this;
}

BigUInt& BigUInt::operator%=(const BigUInt& rhs) {
  *this = divmod(*this, rhs).remainder;
  return *this;
}

BigUInt BigUInt::mulmod(const BigUInt& a, const BigUInt& b, const BigUInt& m) {
  if (m.is_zero()) throw std::domain_error("BigUInt::mulmod: zero modulus");
  return (a * b) % m;
}

BigUInt BigUInt::modexp(const BigUInt& base, const BigUInt& exponent,
                        const BigUInt& m) {
  if (m.is_zero()) throw std::domain_error("BigUInt::modexp: zero modulus");
  if (m == BigUInt(1)) return BigUInt{};
  BigUInt result(1);
  BigUInt b = base % m;
  std::size_t bits = exponent.bit_length();
  for (std::size_t i = bits; i-- > 0;) {
    result = mulmod(result, result, m);
    if (exponent.bit(i)) result = mulmod(result, b, m);
  }
  return result;
}

BigUInt BigUInt::gcd(BigUInt a, BigUInt b) {
  // Euclid over divmod; inputs here are key-sized.
  while (!b.is_zero()) {
    BigUInt r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

std::optional<BigUInt> BigUInt::modinv(const BigUInt& a, const BigUInt& m) {
  if (m.is_zero()) throw std::domain_error("BigUInt::modinv: zero modulus");
  // An even a shares the factor 2 with an even m: half of all candidates
  // for an exponent mod p - 1 stop here.
  if (a.is_even() && m.is_even()) return std::nullopt;
  if (m == BigUInt(1)) return BigUInt{};

  // Extended Euclid on (A, B) = (m, a mod m), tracking only the cofactor of
  // a: A = tA * a and B = tB * a (mod m). The cofactors alternate in sign,
  // so tA and tB hold magnitudes and ta_neg the sign of tA. All of them fit
  // in n limbs, and so does every buffer below: A, B, tA, tB, and the
  // fallback division's shifted dividend U (n + 1 limbs), divisor V and
  // quotient Q.
  const std::size_t n = m.limbs_.size();
  std::vector<u64> work(7 * n + 1, 0);
  u64* A = work.data();
  u64* B = A + n;
  u64* ta = B + n;
  u64* tb = ta + n;
  u64* U = tb + n;
  u64* V = U + n + 1;
  u64* Q = V + n;
  std::copy(m.limbs_.begin(), m.limbs_.end(), A);
  if (a < m) {
    std::copy(a.limbs_.begin(), a.limbs_.end(), B);
  } else {
    const BigUInt r = a % m;
    std::copy(r.limbs_.begin(), r.limbs_.end(), B);
  }
  tb[0] = 1;
  bool ta_neg = true;  // tA = 0 <= tB = 1
  std::size_t na = n;
  std::size_t nb = used_limbs(B, n);

  while (na >= 2 && nb >= 1) {
    if (nb >= 2) {
      // Lehmer step on the leading 64 bits of A and B (B zero above nb).
      const auto h = static_cast<unsigned>(std::countl_zero(A[na - 1]));
      const u64 x = h == 0 ? A[na - 1]
                           : (A[na - 1] << h) | (A[na - 2] >> (kLimbBits - h));
      const u64 y = h == 0 ? B[na - 1]
                           : (B[na - 1] << h) | (B[na - 2] >> (kLimbBits - h));
      const Cosequence run = lehmer_run(x, y);
      if (run.b != 0) {
        apply_to_remainders(run, A, B, na);
        apply_to_cofactors(run, ta, tb, n);
        ta_neg ^= run.odd;
        na = used_limbs(A, na);
        nb = used_limbs(B, na);
        continue;
      }
    }
    // One step on the full values, when B has one limb or the first quotient
    // is too large for the leading words: (A, B) <- (B, A mod B) and
    // tA += (A / B) * tB.
    if (nb == 1) {
      const u64 r = divide_by_limb(A, na, B[0], Q);
      std::fill(A, A + na, 0);
      A[0] = r;
    } else {
      const auto s = static_cast<unsigned>(std::countl_zero(B[nb - 1]));
      shl_limbs(B, nb, s, V);
      U[na] = shl_limbs(A, na, s, U);
      divide_normalised(U, na, V, nb, Q);
      shr_limbs(U, nb, s, A);
      std::fill(A + nb, A + na, 0);
    }
    add_product(ta, Q, used_limbs(Q, na - nb + 1), tb, n);
    std::swap(A, B);
    std::swap(ta, tb);
    ta_neg = !ta_neg;
    na = nb;
    nb = used_limbs(B, na);
  }
  if (na == 1) {
    // Both fit in a word: finish exactly on words.
    const Cosequence run = word_euclid(A[0], B[0]);
    apply_to_cofactors(run, ta, tb, n);
    ta_neg ^= run.odd;
  }
  if (na != 1 || A[0] != 1) return std::nullopt;

  // The inverse is tA, or m - tA when tA is negative (|tA| < m either way).
  std::vector<u64> inv(ta, ta + n);
  if (ta_neg) {
    u64 borrow = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const u64 mi = m.limbs_[i];
      const u64 ti = inv[i];
      inv[i] = mi - ti - borrow;
      borrow = (mi < ti || mi - ti < borrow) ? 1 : 0;
    }
  }
  return from_limbs(std::move(inv));
}

BigUInt BigUInt::random_bits(RandomSource& rng, std::size_t bits) {
  if (bits == 0) return BigUInt{};
  BigUInt out;
  std::size_t limbs = (bits + kLimbBits - 1) / kLimbBits;
  out.limbs_.resize(limbs);
  for (auto& l : out.limbs_) l = rng.next_u64();
  std::size_t top_bits = bits - (limbs - 1) * kLimbBits;  // in [1, 64]
  if (top_bits < kLimbBits) {
    out.limbs_.back() &= (1ull << top_bits) - 1;
  }
  out.limbs_.back() |= 1ull << (top_bits - 1);  // force exact bit length
  out.trim();
  return out;
}

BigUInt BigUInt::random_below(RandomSource& rng, const BigUInt& bound) {
  if (bound.is_zero())
    throw std::domain_error("BigUInt::random_below: zero bound");
  std::size_t bits = bound.bit_length();
  std::size_t limbs = (bits + kLimbBits - 1) / kLimbBits;
  std::size_t top_bits = bits - (limbs - 1) * kLimbBits;
  for (;;) {
    BigUInt candidate;
    candidate.limbs_.resize(limbs);
    for (auto& l : candidate.limbs_) l = rng.next_u64();
    if (top_bits < kLimbBits) {
      candidate.limbs_.back() &= (1ull << top_bits) - 1;
    }
    candidate.trim();
    if (candidate < bound) return candidate;
  }
}

std::ostream& operator<<(std::ostream& os, const BigUInt& v) {
  return os << v.to_decimal();
}

}  // namespace dla::bn
