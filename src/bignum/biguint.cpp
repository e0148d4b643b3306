#include "bignum/biguint.hpp"

#include <algorithm>
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

  // Single-limb fast path.
  if (divisor.limbs_.size() == 1) {
    u64 d = divisor.limbs_[0];
    BigUInt q;
    q.limbs_.assign(dividend.limbs_.size(), 0);
    u128 rem = 0;
    for (std::size_t i = dividend.limbs_.size(); i-- > 0;) {
      u128 cur = (rem << kLimbBits) | dividend.limbs_[i];
      q.limbs_[i] = static_cast<u64>(cur / d);
      rem = cur % d;
    }
    q.trim();
    return {std::move(q), BigUInt(static_cast<u64>(rem))};
  }

  // Knuth Algorithm D. Normalise so the top divisor limb has its high bit set.
  std::size_t n = divisor.limbs_.size();
  std::size_t m = dividend.limbs_.size() - n;
  int shift = 0;
  {
    u64 top = divisor.limbs_.back();
    while (!(top & (1ull << (kLimbBits - 1)))) {
      top <<= 1;
      ++shift;
    }
  }
  BigUInt u = dividend << static_cast<std::size_t>(shift);
  BigUInt v = divisor << static_cast<std::size_t>(shift);
  u.limbs_.resize(dividend.limbs_.size() + 1, 0);  // u has m+n+1 limbs

  BigUInt q;
  q.limbs_.assign(m + 1, 0);
  const u64 vtop = v.limbs_[n - 1];
  const u64 vsecond = v.limbs_[n - 2];

  for (std::size_t j = m + 1; j-- > 0;) {
    // Estimate qhat from the top two dividend limbs against vtop.
    u128 numerator =
        (static_cast<u128>(u.limbs_[j + n]) << kLimbBits) | u.limbs_[j + n - 1];
    u128 qhat = numerator / vtop;
    u128 rhat = numerator % vtop;
    while (qhat >= (static_cast<u128>(1) << kLimbBits) ||
           qhat * vsecond >
               ((rhat << kLimbBits) | u.limbs_[j + n - 2])) {
      --qhat;
      rhat += vtop;
      if (rhat >= (static_cast<u128>(1) << kLimbBits)) break;
    }
    // Multiply-and-subtract u[j..j+n] -= qhat * v.
    u128 borrow = 0;
    u128 carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      u128 prod = qhat * v.limbs_[i] + carry;
      carry = prod >> kLimbBits;
      u64 plo = static_cast<u64>(prod);
      u128 sub = static_cast<u128>(plo) + borrow;
      if (static_cast<u128>(u.limbs_[j + i]) >= sub) {
        u.limbs_[j + i] = static_cast<u64>(u.limbs_[j + i] - sub);
        borrow = 0;
      } else {
        u.limbs_[j + i] = static_cast<u64>(
            (static_cast<u128>(1) << kLimbBits) + u.limbs_[j + i] - sub);
        borrow = 1;
      }
    }
    u128 top_sub = carry + borrow;
    bool went_negative = static_cast<u128>(u.limbs_[j + n]) < top_sub;
    u.limbs_[j + n] = static_cast<u64>(static_cast<u128>(u.limbs_[j + n]) -
                                       top_sub);
    if (went_negative) {
      // qhat was one too large; add v back once.
      --qhat;
      u128 add_carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        u128 sum = static_cast<u128>(u.limbs_[j + i]) + v.limbs_[i] + add_carry;
        u.limbs_[j + i] = static_cast<u64>(sum);
        add_carry = sum >> kLimbBits;
      }
      u.limbs_[j + n] = static_cast<u64>(u.limbs_[j + n] + add_carry);
    }
    q.limbs_[j] = static_cast<u64>(qhat);
  }
  q.trim();
  u.limbs_.resize(n);
  u.trim();
  u >>= static_cast<std::size_t>(shift);
  return {std::move(q), std::move(u)};
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
  // Euclid; divmod dominates cost but inputs here are key-sized.
  while (!b.is_zero()) {
    BigUInt r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

std::optional<BigUInt> BigUInt::modinv(const BigUInt& a, const BigUInt& m) {
  if (m.is_zero()) throw std::domain_error("BigUInt::modinv: zero modulus");
  // Extended Euclid tracking only the coefficient of a. Coefficients may be
  // negative, so track (value, sign) pairs explicitly.
  BigUInt r0 = a % m, r1 = m;
  BigUInt s0(1), s1;
  bool s0_neg = false, s1_neg = false;
  while (!r1.is_zero()) {
    auto [q, r2] = divmod(r0, r1);
    // s2 = s0 - q * s1
    BigUInt qs1 = q * s1;
    BigUInt s2;
    bool s2_neg;
    if (s0_neg == s1_neg) {
      if (s0 >= qs1) {
        s2 = s0 - qs1;
        s2_neg = s0_neg;
      } else {
        s2 = qs1 - s0;
        s2_neg = !s0_neg;
      }
    } else {
      s2 = s0 + qs1;
      s2_neg = s0_neg;
    }
    r0 = std::move(r1);
    r1 = std::move(r2);
    s0 = std::move(s1);
    s0_neg = s1_neg;
    s1 = std::move(s2);
    s1_neg = s2_neg;
  }
  if (r0 != BigUInt(1)) return std::nullopt;
  BigUInt inv = s0 % m;
  if (s0_neg && !inv.is_zero()) inv = m - inv;
  return inv;
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
