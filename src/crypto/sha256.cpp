#include "crypto/sha256.hpp"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace dla::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

// The kernel for this CPU, chosen on first use.
void compress(Sha256State& state, const std::uint8_t* data,
              std::size_t blocks) {
#if defined(__x86_64__)
  using CompressFn = void (*)(Sha256State&, const std::uint8_t*, std::size_t);
  static const CompressFn kernel = sha256_has_extensions()
                                       ? &sha256_compress_extensions
                                       : &sha256_compress_portable;
  kernel(state, data, blocks);
#else
  sha256_compress_portable(state, data, blocks);
#endif
}

}  // namespace

void sha256_compress_portable(Sha256State& state, const std::uint8_t* data,
                              std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(data[i * 4]) << 24) |
             (static_cast<std::uint32_t>(data[i * 4 + 1]) << 16) |
             (static_cast<std::uint32_t>(data[i * 4 + 2]) << 8) |
             static_cast<std::uint32_t>(data[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    auto [a, b, c, d, e, f, g, h] = state;
    for (int i = 0; i < 64; ++i) {
      std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      std::uint32_t ch = (e & f) ^ (~e & g);
      std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__)
bool sha256_has_extensions() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
  }();
  return has;
}

// Four rounds per step, after Intel's SHA extensions paper (Gulley et al.,
// 2013). The state lives in two registers as ABEF and CDGH (highest lane
// first); SHA256RNDS2 runs two rounds from the low two words of W + K and
// swaps the registers' roles, and SHA256MSG1/MSG2 extend the schedule by
// four words from the sixteen before them, kept in a ring of four registers.
__attribute__((target("sha,sse4.1"))) void sha256_compress_extensions(
    Sha256State& state, const std::uint8_t* data, std::size_t blocks) {
  // Byte-reverses each 32-bit lane: big-endian message words to lanes.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  auto* words = reinterpret_cast<__m128i*>(state.data());
  const __m128i dcba = _mm_loadu_si128(words);
  const __m128i hgfe = _mm_loadu_si128(words + 1);
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];  // w[g % 4] holds words 4g..4g+3 of the schedule
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      if (g < 4) {
        w[g] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)),
            bswap);
      } else {
        // W[t+i] = W[t-16+i] + s0(W[t-15+i]) + W[t-7+i] + s1(W[t-2+i]).
        const __m128i partial = _mm_add_epi32(
            _mm_sha256msg1_epu32(w[g % 4], w[(g + 1) % 4]),
            _mm_alignr_epi8(w[(g + 3) % 4], w[(g + 2) % 4], 4));
        w[g % 4] = _mm_sha256msg2_epu32(partial, w[(g + 3) % 4]);
      }
      const __m128i wk = _mm_add_epi32(
          w[g % 4],
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * g])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(words, _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(words + 1, _mm_alignr_epi8(dchg, feba, 8));
}
#endif

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19},
      buffer_{} {}

Sha256& Sha256::update(std::span<const std::uint8_t> data) {
  if (data.empty()) return *this;
  total_len_ += data.size();
  const std::uint8_t* next = data.data();
  std::size_t left = data.size();
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(left, buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, next, take);
    buffer_len_ += take;
    next += take;
    left -= take;
    if (buffer_len_ < buffer_.size()) return *this;
    compress(state_, buffer_.data(), 1);
    buffer_len_ = 0;
  }
  if (left >= 64) {
    compress(state_, next, left / 64);
    next += left / 64 * 64;
    left %= 64;
  }
  if (left > 0) {
    std::memcpy(buffer_.data(), next, left);
    buffer_len_ = left;
  }
  return *this;
}

Sha256& Sha256::update(std::string_view data) {
  return update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

Digest Sha256::finalize() {
  // The 0x80 marker, zeros, then the bit length in the last 8 bytes of the
  // final block; a second block when the marker leaves no room for them.
  const std::uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, 64 - buffer_len_);
    compress(state_, buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  compress(state_, buffer_.data(), 1);
  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Digest Sha256::hash(std::span<const std::uint8_t> data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finalize();
}

Digest Sha256::hash(std::string_view data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finalize();
}

HmacSha256Key::HmacSha256Key(std::span<const std::uint8_t> key) {
  std::array<std::uint8_t, 64> block{};
  if (key.size() > block.size()) {
    const Digest kd = Sha256::hash(key);
    std::copy(kd.begin(), kd.end(), block.begin());
  } else {
    std::copy(key.begin(), key.end(), block.begin());
  }
  for (std::uint8_t& b : block) b ^= 0x36;
  inner_.update(block);
  for (std::uint8_t& b : block) b ^= 0x36 ^ 0x5c;
  outer_.update(block);
}

Digest HmacSha256Key::mac(std::string_view msg) const {
  Sha256 inner = inner_;
  const Digest inner_digest = inner.update(msg).finalize();
  Sha256 outer = outer_;
  return outer.update(inner_digest).finalize();
}

Digest hmac_sha256(std::span<const std::uint8_t> key, std::string_view msg) {
  return HmacSha256Key(key).mac(msg);
}

bool digest_equal(const Digest& a, const Digest& b) {
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) diff |= a[i] ^ b[i];
  return diff == 0;
}

std::string to_hex(const Digest& d) {
  static const char* digits = "0123456789abcdef";
  std::string s;
  s.reserve(64);
  for (std::uint8_t b : d) {
    s.push_back(digits[b >> 4]);
    s.push_back(digits[b & 0xF]);
  }
  return s;
}

}  // namespace dla::crypto
