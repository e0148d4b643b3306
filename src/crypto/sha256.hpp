// SHA-256 implemented from scratch (FIPS 180-4).
//
// Used for message digests in signatures, HMAC tickets, commitment hashes in
// the evidence chain, and for mapping log attributes into Z_p set elements
// for the commutative-encryption protocols.
//
// The compression function has two kernels: a portable one, and one on the
// x86 SHA extensions (SHA256RNDS2/MSG1/MSG2, with SSE4.1 for the state
// shuffles). Sha256 picks the extension kernel once per process when the CPU
// has it, through a target attribute on that kernel rather than a global -m
// flag; both give the same state for every block.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace dla::crypto {

using Digest = std::array<std::uint8_t, 32>;

// The chaining state H0..H7 the compression function updates.
using Sha256State = std::array<std::uint32_t, 8>;

// Compresses `blocks` consecutive 64-byte blocks into `state`. Sha256 calls
// the kernel chosen for this CPU; both are public so that tests can hold them
// against each other.
void sha256_compress_portable(Sha256State& state, const std::uint8_t* data,
                              std::size_t blocks);
#if defined(__x86_64__)
// True when the CPU has the SHA extensions and SSE4.1; read once per process.
bool sha256_has_extensions();
// Runs only where sha256_has_extensions() holds.
void sha256_compress_extensions(Sha256State& state, const std::uint8_t* data,
                                std::size_t blocks);
#endif

// Incremental SHA-256 context.
class Sha256 {
 public:
  Sha256();

  Sha256& update(std::span<const std::uint8_t> data);
  Sha256& update(std::string_view data);

  // Finalises and returns the digest. The context must not be reused after
  // finalise() without reassignment.
  Digest finalize();

  // One-shot helpers.
  static Digest hash(std::span<const std::uint8_t> data);
  static Digest hash(std::string_view data);

 private:
  Sha256State state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

// An HMAC-SHA256 key (FIPS 198-1) with its inner and outer pad blocks
// absorbed once, as RFC 2104 §4 suggests: each MAC then compresses the
// message and two final blocks, not the two pad blocks again. Holds no copy
// of the raw key.
class HmacSha256Key {
 public:
  explicit HmacSha256Key(std::span<const std::uint8_t> key);

  Digest mac(std::string_view msg) const;

 private:
  Sha256 inner_;  // after the block key ^ ipad
  Sha256 outer_;  // after the block key ^ opad
};

// HMAC-SHA256 under a one-use key; the MAC behind DLA access tickets.
Digest hmac_sha256(std::span<const std::uint8_t> key, std::string_view msg);

// Digest equality in time independent of where the digests differ, for
// comparing a received MAC against the expected one.
bool digest_equal(const Digest& a, const Digest& b);

// Hex rendering of a digest for logs and table output.
std::string to_hex(const Digest& d);

}  // namespace dla::crypto
