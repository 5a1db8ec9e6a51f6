// The repo's two hash functions, each defined once; the constants and
// reference vectors are pinned by tests/test_common.cpp.
//
// hash128 is for bulk bytes: every page digest (store keys, collision
// checks, the standby's attestation leaf, the CoW drain, backup
// verification, the kernel-text baseline), the journal's framing checksum
// and the sealer's MAC fold. It reads a word at a time into four
// independent 64-bit lanes in the xxHash64 round shape (multiply, rotate,
// multiply), so a 4 KiB page costs about a thousand multiplies spread over
// four dependency chains. The lanes merge into two halves, each through its
// own fmix64-style finalizer: a caller that keys a map on `lo` can use `hi`
// as an independent collision check without a second pass over the bytes.
//
// fnv1a is for short strings (fault-site salts, module names) and
// pod_digest's few dozen bytes, where its byte-serial fold costs nothing.
// Its one dependent multiply per byte makes a 4 KiB page cost several
// microseconds of real time -- far above the CostModel's virtual charge
// for a digest pass -- so nothing page-sized uses it.
//
// Neither function is cryptographic: every digest in this repo indexes or
// cross-checks data the same process wrote, and tampering is caught by
// the keyed seal MAC (crypto/page_sealer.h) and the attestation chain,
// not by these hashes.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>

namespace crimes {

static_assert(std::endian::native == std::endian::little,
              "hash128 loads little-endian words");

inline constexpr std::uint64_t kFnv1aOffsetBasis = 0xCBF29CE484222325ULL;
inline constexpr std::uint64_t kFnv1aPrime = 0x100000001B3ULL;

// Folds `bytes` into `seed`. Passing a previous digest as the seed chains
// blocks: fnv1a(b, fnv1a(a)) == fnv1a(a + b).
[[nodiscard]] constexpr std::uint64_t fnv1a(
    std::span<const std::byte> bytes,
    std::uint64_t seed = kFnv1aOffsetBasis) {
  std::uint64_t hash = seed;
  for (const std::byte b : bytes) {
    hash ^= static_cast<std::uint8_t>(b);
    hash *= kFnv1aPrime;
  }
  return hash;
}

// String flavor (fault-site salts, module names).
[[nodiscard]] constexpr std::uint64_t fnv1a(
    std::string_view text, std::uint64_t seed = kFnv1aOffsetBasis) {
  std::uint64_t hash = seed;
  for (const char c : text) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= kFnv1aPrime;
  }
  return hash;
}

struct Hash128 {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend bool operator==(const Hash128&, const Hash128&) = default;
};

namespace hash_detail {

inline constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ULL;
inline constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
inline constexpr std::uint64_t kP3 = 0x165667B19E3779F9ULL;
inline constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
inline constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ULL;

// One lane step. Both multipliers are odd, so for a fixed word the step is
// a bijection of the lane: two inputs differing in one word leave
// different lanes behind.
[[nodiscard]] constexpr std::uint64_t lane_step(std::uint64_t lane,
                                                std::uint64_t word) {
  return std::rotl(lane + word * kP2, 31) * kP1;
}

// MurmurHash3's 64-bit finalizer: every input bit reaches every output bit.
[[nodiscard]] constexpr std::uint64_t fmix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  return x ^ (x >> 33);
}

// Loads the word at `src + at` and, when `dst` is set, stores it at
// `dst + at`.
[[gnu::always_inline]] inline std::uint64_t take_word(std::byte* dst,
                                                      const std::byte* src,
                                                      std::size_t at) {
  std::uint64_t word = 0;
  std::memcpy(&word, src + at, sizeof word);
  if (dst != nullptr) std::memcpy(dst + at, &word, sizeof word);
  return word;
}

// The one definition behind hash128 and copy_and_hash. 32-byte stripes feed
// the four lanes a word each; the tail's whole words continue round-robin
// from lane 0 and its last 1-7 bytes go in as one zero-padded word. The
// length is folded into both halves, so padding never aliases.
// always_inline lets hash128's literal nullptr drop the stores.
[[gnu::always_inline]] inline Hash128 hash_words(std::byte* dst,
                                                 const std::byte* src,
                                                 std::size_t len,
                                                 std::uint64_t seed) {
  std::uint64_t v[4] = {seed + kP1 + kP2, seed + kP2, seed, seed - kP1};
  std::size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    for (std::size_t lane = 0; lane < 4; ++lane) {
      v[lane] = lane_step(v[lane], take_word(dst, src, i + 8 * lane));
    }
  }
  std::size_t lane = 0;
  for (; i + 8 <= len; i += 8, ++lane) {
    v[lane] = lane_step(v[lane], take_word(dst, src, i));
  }
  if (i < len) {
    std::uint64_t word = 0;
    std::memcpy(&word, src + i, len - i);
    if (dst != nullptr) std::memcpy(dst + i, src + i, len - i);
    v[lane] = lane_step(v[lane], word);
  }

  // Two merges of the same lanes in opposite orders under different
  // constants, each finalized on its own.
  std::uint64_t lo = std::rotl(v[0], 1) + std::rotl(v[1], 7) +
                     std::rotl(v[2], 12) + std::rotl(v[3], 18);
  std::uint64_t hi = std::rotl(v[3], 5) + std::rotl(v[2], 23) +
                     std::rotl(v[1], 37) + std::rotl(v[0], 51);
  for (std::size_t k = 0; k < 4; ++k) {
    lo = (lo ^ lane_step(0, v[k])) * kP1 + kP4;
    hi = (hi ^ lane_step(kP5, v[3 - k])) * kP2 + kP3;
  }
  const auto n = static_cast<std::uint64_t>(len);
  return {fmix64(lo + n), fmix64(hi ^ (n * kP5))};
}

}  // namespace hash_detail

// 128-bit digest of `bytes` under `seed`.
[[nodiscard]] inline Hash128 hash128(std::span<const std::byte> bytes,
                                     std::uint64_t seed = 0) {
  return hash_detail::hash_words(nullptr, bytes.data(), bytes.size(), seed);
}

// Fused copy+digest: copies `len` bytes from `src` to `dst` (which must not
// overlap) and returns hash128 of them from the same loads, so the CoW
// drain pays one sweep per page instead of memcpy-then-hash.
[[nodiscard]] inline Hash128 copy_and_hash(std::byte* dst,
                                           const std::byte* src,
                                           std::size_t len,
                                           std::uint64_t seed = 0) {
  return hash_detail::hash_words(dst, src, len, seed);
}

}  // namespace crimes
