#include "crypto/page_sealer.h"

#include "common/hash.h"

#include <cstring>

namespace crimes::crypto {
namespace {

// Domain-separation salts: the keystream, the MAC, and (in
// attestation_chain.cpp) the leaf/root derivations must never collide
// even under identical inputs.
constexpr std::uint64_t kStreamSalt = 0x5EA1'57E4'3A4DULL;
constexpr std::uint64_t kMacSalt = 0x3AC'0F'7A6ULL;

}  // namespace

std::uint64_t PageSealer::keystream_word(std::uint64_t tweak,
                                         std::uint64_t index) const {
  // Two finalizer rounds: the first folds key and tweak into a
  // per-record block key, the second spreads the word counter. A block
  // moved to a different record deciphers under the wrong block key.
  const std::uint64_t block = mix64(key_ ^ kStreamSalt ^ mix64(tweak));
  return mix64(block ^ (index * 0x9E3779B97F4A7C15ULL));
}

void PageSealer::cipher(std::span<std::byte> payload,
                        std::uint64_t tweak) const {
  std::size_t off = 0;
  std::uint64_t index = 0;
  // Word-at-a-time XOR; the keystream cost is what the CostModel's
  // crypto_seal_per_page constant prices (fused into the encode loop).
  while (off + 8 <= payload.size()) {
    std::uint64_t word;
    std::memcpy(&word, payload.data() + off, 8);
    word ^= keystream_word(tweak, index++);
    std::memcpy(payload.data() + off, &word, 8);
    off += 8;
  }
  if (off < payload.size()) {
    const std::uint64_t ks = keystream_word(tweak, index);
    for (std::size_t i = 0; off + i < payload.size(); ++i) {
      payload[off + i] ^= static_cast<std::byte>(ks >> (8 * i));
    }
  }
}

std::uint64_t PageSealer::mac(std::span<const std::byte> sealed,
                              std::uint64_t tweak) const {
  // Encrypt-then-MAC: a keyed word fold over the ciphertext -- hash128's
  // four lanes, seeded from (key, tweak) -- finalized with the length, so
  // flips, moves (wrong tweak), and truncations (wrong length) all miss
  // the tag.
  const std::uint64_t seed = mix64(key_ ^ kMacSalt ^ mix64(tweak));
  const std::uint64_t body = hash128(sealed, seed).lo;
  return mix64(body ^ mix64(static_cast<std::uint64_t>(sealed.size())));
}

std::uint64_t PageSealer::seal(std::vector<std::byte>& payload,
                               std::uint64_t tweak) const {
  cipher(payload, tweak);
  return mac(payload, tweak);
}

bool PageSealer::unseal(std::vector<std::byte>& payload, std::uint64_t tweak,
                        std::uint64_t expected_mac) const {
  if (mac(payload, tweak) != expected_mac) return false;
  cipher(payload, tweak);
  return true;
}

}  // namespace crimes::crypto
