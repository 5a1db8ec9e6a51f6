// Per-tenant page sealing: tweakable XOR keystream + keyed MAC
// (DESIGN.md section 15).
//
// Threat model (SEVurity, PAPERS.md): the storage substrate -- the
// content-addressed PageStore, the durable journal device, the
// replication stream -- is an adversary that can move or flip ciphertext
// blocks. Integrity-free encryption does not help: a swapped block
// decrypts into attacker-chosen garbage silently. The sealer therefore
// pairs a tweakable keystream (a moved block decrypts under the *wrong*
// tweak) with an encrypt-then-MAC tag over the sealed bytes and the
// tweak, so every move, flip, or truncation is *detected* at the first
// boundary that reads the record.
//
// Zero-dependency and deterministic like the rest of the repo: the
// keystream is the SplitMix64 finalizer over (tenant key, tweak, word
// index), the MAC is a keyed word fold (common/hash.h's hash128, seeded
// from key and tweak) with the length bound in. This is a
// simulator-grade construction -- the point is the *architecture* (where
// sealing, MACs, and verification sit) -- not a production AEAD.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace crimes::crypto {

// Thrown when a trust boundary detects sealed/attested state that fails
// verification -- a MAC mismatch, a broken chain link. Distinct from
// std::logic_error ("a store bug") on purpose: tampering is an *expected*
// adversarial event the response machinery catches, reports as evidence,
// and survives.
struct TamperError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// SplitMix64 finalizer: the same full-avalanche mix the fault injector
// uses for its decision streams.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

class PageSealer {
 public:
  explicit PageSealer(std::uint64_t tenant_key) : key_(tenant_key) {}

  // Keystream word i for a record sealed under `tweak`. Public so the
  // reference-vector tests can pin the exact stream.
  [[nodiscard]] std::uint64_t keystream_word(std::uint64_t tweak,
                                             std::uint64_t index) const;

  // XOR the payload with the tweakable keystream, in place. Involutive:
  // ciphering twice under the same tweak restores the plaintext.
  void cipher(std::span<std::byte> payload, std::uint64_t tweak) const;

  // Keyed MAC over the *sealed* bytes, the tweak, and the length
  // (encrypt-then-MAC; binding the length defeats truncation).
  [[nodiscard]] std::uint64_t mac(std::span<const std::byte> sealed,
                                  std::uint64_t tweak) const;

  // cipher + mac. Returns the tag to store alongside the ciphertext.
  [[nodiscard]] std::uint64_t seal(std::vector<std::byte>& payload,
                                   std::uint64_t tweak) const;

  // Verify the tag, then decipher in place. On a tag mismatch the
  // payload is left sealed (never decrypted into garbage) and false is
  // returned.
  [[nodiscard]] bool unseal(std::vector<std::byte>& payload,
                            std::uint64_t tweak,
                            std::uint64_t expected_mac) const;

  [[nodiscard]] std::uint64_t tenant_key() const { return key_; }

 private:
  std::uint64_t key_;
};

}  // namespace crimes::crypto
