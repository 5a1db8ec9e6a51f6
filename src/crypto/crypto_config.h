// Knobs for the sealing/attestation subsystem (DESIGN.md section 15).
//
// Dependency-light on purpose, mirroring store/store_config.h and
// replication_config.h: StoreConfig embeds a CryptoConfig by value, so
// every layer that owns a store (Checkpointer, Crimes, CloudHost) can
// switch sealing on without new plumbing. The machinery itself
// (PageSealer, AttestationChain) is only exercised when a flag is set;
// with both flags off the store's bytes, costs, and behavior are
// identical to the pre-crypto build.
#pragma once

#include <cstdint>

namespace crimes::crypto {

struct CryptoConfig {
  // Encrypt every PageStore payload at intern time with the per-tenant
  // tweakable keystream and store a per-record MAC next to it. A moved
  // or bit-flipped ciphertext block is *detected* at materialize time
  // (and by verify_seals() sweeps), never decrypted into garbage.
  bool seal = false;

  // Hash-chain every committed generation (pages digest, vCPU digest,
  // audit verdict, previous root) into a per-epoch attestation root,
  // carried in StoreJournal records and on the replication stream, and
  // verified at every trust boundary: journal fsck/recovery, standby
  // promotion, rollback, and forensic timeline walks.
  bool attest = false;

  // Per-tenant master key the keystream, MACs, and chain roots are
  // derived from. The simulator derives everything deterministically
  // from this value, so two runs with the same key and seed are
  // bit-identical (the determinism self-checks rely on it).
  std::uint64_t tenant_key = 0x5EA1ED'C0DE'1EAFULL;

  [[nodiscard]] bool enabled() const { return seal || attest; }
};

}  // namespace crimes::crypto
