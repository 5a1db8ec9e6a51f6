// Content-addressed page storage for the checkpoint store.
//
// Every distinct page content is stored once, keyed by the low half of its
// 128-bit page digest (one hash128 pass; the high half is the entry's
// collision check), with a reference count of how many generation
// manifests point at it. Payloads are never raw 4 KiB frames: a page is
// kept either as the RLE encoding of its bytes or -- when smaller -- as
// the RLE encoding of its XOR delta against the previous version of the
// same PFN (the same codec CompressedSocketTransport puts on the wire),
// sized exactly. Delta chains are capped at depth 1: a delta's base is
// always a raw entry, so restoring any page decodes at most two payloads.
//
// Digest 0 is reserved as the "zero / never-backed page" sentinel and is
// never produced as a key by page_digest(); generation manifests use it
// instead of interning the shared zero frame.
#pragma once

#include "common/hash.h"
#include "crypto/page_sealer.h"
#include "machine/page.h"

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace crimes::store {

// Manifest sentinel: the page is all zeroes (or was never backed).
inline constexpr std::uint64_t kZeroDigest = 0;

// A page's digest from one hash128 pass: `lo` is its key (manifests, the
// entry map, the attestation fold) and `hi` its collision check. Callers
// that hash while they copy key the result with as_page_digest (see
// copy_page_digest); page_digest does the same for a page at rest.
[[nodiscard]] constexpr Hash128 as_page_digest(Hash128 h) {
  // Remap the (absurdly unlikely) key that lands on the sentinel onto an
  // arbitrary fixed value.
  if (h.lo == kZeroDigest) h.lo = 0x9E3779B97F4A7C15ULL;
  return h;
}
[[nodiscard]] inline Hash128 page_digest(const Page& page) {
  return as_page_digest(hash128(page.bytes()));
}
// Copies `src` into `dst` and returns the copy's page_digest from the same
// loads (the fused copy of the CoW drain and its first-touch handler).
[[nodiscard]] inline Hash128 copy_page_digest(Page& dst, const Page& src) {
  return as_page_digest(copy_and_hash(dst.data.data(), src.data.data(),
                                      kPageSize));
}

struct PageStoreStats {
  std::size_t pages_unique = 0;      // live entries
  std::uint64_t bytes_physical = 0;  // payload bytes + per-entry overhead
  std::uint64_t interns = 0;         // intern() calls, lifetime
  std::uint64_t dedup_hits = 0;      // interns satisfied by an existing entry
  std::uint64_t delta_entries = 0;   // live entries stored as XOR deltas
  std::uint64_t pages_sealed = 0;    // payloads sealed at intern, lifetime
  std::uint64_t seal_failures = 0;   // MAC mismatches detected, lifetime

  friend bool operator==(const PageStoreStats&,
                         const PageStoreStats&) = default;
};

// Adversarial corruption modes (SEVurity, DESIGN.md section 15) the
// fault layer injects against sealed payloads "at rest".
enum class TamperMode {
  FlipByte,     // flip one ciphertext byte in place
  SwapEntries,  // move two entries' sealed payloads (and tags) wholesale
  TruncateMac,  // zero the stored tag
};

class PageStore {
 public:
  explicit PageStore(bool delta_compress) : delta_compress_(delta_compress) {}

  // Stores `page` (whose digest the caller computed via page_digest) and
  // returns its key, digest.lo, with one reference held by the caller.
  // When `prev_digest` names a live raw entry -- the previous version of
  // the same PFN -- the page may be stored as an XOR delta against it, in
  // which case the entry holds its own reference on the base. Throws
  // std::runtime_error, changing nothing, when a live entry has the same
  // key but a different check half (a genuine 64-bit collision).
  std::uint64_t intern(const Page& page, Hash128 digest,
                       std::uint64_t prev_digest = kZeroDigest);

  // Drops one reference; at zero the entry is freed (cascading to its
  // delta base). kZeroDigest is a no-op.
  void release(std::uint64_t digest);

  // Reconstructs the exact stored bytes into `out`. kZeroDigest zeroes the
  // page. Throws std::logic_error on an unknown digest or a corrupt
  // payload (both indicate a store bug, not a caller error), and
  // crypto::TamperError when the sealer is set and a payload fails its
  // MAC -- the sealed bytes are never decrypted into garbage.
  void materialize(std::uint64_t digest, Page& out) const;

  // Sealing (DESIGN.md section 15): with a sealer set, every interned
  // payload is ciphered under the tenant keystream (tweak = the entry's
  // own digest, so a payload moved to another slot deciphers under the
  // wrong tweak) and tagged with a keyed MAC verified on materialize.
  void set_sealer(const crypto::PageSealer* sealer) { sealer_ = sealer; }
  [[nodiscard]] bool sealed() const { return sealer_ != nullptr; }

  // Integrity sweep: recompute every live entry's MAC and return the
  // digests that fail, sorted (deterministic evidence order; only the
  // failures are sorted). Empty when the sealer is unset. Also bumps
  // stats().seal_failures.
  [[nodiscard]] std::vector<std::uint64_t> verify_seals() const;

  // Adversary hook for the fault layer: corrupt the sealed state at
  // rest. `victim` indexes the sorted digest list (deterministic across
  // runs); returns the victim digest for evidence pinning, or
  // kZeroDigest when the store is empty.
  std::uint64_t tamper(std::uint64_t victim, TamperMode mode);

  [[nodiscard]] bool contains(std::uint64_t digest) const {
    return entries_.count(digest) != 0;
  }
  [[nodiscard]] std::size_t entry_count() const { return entries_.size(); }
  [[nodiscard]] std::uint32_t refs(std::uint64_t digest) const;
  [[nodiscard]] const PageStoreStats& stats() const { return stats_; }

 private:
  // Accounting charge per entry beyond its payload (hash node, key,
  // refcount, base digest, vector header) -- keeps bytes_physical honest
  // about bookkeeping overhead, not just compressed payload bytes.
  static constexpr std::uint64_t kEntryOverhead = 64;

  struct Entry {
    std::uint32_t refs = 0;
    std::uint64_t check = 0;  // digest.hi: detects key collisions
    std::uint64_t base = kZeroDigest;  // delta base (kZeroDigest = raw)
    std::uint64_t mac = 0;  // keyed tag over the sealed payload (sealer set)
    std::vector<std::byte> payload;  // RLE of raw/XOR-delta bytes, sealed,
                                     // exactly sized
  };

  // Digests of the live entries in sorted order: the tamper hook's
  // deterministic victim index (unordered_map order would break
  // same-seed reproducibility).
  [[nodiscard]] std::vector<std::uint64_t> sorted_digests() const;

  bool delta_compress_;
  const crypto::PageSealer* sealer_ = nullptr;
  std::unordered_map<std::uint64_t, Entry> entries_;
  mutable PageStoreStats stats_;
};

}  // namespace crimes::store
