#include "store/page_store.h"

#include "checkpoint/transport.h"  // crimes::rle -- the shared codec

#include <algorithm>
#include <iterator>
#include <stdexcept>

namespace crimes::store {

std::uint64_t PageStore::intern(const Page& page, Hash128 digest,
                                std::uint64_t prev_digest) {
  const std::uint64_t key = digest.lo;
  const auto it = entries_.find(key);
  if (it != entries_.end() && it->second.check != digest.hi) {
    // A genuine 64-bit key collision. Refusing loudly beats silently
    // deduplicating two different pages into one.
    throw std::runtime_error("PageStore: page digest collision");
  }
  ++stats_.interns;
  if (it != entries_.end()) {
    ++it->second.refs;
    ++stats_.dedup_hits;
    return key;
  }

  Entry entry;
  entry.refs = 1;
  entry.check = digest.hi;

  // Delta candidate: the XOR against the previous version of this PFN,
  // kept when its encoding is strictly smaller. Only raw entries may serve
  // as bases (depth-1 chains), and the base must still be live. Both
  // candidates are sized in one sweep; only the winner is encoded.
  std::span<const std::byte> winner = page.bytes();
  std::size_t winner_size = 0;  // 0 = not sized yet: a page encodes to >= 4
  Page delta;
  if (delta_compress_ && prev_digest != kZeroDigest && prev_digest != key) {
    if (auto base = entries_.find(prev_digest);
        base != entries_.end() && base->second.base == kZeroDigest) {
      Page prev;
      bool base_intact = true;
      try {
        materialize(prev_digest, prev);
      } catch (const crypto::TamperError&) {
        // The base failed its MAC: a mid-run detection, already counted in
        // stats_.seal_failures and re-reported by the end-of-run seal
        // audit. Don't kill the pipeline for an optimization -- store the
        // new version raw and leave the tampered entry as evidence.
        base_intact = false;
      }
      if (base_intact) {
        const rle::DeltaSizes sizes =
            rle::size_with_delta(page.bytes(), prev.bytes(), delta.bytes());
        winner_size = sizes.raw;
        if (sizes.delta < sizes.raw) {
          winner = delta.bytes();
          winner_size = sizes.delta;
          entry.base = prev_digest;
          ++base->second.refs;  // the delta pins its base
          ++stats_.delta_entries;
        }
      }
    }
  }
  if (winner_size == 0) winner_size = rle::encoded_size(winner);
  entry.payload.resize(winner_size);
  rle::encode_to(winner, entry.payload);

  // Seal last: the delta candidate above needed plaintext payloads, and
  // the tweak is the entry's own key, so a sealed payload moved to a
  // different slot deciphers under the wrong keystream and its MAC misses
  // (SEVurity's block-move attack, detected not decoded).
  if (sealer_ != nullptr) {
    entry.mac = sealer_->seal(entry.payload, key);
    ++stats_.pages_sealed;
  }

  stats_.bytes_physical += entry.payload.size() + kEntryOverhead;
  ++stats_.pages_unique;
  entries_.emplace(key, std::move(entry));
  return key;
}

void PageStore::release(std::uint64_t digest) {
  if (digest == kZeroDigest) return;
  const auto it = entries_.find(digest);
  if (it == entries_.end()) {
    throw std::logic_error("PageStore::release: unknown digest");
  }
  if (--it->second.refs > 0) return;
  const std::uint64_t base = it->second.base;
  stats_.bytes_physical -= it->second.payload.size() + kEntryOverhead;
  --stats_.pages_unique;
  if (base != kZeroDigest) --stats_.delta_entries;
  entries_.erase(it);
  if (base != kZeroDigest) release(base);
}

void PageStore::materialize(std::uint64_t digest, Page& out) const {
  if (digest == kZeroDigest) {
    out.zero();
    return;
  }
  const auto it = entries_.find(digest);
  if (it == entries_.end()) {
    throw std::logic_error("PageStore::materialize: unknown digest");
  }
  const Entry& entry = it->second;

  // Sealed store: verify the MAC before any decode, and decipher a copy
  // -- the stored payload stays sealed at rest. A mismatch is reported
  // as tampering (crypto::TamperError), never decrypted into garbage.
  std::vector<std::byte> unsealed;
  const std::vector<std::byte>* payload = &entry.payload;
  if (sealer_ != nullptr) {
    unsealed = entry.payload;
    if (!sealer_->unseal(unsealed, digest, entry.mac)) {
      ++stats_.seal_failures;
      throw crypto::TamperError(
          "PageStore::materialize: MAC mismatch on sealed payload");
    }
    payload = &unsealed;
  }

  if (entry.base == kZeroDigest) {
    if (!rle::decode(*payload, out.bytes())) {
      throw std::logic_error("PageStore::materialize: corrupt raw payload");
    }
    return;
  }
  materialize(entry.base, out);  // depth-1 chain: the base is raw
  Page delta;
  if (!rle::decode(*payload, delta.bytes())) {
    throw std::logic_error("PageStore::materialize: corrupt delta payload");
  }
  for (std::size_t i = 0; i < kPageSize; ++i) out.data[i] ^= delta.data[i];
}

std::uint32_t PageStore::refs(std::uint64_t digest) const {
  const auto it = entries_.find(digest);
  return it == entries_.end() ? 0 : it->second.refs;
}

std::vector<std::uint64_t> PageStore::sorted_digests() const {
  std::vector<std::uint64_t> digests;
  digests.reserve(entries_.size());
  for (const auto& [digest, entry] : entries_) digests.push_back(digest);
  std::sort(digests.begin(), digests.end());
  return digests;
}

std::vector<std::uint64_t> PageStore::verify_seals() const {
  std::vector<std::uint64_t> bad;
  if (sealer_ == nullptr) return bad;
  // The sweep waits on cache misses into scattered payloads, not on the
  // MAC: request each payload a few entries before its MAC reads it.
  constexpr std::size_t kPrefetchAhead = 4;
  auto ahead = std::next(entries_.begin(),
                         static_cast<std::ptrdiff_t>(std::min(
                             kPrefetchAhead, entries_.size())));
  for (const auto& [digest, entry] : entries_) {
    if (ahead != entries_.end()) {
      __builtin_prefetch(ahead->second.payload.data());
      ++ahead;
    }
    if (sealer_->mac(entry.payload, digest) != entry.mac) {
      bad.push_back(digest);
    }
  }
  stats_.seal_failures += bad.size();
  std::sort(bad.begin(), bad.end());
  return bad;
}

std::uint64_t PageStore::tamper(std::uint64_t victim, TamperMode mode) {
  if (entries_.empty()) return kZeroDigest;
  const std::vector<std::uint64_t> digests = sorted_digests();
  const std::uint64_t target = digests[victim % digests.size()];
  Entry& entry = entries_.at(target);
  switch (mode) {
    case TamperMode::FlipByte:
      if (!entry.payload.empty()) {
        entry.payload[entry.payload.size() / 2] ^= std::byte{0x40};
      }
      break;
    case TamperMode::SwapEntries: {
      // Move attack: two sealed records trade places wholesale (payload
      // *and* tag). Each tag still matches its own bytes -- only the
      // digest-bound tweak gives the move away.
      if (digests.size() < 2) {
        entry.mac ^= 1;  // degenerate store: no partner to swap with
        break;
      }
      Entry& other =
          entries_.at(digests[(victim + 1) % digests.size()]);
      std::swap(entry.payload, other.payload);
      std::swap(entry.mac, other.mac);
      break;
    }
    case TamperMode::TruncateMac:
      entry.mac = 0;
      break;
  }
  return target;
}

}  // namespace crimes::store
