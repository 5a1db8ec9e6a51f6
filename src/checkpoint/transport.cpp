#include "checkpoint/transport.h"

#include "common/bytes.h"
#include "common/thread_pool.h"
#include "fault/fault_injector.h"
#include "machine/page.h"
#include "store/page_store.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace crimes {

bool Transport::copy_attempt_fails() const {
  return faults_ != nullptr && faults_->transport_copy_fails();
}

namespace {

// Cheap keyed keystream standing in for ssh's stream cipher. Applied twice
// (encrypt on send, decrypt on receive), so the work -- the reason the
// paper's Optimization 1 exists -- is really done.
void xor_keystream(std::span<std::byte> data, std::uint64_t key) {
  std::uint64_t state = key ^ 0x9E3779B97F4A7C15ULL;
  std::size_t i = 0;
  for (; i + 8 <= data.size(); i += 8) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    std::uint64_t word;
    std::memcpy(&word, data.data() + i, 8);
    word ^= state;
    std::memcpy(data.data() + i, &word, 8);
  }
  for (; i < data.size(); ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    data[i] ^= static_cast<std::byte>(state);
  }
}

}  // namespace

std::size_t MemcpyTransport::effective_shards(std::size_t pages) const {
  if (pool_ == nullptr || shards_ <= 1) return 1;
  return std::clamp<std::size_t>(pages / kMinPagesPerShard, 1, shards_);
}

Nanos MemcpyTransport::copy(ForeignMapping& primary, ForeignMapping& backup,
                            std::span<const Pfn> dirty,
                            std::span<Hash128> digests) {
  const bool fused = !digests.empty();
  const Nanos per_page =
      costs_->copy_memcpy_per_page +
      (fused ? costs_->cow_fused_hash_per_page : Nanos{0});
  const auto copy_page = [fused, digests](std::size_t i, Page& to,
                                          const Page& from) {
    if (fused) {
      digests[i] = store::copy_page_digest(to, from);
    } else {
      std::memcpy(to.data.data(), from.data.data(), kPageSize);
    }
  };
  if (copy_attempt_fails()) {
    // The attempt aborts mid-stream: half the pages really land in the
    // backup (leaving it torn until the caller retries or restores its
    // undo log), and the wasted work is billed via the exception.
    const std::size_t done = dirty.size() / 2;
    for (std::size_t i = 0; i < done; ++i) {
      copy_page(i, backup.page(dirty[i]), primary.peek(dirty[i]));
    }
    throw fault::TransportFault(per_page * done);
  }
  const std::size_t shards = effective_shards(dirty.size());
  if (shards <= 1) {
    for (std::size_t i = 0; i < dirty.size(); ++i) {
      copy_page(i, backup.page(dirty[i]), primary.peek(dirty[i]));
    }
    return per_page * dirty.size();
  }

  // Gather pass, serial: mutable backup access materializes lazily
  // allocated frames from the shared machine pool, which must not race.
  // Frames are stable once handed out, so the collected pointers survive
  // the parallel pass.
  frames_.clear();
  for (const Pfn pfn : dirty) {
    frames_.emplace_back(&backup.page(pfn), &primary.peek(pfn));
  }

  // Copy pass: dirty PFNs are unique and map to disjoint frames (and
  // digest slots), so the shards share nothing -- no locks on the
  // suspended-window path.
  pool_->parallel_for_shards(
      frames_.size(), shards,
      [this, &copy_page](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          copy_page(i, *frames_[i].first, *frames_[i].second);
        }
      });
  return costs_->parallel_shard_cost(per_page, dirty.size(), shards);
}

namespace rle {
namespace {

static_assert(std::endian::native == std::endian::little,
              "the RLE codec loads and stores little-endian words");

constexpr std::uint64_t kLow7 = 0x7F7F7F7F7F7F7F7FULL;
constexpr std::uint64_t kHigh = 0x8080808080808080ULL;

std::uint64_t load_word(const std::byte* at) {
  std::uint64_t word = 0;
  std::memcpy(&word, at, sizeof word);
  return word;
}

// 0x80 in every byte of `word` that is non-zero, 0 in every zero byte.
// Exact per byte: the low-7-bit add cannot carry into the next byte.
constexpr std::uint64_t nonzero_bytes(std::uint64_t word) {
  return (((word & kLow7) + kLow7) | word) & kHigh;
}

// Length of the zero run starting at data[from], stopping at `limit`.
std::size_t zero_run(std::span<const std::byte> data, std::size_t from,
                     std::size_t limit) {
  std::size_t i = from;
  for (; i + 8 <= limit; i += 8) {
    const std::uint64_t word = load_word(data.data() + i);
    if (word != 0) return i - from + std::countr_zero(word) / 8;
  }
  while (i < limit && data[i] == std::byte{0}) ++i;
  return i - from;
}

// Length of the non-zero run starting at data[from], stopping at `limit`.
std::size_t literal_run(std::span<const std::byte> data, std::size_t from,
                        std::size_t limit) {
  std::size_t i = from;
  for (; i + 8 <= limit; i += 8) {
    const std::uint64_t zeros =
        ~nonzero_bytes(load_word(data.data() + i)) & kHigh;
    if (zeros != 0) return i - from + std::countr_zero(zeros) / 8;
  }
  while (i < limit && data[i] != std::byte{0}) ++i;
  return i - from;
}

// Walks the records of encode(data): a zero run then a literal run, each
// capped at kMaxRun. emit(zeros, literal_offset, literals) per record.
template <typename Emit>
void for_each_record(std::span<const std::byte> data, Emit&& emit) {
  std::size_t i = 0;
  while (i < data.size()) {
    const std::size_t zeros =
        zero_run(data, i, std::min(data.size(), i + kMaxRun));
    const std::size_t lit_start = i + zeros;
    const std::size_t lits = literal_run(
        data, lit_start, std::min(data.size(), lit_start + kMaxRun));
    emit(zeros, lit_start, lits);
    i = lit_start + lits;
  }
}

// Running encoded_size of one stream, fed a word's nonzero_bytes() mask at
// a time -- no branch on the data, so it costs the same on any page. Exact
// while no run can reach kMaxRun.
struct SizeCount {
  std::size_t size = 0;
  std::uint64_t carry = 0;  // 0x80 when the previous byte was non-zero

  void add(std::uint64_t mask) {
    // Each non-zero run opens a record (4 header bytes) and every non-zero
    // byte is one literal. Per byte that is 4 where a run starts plus 1
    // where a literal sits -- at most 5 -- and the multiply sums the eight
    // bytes into the top one.
    const std::uint64_t starts = mask & ~((mask << 8) | carry);
    size += static_cast<std::size_t>(
        (((starts >> 5) + (mask >> 7)) * 0x0101010101010101ULL) >> 56);
    carry = mask >> 56;
  }
  // A trailing zero run closes the last record.
  [[nodiscard]] std::size_t total(std::byte last) const {
    return size + (last == std::byte{0} ? 4 : 0);
  }
};

}  // namespace

std::size_t encoded_size(std::span<const std::byte> data) {
  std::size_t size = 0;
  if (data.size() > kMaxRun) {
    for_each_record(data,
                    [&size](std::size_t, std::size_t, std::size_t lits) {
                      size += 4 + lits;
                    });
    return size;
  }
  if (data.empty()) return 0;
  SizeCount count;
  std::size_t i = 0;
  for (; i + 8 <= data.size(); i += 8) {
    count.add(nonzero_bytes(load_word(data.data() + i)));
  }
  if (i < data.size()) {
    // Zero padding adds neither run starts nor literals.
    std::uint64_t word = 0;
    std::memcpy(&word, data.data() + i, data.size() - i);
    count.add(nonzero_bytes(word));
  }
  return count.total(data.back());
}

void encode_to(std::span<const std::byte> data, std::span<std::byte> out) {
  std::size_t pos = 0;
  for_each_record(data, [&](std::size_t zeros, std::size_t lit_start,
                            std::size_t lits) {
    if (pos + 4 + lits > out.size()) {
      throw std::length_error("rle::encode_to: output buffer too small");
    }
    const auto header = static_cast<std::uint32_t>(zeros | (lits << 16));
    std::memcpy(out.data() + pos, &header, sizeof header);
    if (lits > 0) {
      std::memcpy(out.data() + pos + 4, data.data() + lit_start, lits);
    }
    pos += 4 + lits;
  });
  if (pos != out.size()) {
    throw std::length_error("rle::encode_to: output buffer too large");
  }
}

std::vector<std::byte> encode(std::span<const std::byte> data) {
  std::vector<std::byte> out(encoded_size(data));
  encode_to(data, out);
  return out;
}

DeltaSizes size_with_delta(std::span<const std::byte> data,
                           std::span<const std::byte> base,
                           std::span<std::byte> delta) {
  const std::size_t len = data.size();
  if (base.size() != len || delta.size() != len || len % 8 != 0 ||
      len > kMaxRun) {
    throw std::invalid_argument("rle::size_with_delta: bad span lengths");
  }
  SizeCount raw;
  SizeCount xored;
  for (std::size_t i = 0; i < len; i += 8) {
    const std::uint64_t word = load_word(data.data() + i);
    const std::uint64_t diff = word ^ load_word(base.data() + i);
    std::memcpy(delta.data() + i, &diff, sizeof diff);
    raw.add(nonzero_bytes(word));
    xored.add(nonzero_bytes(diff));
  }
  if (len == 0) return {};
  return {raw.total(data.back()), xored.total(delta.back())};
}

bool decode(std::span<const std::byte> encoded, std::span<std::byte> out) {
  std::size_t in = 0, pos = 0;
  while (in < encoded.size()) {
    if (in + 4 > encoded.size()) return false;
    const auto zeros = load_le<std::uint16_t>(encoded, in);
    const auto lits = load_le<std::uint16_t>(encoded, in + 2);
    in += 4;
    if (pos + zeros + lits > out.size() || in + lits > encoded.size()) {
      return false;
    }
    if (zeros > 0) {
      std::memset(out.data() + pos, 0, zeros);
      pos += zeros;
    }
    if (lits > 0) {
      std::memcpy(out.data() + pos, encoded.data() + in, lits);
      pos += lits;
      in += lits;
    }
  }
  // Trailing zeroes may be implicit. (Guarded: out.data() may be null for
  // an empty span, and memset's pointer must never be null, even for 0.)
  if (pos < out.size()) {
    std::memset(out.data() + pos, 0, out.size() - pos);
  }
  return true;
}

}  // namespace rle

Nanos SocketTransport::copy(ForeignMapping& primary, ForeignMapping& backup,
                            std::span<const Pfn> dirty) {
  // Each {pfn, page} record is framed into a page-sized record buffer,
  // enciphered onto the wire, deciphered by the receiver (the Remus
  // "Restore" process) and applied, with a per-record key standing in for
  // the record nonce. An aborted stream breaks after half the records.
  constexpr std::size_t kRecordSize = sizeof(std::uint64_t) + kPageSize;
  const std::uint64_t key = 0xC0FFEE ^ (dirty.empty() ? 0 : dirty[0].value());
  const bool aborts = copy_attempt_fails();
  const std::size_t applied = aborts ? dirty.size() / 2 : dirty.size();
  std::array<std::byte, kRecordSize> record{};
  for (std::size_t i = 0; i < applied; ++i) {
    const Pfn pfn = dirty[i];
    store_le<std::uint64_t>(record, 0, pfn.value());
    std::memcpy(record.data() + sizeof(std::uint64_t),
                primary.peek(pfn).data.data(), kPageSize);
    const std::uint64_t rkey = key ^ (pfn.value() * 0x100000001B3ULL);
    xor_keystream(record, rkey);   // encrypt onto the wire...
    bytes_streamed_ += kRecordSize;
    xor_keystream(record, rkey);   // ...receiver decrypts...
    std::memcpy(backup.page(pfn).data.data(),    // ...and applies.
                record.data() + sizeof(std::uint64_t), kPageSize);
  }
  if (aborts) {
    // The stream broke mid-epoch: the records already applied leave the
    // backup torn, as on a dropped Remus connection.
    throw fault::TransportFault(per_page_ * applied);
  }
  return per_page_ * dirty.size();
}

Nanos CompressedSocketTransport::copy(ForeignMapping& primary,
                                      ForeignMapping& backup,
                                      std::span<const Pfn> dirty) {
  // Sender: XOR each dirty page against the backup's stale copy and RLE
  // the delta straight into a record; cipher it, and the receiver
  // deciphers, decodes and XORs the delta back into its copy. Dirty PFNs
  // are unique, so applying record i never changes record j's stale page.
  const std::uint64_t key = 0xDE17A ^ (dirty.empty() ? 0 : dirty[0].value());
  const bool aborts = copy_attempt_fails();
  const std::size_t applied = aborts ? dirty.size() / 2 : dirty.size();
  std::uint64_t sent = 0;
  delta_.resize(kPageSize);
  for (std::size_t i = 0; i < applied; ++i) {
    const Pfn pfn = dirty[i];
    const Page& fresh = primary.peek(pfn);
    const Page& stale = backup.peek(pfn);
    for (std::size_t b = 0; b < kPageSize; ++b) {
      delta_[b] = fresh.data[b] ^ stale.data[b];
    }
    const std::size_t encoded = rle::encoded_size(delta_);
    record_.resize(12 + encoded);
    store_le<std::uint64_t>(record_, 0, pfn.value());
    store_le<std::uint32_t>(record_, 8, static_cast<std::uint32_t>(encoded));
    rle::encode_to(delta_, std::span<std::byte>(record_).subspan(12));
    const std::uint64_t rkey = key ^ (pfn.value() * 0x100000001B3ULL);
    xor_keystream(record_, rkey);
    raw_bytes_ += kPageSize;
    wire_bytes_ += record_.size();
    sent += record_.size();
    xor_keystream(record_, rkey);
    if (!rle::decode(std::span<const std::byte>(record_).subspan(12),
                     delta_)) {
      throw std::runtime_error(
          "CompressedSocketTransport: corrupt wire record");
    }
    Page& dst = backup.page(pfn);
    for (std::size_t b = 0; b < kPageSize; ++b) {
      dst.data[b] ^= delta_[b];
    }
  }
  if (aborts) throw fault::TransportFault(per_page_ * applied);
  // CPU to build/apply deltas plus wire time proportional to what was
  // actually sent.
  return per_page_ * dirty.size() +
         Nanos{static_cast<std::int64_t>(
             static_cast<double>(sent) *
             static_cast<double>(wire_per_byte_.count()))};
}

}  // namespace crimes
