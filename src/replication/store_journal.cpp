#include "replication/store_journal.h"

#include "checkpoint/transport.h"  // rle::encode / rle::decode
#include "common/hash.h"
#include "common/log.h"
#include "crypto/attestation_chain.h"
#include "fault/fault_injector.h"
#include "store/checkpoint_store.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <unordered_map>

namespace crimes::replication {
namespace {

constexpr std::uint32_t kMagic = 0x4C4A5243;  // "CRJL"
constexpr std::size_t kHeaderBytes =
    sizeof(std::uint32_t) + 1 + sizeof(std::uint64_t) + sizeof(std::uint32_t);
constexpr std::size_t kChecksumBytes = sizeof(std::uint64_t);

static_assert(std::is_trivially_copyable_v<VcpuState>,
              "VcpuState is serialized by memcpy");

// The unkeyed framing checksum over a record's header and payload (the
// writer, the reader and the adversary's fix-up all call this).
std::uint64_t frame_checksum(std::span<const std::byte> frame) {
  return hash128(frame).lo;
}

void put_bytes(std::vector<std::byte>& out, const void* src, std::size_t n) {
  if (n == 0) return;  // empty payloads carry a null data() — UB for memcpy
  const std::size_t at = out.size();
  out.resize(at + n);
  std::memcpy(out.data() + at, src, n);
}
void put_u8(std::vector<std::byte>& out, std::uint8_t v) {
  out.push_back(static_cast<std::byte>(v));
}
void put_u32(std::vector<std::byte>& out, std::uint32_t v) {
  put_bytes(out, &v, sizeof v);
}
void put_u64(std::vector<std::byte>& out, std::uint64_t v) {
  put_bytes(out, &v, sizeof v);
}
void put_i64(std::vector<std::byte>& out, std::int64_t v) {
  put_bytes(out, &v, sizeof v);
}

// Bounds-checked little-endian reader over a journal device image.
struct Reader {
  std::span<const std::byte> data;
  std::size_t off = 0;

  [[nodiscard]] std::size_t remaining() const { return data.size() - off; }
  bool read(void* dst, std::size_t n) {
    if (remaining() < n) return false;
    std::memcpy(dst, data.data() + off, n);
    off += n;
    return true;
  }
  bool u8(std::uint8_t& v) { return read(&v, sizeof v); }
  bool u32(std::uint32_t& v) { return read(&v, sizeof v); }
  bool u64(std::uint64_t& v) { return read(&v, sizeof v); }
  bool i64(std::int64_t& v) { return read(&v, sizeof v); }
};

// Serializes the shared part of Seed/Append payloads: the generation's
// manifest plus every carried page as pfn | encoded_len | RLE bytes.
void encode_pages(std::vector<std::byte>& payload, ForeignMapping& image,
                  std::span<const Pfn> pfns) {
  put_u32(payload, static_cast<std::uint32_t>(pfns.size()));
  for (const Pfn pfn : pfns) {
    const Page& page = image.peek(pfn);
    const std::vector<std::byte> encoded =
        rle::encode(std::span<const std::byte>(page.data));
    put_u64(payload, pfn.raw);
    put_u32(payload, static_cast<std::uint32_t>(encoded.size()));
    put_bytes(payload, encoded.data(), encoded.size());
  }
}

struct DecodedGeneration {
  std::uint64_t epoch = 0;
  std::int64_t now = 0;
  VcpuState vcpu;
  std::vector<Pfn> pfns;
};

// Decodes a Seed/Append payload, writing the page bytes straight into the
// scratch image. Returns false on a malformed payload (which fsck would
// have rejected -- recover() only sees verified records).
bool decode_generation(Reader& reader, ForeignMapping& image,
                       DecodedGeneration& out) {
  std::uint64_t page_count = 0;  // already consumed by the caller's peek
  if (!reader.u64(out.epoch) || !reader.i64(out.now) ||
      !reader.u64(page_count)) {
    return false;
  }
  if (!reader.read(&out.vcpu, sizeof(VcpuState))) return false;
  std::uint32_t n_pages = 0;
  if (!reader.u32(n_pages)) return false;
  out.pfns.reserve(n_pages);
  for (std::uint32_t i = 0; i < n_pages; ++i) {
    std::uint64_t pfn_value = 0;
    std::uint32_t encoded_len = 0;
    if (!reader.u64(pfn_value) || !reader.u32(encoded_len)) return false;
    if (reader.remaining() < encoded_len) return false;
    const Pfn pfn{pfn_value};
    if (pfn.raw >= image.page_count()) return false;
    if (!rle::decode(reader.data.subspan(reader.off, encoded_len),
                     std::span<std::byte>(image.page(pfn).data))) {
      return false;
    }
    reader.off += encoded_len;
    out.pfns.push_back(pfn);
  }
  return true;
}

}  // namespace

Nanos StoreJournal::append_record(RecordType type,
                                  std::span<const std::byte> payload) {
  std::vector<std::byte> record;
  record.reserve(kHeaderBytes + payload.size() + kChecksumBytes);
  put_u32(record, kMagic);
  put_u8(record, static_cast<std::uint8_t>(type));
  put_u64(record, seq_);
  put_u32(record, static_cast<std::uint32_t>(payload.size()));
  put_bytes(record, payload.data(), payload.size());
  put_u64(record, frame_checksum(record));

  // Adversarial ciphertext rewrite (JournalBlockTamper): a device-level
  // adversary flips one payload byte just below the carried root and
  // *fixes up* the unkeyed framing checksum -- the frame still parses and
  // checksums clean. Only the keyed attestation walk (fsck/recover) can
  // tell the record no longer matches its root. Armed only with
  // attestation on: without it the rewrite would be an undetectable
  // corruption, not an experiment.
  if (faults_ != nullptr && crypto_.attest &&
      (type == RecordType::Seed || type == RecordType::Append) &&
      payload.size() > kChecksumBytes && faults_->tampers_journal()) {
    record[kHeaderBytes + payload.size() - sizeof(std::uint64_t) - 1] ^=
        std::byte{0x20};
    const std::uint64_t fixed = frame_checksum(std::span<const std::byte>(
        record.data(), kHeaderBytes + payload.size()));
    std::memcpy(record.data() + kHeaderBytes + payload.size(), &fixed,
                sizeof fixed);
    CRIMES_LOG(Warn, "journal")
        << "injected block tamper on record " << seq_
        << " (framing checksum fixed up by the adversary)";
  }

  const std::size_t pages =
      (record.size() + kPageSize - 1) / kPageSize;  // device blocks touched
  Nanos base = costs_->journal_append_base;
  if (batching_) {
    if (batch_base_paid_) base = Nanos{0};  // rides the batch's submission
    batch_base_paid_ = true;
  }
  Nanos cost = base + costs_->journal_write_per_page * pages;

  if (faults_ != nullptr && faults_->tears_journal_write()) {
    // The device acks a torn write: only a prefix of the record lands. The
    // journal's write-verify read-back catches the bad checksum, truncates
    // the damaged frame and rewrites it -- paying the scan plus a second
    // full write.
    const std::size_t torn = std::max<std::size_t>(1, record.size() / 2);
    log_.insert(log_.end(), record.begin(),
                record.begin() + static_cast<std::ptrdiff_t>(torn));
    log_.resize(log_.size() - torn);  // detected; truncate the torn frame
    ++torn_repaired_;
    cost += costs_->journal_scan_per_record +
            costs_->journal_write_per_page * pages;
    CRIMES_LOG(Warn, "journal")
        << "torn write on record " << seq_ << " (" << torn << " of "
        << record.size() << " bytes landed); truncated and rewritten";
  }

  log_.insert(log_.end(), record.begin(), record.end());
  ++seq_;
  return cost;
}

Nanos StoreJournal::log_seed(std::uint64_t epoch, Nanos now,
                             ForeignMapping& image, const VcpuState& vcpu,
                             std::uint64_t root) {
  std::vector<Pfn> backed;
  for (std::size_t i = 0; i < image.page_count(); ++i) {
    if (image.is_backed(Pfn{i})) backed.push_back(Pfn{i});
  }
  std::vector<std::byte> payload;
  put_u64(payload, epoch);
  put_i64(payload, now.count());
  put_u64(payload, image.page_count());
  put_bytes(payload, &vcpu, sizeof vcpu);
  encode_pages(payload, image, backed);
  if (crypto_.attest) put_u64(payload, root);
  return append_record(RecordType::Seed, payload);
}

Nanos StoreJournal::log_append(std::uint64_t epoch, Nanos now,
                               std::span<const Pfn> dirty,
                               ForeignMapping& image, const VcpuState& vcpu,
                               std::uint64_t root) {
  std::vector<std::byte> payload;
  put_u64(payload, epoch);
  put_i64(payload, now.count());
  put_u64(payload, image.page_count());
  put_bytes(payload, &vcpu, sizeof vcpu);
  encode_pages(payload, image, dirty);
  if (crypto_.attest) put_u64(payload, root);
  return append_record(RecordType::Append, payload);
}

Nanos StoreJournal::log_collect() {
  return append_record(RecordType::Collect, {});
}

Nanos StoreJournal::log_audit_failure() {
  return append_record(RecordType::AuditFailure, {});
}

Nanos StoreJournal::log_pin(std::uint64_t epoch) {
  std::vector<std::byte> payload;
  put_u64(payload, epoch);
  return append_record(RecordType::Pin, payload);
}

Nanos StoreJournal::log_truncate(std::uint64_t epoch) {
  std::vector<std::byte> payload;
  put_u64(payload, epoch);
  return append_record(RecordType::Truncate, payload);
}

void StoreJournal::tear_tail(std::size_t drop) {
  drop = std::min(drop, log_.size());
  log_.resize(log_.size() - drop);
}

namespace {

// Shared record walk: advances through `device`, yielding each verified
// record's (type, payload) span. Stops at the first frame that cannot
// parse or checksum; `valid_bytes` then marks the torn-tail boundary.
struct RecordWalk {
  std::span<const std::byte> device;
  std::size_t off = 0;
  std::uint64_t expect_seq = 0;
  std::string error{};

  struct Record {
    StoreJournal::RecordType type;
    std::span<const std::byte> payload;
  };

  // Returns true and fills `out` for the next valid record; false at the
  // end of the valid prefix (error describes why, empty for a clean end).
  bool next(Record& out) {
    if (off == device.size()) return false;
    Reader reader{device, off};
    std::uint32_t magic = 0;
    std::uint8_t type = 0;
    std::uint64_t seq = 0;
    std::uint32_t payload_len = 0;
    if (!reader.u32(magic) || !reader.u8(type) || !reader.u64(seq) ||
        !reader.u32(payload_len)) {
      error = "torn header";
      return false;
    }
    if (magic != kMagic) {
      error = "bad magic";
      return false;
    }
    if (seq != expect_seq) {
      error = "sequence gap";
      return false;
    }
    if (type < static_cast<std::uint8_t>(StoreJournal::RecordType::Seed) ||
        type > static_cast<std::uint8_t>(StoreJournal::RecordType::Truncate)) {
      error = "unknown record type";
      return false;
    }
    if (reader.remaining() < payload_len + kChecksumBytes) {
      error = "torn payload";
      return false;
    }
    const std::size_t payload_at = reader.off;
    reader.off += payload_len;
    std::uint64_t stored = 0;
    (void)reader.u64(stored);
    const std::uint64_t computed =
        frame_checksum(device.subspan(off, kHeaderBytes + payload_len));
    if (stored != computed) {
      error = "checksum mismatch";
      return false;
    }
    out.type = static_cast<StoreJournal::RecordType>(type);
    out.payload = device.subspan(payload_at, payload_len);
    off = reader.off;
    ++expect_seq;
    return true;
  }
};

// Recomputes a Seed/Append record's attestation leaf from its bytes
// alone: every carried page is RLE-decoded into a scratch frame and
// digested exactly the way the store digested the live image at commit
// time, so the fold agrees iff the ciphertext was not rewritten.
bool recompute_leaf(std::span<const std::byte> payload,
                    crypto::AttestationLeaf& leaf, std::uint64_t& carried) {
  Reader reader{payload, 0};
  std::int64_t when = 0;
  std::uint64_t page_count = 0;
  VcpuState vcpu;
  std::uint32_t n_pages = 0;
  if (!reader.u64(leaf.epoch) || !reader.i64(when) ||
      !reader.u64(page_count) || !reader.read(&vcpu, sizeof vcpu) ||
      !reader.u32(n_pages)) {
    return false;
  }
  leaf.vcpu_digest = crypto::pod_digest(vcpu);
  Page scratch;
  for (std::uint32_t i = 0; i < n_pages; ++i) {
    std::uint64_t pfn = 0;
    std::uint32_t encoded_len = 0;
    if (!reader.u64(pfn) || !reader.u32(encoded_len)) return false;
    if (reader.remaining() < encoded_len) return false;
    if (!rle::decode(payload.subspan(reader.off, encoded_len),
                     std::span<std::byte>(scratch.data))) {
      return false;
    }
    reader.off += encoded_len;
    leaf.fold_page(pfn, store::page_digest(scratch).lo);
  }
  return reader.u64(carried);
}

}  // namespace

StoreJournal::FsckReport StoreJournal::fsck() const {
  FsckReport report;
  RecordWalk walk{std::span<const std::byte>(log_)};
  RecordWalk::Record record;
  report.attested = crypto_.attest;
  crypto::AttestationChain verifier(crypto_.tenant_key);
  // Truncate records rewind the store's chain to an earlier epoch; the
  // walk mirrors that by re-anchoring the verifier at the root it already
  // trusted for the target epoch.
  std::unordered_map<std::uint64_t, std::uint64_t> roots_by_epoch;

  const auto fail_at = [&](std::size_t frame_off, std::string reason) {
    report.valid_bytes = frame_off;
    report.torn_bytes = log_.size() - frame_off;
    report.bad_record = report.records;
    report.bad_offset = frame_off;
    report.reason = std::move(reason);
    report.error = report.reason;
    return report;  // ok stays false: trust ends at this frame
  };

  while (true) {
    const std::size_t frame_off = walk.off;
    if (!walk.next(record)) break;
    if (crypto_.attest && (record.type == RecordType::Seed ||
                           record.type == RecordType::Append)) {
      crypto::AttestationLeaf leaf;
      std::uint64_t carried = 0;
      if (!recompute_leaf(record.payload, leaf, carried)) {
        return fail_at(frame_off, "attestation: undecodable generation payload");
      }
      if (!verifier.verify_extend(leaf, carried)) {
        return fail_at(frame_off,
                       "attestation: root mismatch (keyed chain rejects "
                       "record bytes)");
      }
      roots_by_epoch[leaf.epoch] = carried;
      ++report.roots_verified;
    } else if (crypto_.attest && record.type == RecordType::Truncate) {
      Reader reader{record.payload, 0};
      std::uint64_t target = 0;
      if (!reader.u64(target) || roots_by_epoch.count(target) == 0) {
        return fail_at(frame_off, "attestation: truncate to unverified epoch");
      }
      verifier.reset(roots_by_epoch.at(target), 0);
    }
    ++report.records;
  }
  report.valid_bytes = walk.off;
  report.torn_bytes = log_.size() - walk.off;
  report.error = walk.error;
  report.ok = report.torn_bytes == 0;
  if (!report.ok) {
    report.bad_record = report.records;
    report.bad_offset = walk.off;
    report.reason = walk.error;
  }
  return report;
}

StoreJournal::Recovered StoreJournal::recover(
    std::span<const std::byte> device, const CostModel& costs,
    const store::StoreConfig& config) {
  Recovered out;
  RecordWalk walk{device};
  RecordWalk::Record record;

  while (walk.next(record)) {
    Reader reader{record.payload, 0};
    out.cost += costs.journal_scan_per_record;
    switch (record.type) {
      case RecordType::Seed: {
        if (out.store != nullptr) {
          throw std::runtime_error("StoreJournal: duplicate Seed record");
        }
        std::uint64_t epoch = 0;
        std::int64_t when = 0;
        std::uint64_t page_count = 0;
        VcpuState vcpu;
        if (!reader.u64(epoch) || !reader.i64(when) ||
            !reader.u64(page_count) || !reader.read(&vcpu, sizeof vcpu)) {
          throw std::runtime_error("StoreJournal: malformed Seed record");
        }
        out.hypervisor = std::make_unique<Hypervisor>(
            static_cast<std::size_t>(page_count) + 64);
        out.image = &out.hypervisor->create_domain(
            "journal-recovery", static_cast<std::size_t>(page_count));
        out.image->pause();
        ForeignMapping image{*out.image};
        reader.off = 0;  // decode_generation re-reads the manifest
        DecodedGeneration gen;
        if (!decode_generation(reader, image, gen)) {
          throw std::runtime_error("StoreJournal: malformed Seed pages");
        }
        out.image->vcpu() = gen.vcpu;
        out.store = std::make_unique<store::CheckpointStore>(costs, config);
        out.cost += out.store->seed(gen.epoch, image, gen.vcpu,
                                    Nanos{gen.now});
        if (config.crypto.attest) {
          std::uint64_t carried = 0;
          if (!reader.u64(carried)) {
            throw std::runtime_error(
                "StoreJournal: Seed record missing attestation root");
          }
          if (out.store->root() != carried) {
            throw crypto::TamperError(
                "StoreJournal: replayed Seed root diverges from carried "
                "root -- refusing recovery");
          }
          out.cost += costs.crypto_root_verify;
        }
        break;
      }
      case RecordType::Append: {
        if (out.store == nullptr) {
          throw std::runtime_error("StoreJournal: Append before Seed");
        }
        std::uint64_t epoch = 0;
        std::int64_t when = 0;
        std::uint64_t page_count = 0;
        if (!reader.u64(epoch) || !reader.i64(when) ||
            !reader.u64(page_count)) {
          throw std::runtime_error("StoreJournal: malformed Append record");
        }
        ForeignMapping image{*out.image};
        reader.off = 0;
        DecodedGeneration gen;
        if (!decode_generation(reader, image, gen)) {
          throw std::runtime_error("StoreJournal: malformed Append pages");
        }
        out.image->vcpu() = gen.vcpu;
        // Serial hashing (no pool): digests are content-determined, so the
        // rebuilt manifests match the originals bit for bit regardless.
        out.cost += out.store->append(gen.epoch, gen.pfns, image, gen.vcpu,
                                      Nanos{gen.now}, nullptr);
        if (config.crypto.attest) {
          std::uint64_t carried = 0;
          if (!reader.u64(carried)) {
            throw std::runtime_error(
                "StoreJournal: Append record missing attestation root");
          }
          if (out.store->root() != carried) {
            throw crypto::TamperError(
                "StoreJournal: replayed Append root diverges from carried "
                "root -- refusing recovery");
          }
          out.cost += costs.crypto_root_verify;
        }
        break;
      }
      case RecordType::Collect:
        if (out.store == nullptr) {
          throw std::runtime_error("StoreJournal: Collect before Seed");
        }
        out.cost += out.store->collect();
        break;
      case RecordType::AuditFailure:
        if (out.store == nullptr) {
          throw std::runtime_error("StoreJournal: AuditFailure before Seed");
        }
        out.store->note_audit_failure();
        break;
      case RecordType::Pin: {
        std::uint64_t epoch = 0;
        if (out.store == nullptr || !reader.u64(epoch)) {
          throw std::runtime_error("StoreJournal: malformed Pin record");
        }
        out.store->pin(epoch);
        break;
      }
      case RecordType::Truncate: {
        std::uint64_t epoch = 0;
        if (out.store == nullptr || !reader.u64(epoch)) {
          throw std::runtime_error("StoreJournal: malformed Truncate record");
        }
        // Mirror Checkpointer::rollback_to: the image rewinds from the
        // newest generation to the target *before* the chain truncates
        // (rewind needs the newest manifests to compute the page diff).
        ForeignMapping image{*out.image};
        const store::CheckpointStore::Restored restored =
            out.store->rewind(epoch, image);
        out.image->vcpu() = restored.vcpu;
        out.cost += restored.cost + out.store->truncate_to(epoch);
        break;
      }
    }
    ++out.records_applied;
  }

  out.torn_bytes_truncated = device.size() - walk.off;
  if (out.store == nullptr) {
    throw std::runtime_error(
        "StoreJournal: no recoverable Seed record in journal");
  }
  if (out.torn_bytes_truncated > 0) {
    CRIMES_LOG(Warn, "journal")
        << "recovery truncated a torn tail of " << out.torn_bytes_truncated
        << " byte(s) (" << walk.error << ") after " << out.records_applied
        << " valid record(s)";
  }
  return out;
}

}  // namespace crimes::replication
