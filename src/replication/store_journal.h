// The durable store journal (DESIGN.md section 11): an append-only record
// of every operation applied to the checkpoint store, detailed enough that
// a crashed primary rebuilds its PageStore/GenerationChain byte-for-byte.
//
// The journal logs *operations*, not state: SEED and APPEND records carry
// the generation manifest plus the RLE-packed payload of every changed
// page; COLLECT/AUDIT_FAILURE/PIN/TRUNCATE records replay the retention
// machinery's decisions. Replaying the record stream against a fresh
// CheckpointStore (and a scratch image for the page bytes) is
// deterministic, so the recovered store is byte-identical to the one the
// crash destroyed -- the property the recovery test asserts generation by
// generation.
//
// Record framing, all fields little-endian:
//
//   u32 magic 'CRJL' | u8 type | u64 seq | u32 payload_len
//   | payload | u64 checksum: hash128(everything above).lo
//
// The per-record checksum is what makes torn tails detectable: a crash (or
// an injected JournalTornWrite) leaves a prefix of a record on the device;
// fsck()/recover() verify record by record and truncate the journal at the
// first frame that fails to parse or checksum. Torn writes *during normal
// operation* are caught the same way -- the journal re-reads what it wrote,
// truncates the damaged frame and rewrites it, charging the repair.
#pragma once

#include "common/cost_model.h"
#include "common/sim_clock.h"
#include "crypto/crypto_config.h"
#include "hypervisor/foreign_mapping.h"
#include "hypervisor/hypervisor.h"
#include "store/store_config.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace crimes::fault {
class FaultInjector;
}  // namespace crimes::fault

namespace crimes::store {
class CheckpointStore;
}  // namespace crimes::store

namespace crimes::replication {

class StoreJournal {
 public:
  enum class RecordType : std::uint8_t {
    Seed = 1,
    Append = 2,
    Collect = 3,
    AuditFailure = 4,
    Pin = 5,
    Truncate = 6,
  };

  explicit StoreJournal(const CostModel& costs,
                        crypto::CryptoConfig crypto = {})
      : costs_(&costs), crypto_(crypto) {}

  // Attaches (nullptr detaches) the fault injector behind the
  // JournalTornWrite and JournalBlockTamper sites.
  void set_fault_injector(fault::FaultInjector* faults) { faults_ = faults; }

  [[nodiscard]] const crypto::CryptoConfig& crypto() const { return crypto_; }

  // --- Logging (each returns the virtual write cost) --------------------
  // With attestation on, Seed/Append records carry the store's root after
  // the logged commit (`root`) at the end of the payload; fsck() reverifies
  // the whole chain from the record bytes alone, and recover() refuses a
  // replay whose recomputed roots diverge from the carried ones. With
  // attestation off the record bytes are identical to the pre-crypto
  // format.
  Nanos log_seed(std::uint64_t epoch, Nanos now, ForeignMapping& image,
                 const VcpuState& vcpu, std::uint64_t root = 0);
  Nanos log_append(std::uint64_t epoch, Nanos now, std::span<const Pfn> dirty,
                   ForeignMapping& image, const VcpuState& vcpu,
                   std::uint64_t root = 0);
  Nanos log_collect();
  Nanos log_audit_failure();
  Nanos log_pin(std::uint64_t epoch);
  Nanos log_truncate(std::uint64_t epoch);

  // --- Commit batching --------------------------------------------------
  // A commit appends several records back to back (APPEND + COLLECT plus
  // retention decisions); batching submits them as one vectored device
  // write, so the fixed journal_append_base is paid once per batch.
  // Record bytes and ordering are unchanged -- fsck/recover never see the
  // difference.
  void begin_batch() {
    batching_ = true;
    batch_base_paid_ = false;
  }
  void end_batch() { batching_ = false; }
  [[nodiscard]] bool batching() const { return batching_; }

  // The raw device contents (what a crash leaves behind).
  [[nodiscard]] const std::vector<std::byte>& bytes() const { return log_; }
  [[nodiscard]] std::uint64_t records() const { return seq_; }
  [[nodiscard]] std::uint64_t torn_writes_repaired() const {
    return torn_repaired_;
  }

  // Crash simulation: tears the tail of the device, leaving the final
  // `drop` bytes of the last record unwritten (clamped to the log size).
  void tear_tail(std::size_t drop);

  // --- Verification / recovery -----------------------------------------
  struct FsckReport {
    bool ok = false;            // every byte belongs to a valid record
    std::size_t records = 0;    // valid records found
    std::size_t valid_bytes = 0;
    std::size_t torn_bytes = 0;  // trailing bytes of a torn/corrupt record
    std::string error;           // first structural problem, if any
    // Structured evidence: exactly where verification stopped (meaningful
    // only when !ok) -- the record index, the byte offset of its frame on
    // the device, and the failure class. Forensic reports render these.
    std::size_t bad_record = 0;
    std::size_t bad_offset = 0;
    std::string reason;
    // Attestation walk (crypto.attest): Seed/Append roots recomputed from
    // the record bytes and chained from genesis.
    bool attested = false;
    std::size_t roots_verified = 0;
  };
  // Walks the device read-only: frame structure, checksums, sequence
  // numbers. A torn tail is reported, not an error -- recovery truncates
  // it. Mid-log corruption (a bad record *followed by* valid ones) can
  // never verify and reports ok = false either way; everything after the
  // damage is unreachable. With attestation on, the walk additionally
  // recomputes every Seed/Append record's pages fold and verifies the
  // carried root -- an adversary can fix the unkeyed framing checksum
  // after rewriting ciphertext, but not the keyed root.
  [[nodiscard]] FsckReport fsck() const;

  struct Recovered {
    std::unique_ptr<Hypervisor> hypervisor;  // owns the rebuilt image
    Vm* image = nullptr;  // backup image as of the last journaled record
    std::unique_ptr<store::CheckpointStore> store;
    std::size_t records_applied = 0;
    std::size_t torn_bytes_truncated = 0;
    Nanos cost{0};
  };
  // Rebuilds the store (and the backup image) from a journal device
  // image, truncating a torn tail first. `config` must match the store
  // config the journal was written under -- retention decides which
  // generations exist at all. Throws on a journal whose valid prefix is
  // empty or does not begin with a Seed record; with attestation on,
  // throws crypto::TamperError when a replayed generation's recomputed
  // root diverges from the record's carried root (a forged replay is
  // refused, never trusted).
  [[nodiscard]] static Recovered recover(std::span<const std::byte> device,
                                         const CostModel& costs,
                                         const store::StoreConfig& config);

 private:
  // Serializes one record (with checksum) and appends it to the device,
  // applying an injected torn write -- and repairing it -- when the fault
  // plan says so. Returns the virtual cost.
  Nanos append_record(RecordType type, std::span<const std::byte> payload);

  const CostModel* costs_;
  crypto::CryptoConfig crypto_;
  fault::FaultInjector* faults_ = nullptr;
  std::vector<std::byte> log_;
  std::uint64_t seq_ = 0;
  std::uint64_t torn_repaired_ = 0;
  bool batching_ = false;
  bool batch_base_paid_ = false;
};

}  // namespace crimes::replication
