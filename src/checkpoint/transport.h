// Checkpoint transports: how dirty pages move from the primary VM into the
// backup image.
//
// SocketTransport reproduces unmodified Remus: pages are framed into
// records, run through a stream cipher (Remus pipes checkpoints through ssh
// even when the destination is local), "received" on the other side,
// decrypted and applied. All of that work really happens, byte for byte.
//
// MemcpyTransport is the paper's Optimization 1: the checkpointer maps both
// the primary's and the backup's frames into its own address space (the
// paper patches Remus's Restore process to export the backup's MFNs) and
// memcpy()s dirty pages across.
//
// Either way the backup image ends up byte-identical -- a property the test
// suite asserts for every transport/optimization combination.
//
// A transport only moves bytes, and under fault injection it may abort
// mid-stream. Everything that makes a backup write atomic -- the undo log,
// the torn-write fault site, verification and retries -- lives in the
// Checkpointer's one copy loop, which drives stop-copy and the CoW drain
// alike.
//
// Parallel engine: MemcpyTransport can shard the dirty-PFN list across a
// worker pool. Dirty frames are disjoint (one PFN maps to one machine
// frame, and a PFN appears once in the list), so the concurrent memcpys
// need no locking; only the frame *materialization* (lazy allocation from
// the shared machine pool) is kept on the calling thread.
#pragma once

#include "common/cost_model.h"
#include "common/hash.h"
#include "common/types.h"
#include "hypervisor/foreign_mapping.h"

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace crimes {

namespace fault {
class FaultInjector;
}  // namespace fault

class ThreadPool;

class Transport {
 public:
  virtual ~Transport() = default;

  // Copies `dirty` pages from primary to backup. Returns the virtual-time
  // cost of the copy phase.
  //
  // Under fault injection a copy may abort mid-stream, throwing
  // fault::TransportFault after really copying a prefix of the pages: the
  // backup is left torn, exactly like an interrupted Remus epoch, until the
  // caller's copy loop retries or restores its undo log.
  virtual Nanos copy(ForeignMapping& primary, ForeignMapping& backup,
                     std::span<const Pfn> dirty) = 0;

  [[nodiscard]] virtual const char* name() const = 0;

  // Attaches (nullptr detaches) the fault injector. Decisions are drawn on
  // the calling thread before any parallel fan-out.
  void set_fault_injector(fault::FaultInjector* faults) { faults_ = faults; }

 protected:
  // True when the injector says this copy attempt aborts mid-stream.
  [[nodiscard]] bool copy_attempt_fails() const;

  fault::FaultInjector* faults_ = nullptr;
};

class MemcpyTransport final : public Transport {
 public:
  // With a pool and shards > 1, epochs with at least kMinPagesPerShard
  // pages per shard copy in parallel; smaller epochs stay serial (the
  // fork/join overhead would dominate).
  explicit MemcpyTransport(const CostModel& costs, ThreadPool* pool = nullptr,
                           std::size_t shards = 0)
      : costs_(&costs), pool_(pool), shards_(shards) {}

  static constexpr std::size_t kMinPagesPerShard = 16;

  Nanos copy(ForeignMapping& primary, ForeignMapping& backup,
             std::span<const Pfn> dirty) override {
    return copy(primary, backup, dirty, {});
  }
  // The same copy with each page's store digest fused into it (one sweep
  // per page, store::copy_page_digest): digests[i] receives dirty[i]'s, at
  // cow_fused_hash_per_page more per page. An empty `digests` is the plain
  // copy.
  Nanos copy(ForeignMapping& primary, ForeignMapping& backup,
             std::span<const Pfn> dirty, std::span<Hash128> digests);
  [[nodiscard]] const char* name() const override { return "memcpy"; }

  // Shard count the next copy of `pages` dirty pages would use (1 =
  // serial). Exposed so the cost accounting is testable.
  [[nodiscard]] std::size_t effective_shards(std::size_t pages) const;

 private:
  const CostModel* costs_;
  ThreadPool* pool_;
  std::size_t shards_;
  std::vector<std::pair<Page*, const Page*>> frames_;  // parallel gather
};

// The socket transports frame, cipher and apply one record at a time
// through a page-sized record buffer: no epoch-sized staging buffer sits
// between sender and receiver, and an abort leaves exactly the records
// already applied (and counted) behind. Each owner prices a record: the
// Checkpointer pays Remus's staged pipe (copy_socket_per_page,
// copy_compress_per_page), the Replicator its scatter-gather link
// (copy_socket_gather_per_page, copy_compress_gather_per_page).
class SocketTransport final : public Transport {
 public:
  explicit SocketTransport(Nanos per_page) : per_page_(per_page) {}

  // Wire record, per page: u64 pfn | 4096 page bytes.
  Nanos copy(ForeignMapping& primary, ForeignMapping& backup,
             std::span<const Pfn> dirty) override;
  [[nodiscard]] const char* name() const override { return "socket+ssh"; }

  [[nodiscard]] std::uint64_t bytes_streamed() const {
    return bytes_streamed_;
  }

 private:
  Nanos per_page_;
  std::uint64_t bytes_streamed_ = 0;
};

// Remus's checkpoint compression (extension): each dirty page is XOR'd
// against the backup's stale copy of the same page and the resulting
// delta -- mostly zeroes when only part of a page changed -- is
// run-length encoded before hitting the (ciphered) wire. The receiver
// decodes and XORs the delta back into its copy. Trades CPU per page for
// wire bytes; wins exactly when epochs re-dirty pages sparsely.
//
// Wire record format, per page:
//   u64 pfn | u32 encoded_len | encoded_len bytes of RLE delta
// RLE stream: repeated (u16 zero_run, u16 literal_len, literal bytes).
class CompressedSocketTransport final : public Transport {
 public:
  // `per_page` is the CPU to build and apply one delta record;
  // `wire_per_byte` prices the record bytes actually sent.
  CompressedSocketTransport(Nanos per_page, Nanos wire_per_byte)
      : per_page_(per_page), wire_per_byte_(wire_per_byte) {}

  Nanos copy(ForeignMapping& primary, ForeignMapping& backup,
             std::span<const Pfn> dirty) override;
  [[nodiscard]] const char* name() const override {
    return "socket+ssh+xor-rle";
  }

  [[nodiscard]] std::uint64_t raw_bytes() const { return raw_bytes_; }
  [[nodiscard]] std::uint64_t wire_bytes() const { return wire_bytes_; }
  // >1 means the delta encoding actually saved wire traffic.
  [[nodiscard]] double compression_ratio() const {
    return wire_bytes_ == 0 ? 1.0
                            : static_cast<double>(raw_bytes_) /
                                  static_cast<double>(wire_bytes_);
  }

 private:
  Nanos per_page_;
  Nanos wire_per_byte_;
  std::vector<std::byte> delta_;
  std::vector<std::byte> record_;
  std::uint64_t raw_bytes_ = 0;
  std::uint64_t wire_bytes_ = 0;
};

// The zero-run codec shared by the compressed transport, the checkpoint
// store and the journal. The encoder finds run boundaries a word at a
// time; its output is fixed by the format alone.
namespace rle {
// Longest run one record's u16 fields can carry.
inline constexpr std::size_t kMaxRun = 0xFFFF;

// Exact byte count of encode(data).
[[nodiscard]] std::size_t encoded_size(std::span<const std::byte> data);
// Encodes `data` as (zero_run, literal_len, literals)* records into `out`,
// which must be exactly encoded_size(data) bytes (std::length_error
// otherwise).
void encode_to(std::span<const std::byte> data, std::span<std::byte> out);
// The same encoding in an exactly sized buffer.
[[nodiscard]] std::vector<std::byte> encode(std::span<const std::byte> data);
// Decodes into exactly `out.size()` bytes; returns false on malformed
// input.
[[nodiscard]] bool decode(std::span<const std::byte> encoded,
                          std::span<std::byte> out);

// One word-wise sweep over `data` and `base` that writes data ^ base into
// `delta` and returns encoded_size of both `data` and the delta -- what a
// caller choosing between a raw and an XOR-delta encoding needs before it
// encodes the winner. All three spans have one length, a multiple of 8 and
// at most kMaxRun (a page): no run that short hits a record cap, so each
// size is 4 bytes per record plus one per non-zero byte. Throws
// std::invalid_argument otherwise.
struct DeltaSizes {
  std::size_t raw = 0;
  std::size_t delta = 0;
};
[[nodiscard]] DeltaSizes size_with_delta(std::span<const std::byte> data,
                                         std::span<const std::byte> base,
                                         std::span<std::byte> delta);
}  // namespace rle

}  // namespace crimes
