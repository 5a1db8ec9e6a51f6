// The checkpoint store: a content-addressed, multi-generation snapshot
// history layered behind the Checkpointer (DESIGN.md section 10).
//
// CRIMES proper keeps exactly one backup VM -- the last clean checkpoint
// -- so the Analyzer can roll back one epoch and forensics can only diff
// "now vs. last clean". This store retains a *chain* of clean generations
// at O(changed pages) append cost: at commit time the dirty list is
// digested (optionally on the Checkpointer's pool), each changed page is
// interned into a refcounted PageStore (deduplicated across generations,
// delta-RLE packed), and a manifest joins the GenerationChain. A
// RetentionPolicy plus incremental GC bound the physical footprint; every
// retained generation materializes byte-identical, which is what makes
// rollback_to(epoch) and multi-epoch forensics possible.
//
// All durations are virtual: the store does real hashing, encoding and
// decoding, and charges CostModel::store_* for them. Nothing here touches
// the SimClock directly -- methods return costs and the Checkpointer
// advances the clock (store work happens after resume, off the
// pause-critical path, like Remus' asynchronous checkpoint drain).
#pragma once

#include "common/cost_model.h"
#include "common/thread_pool.h"
#include "crypto/attestation_chain.h"
#include "hypervisor/foreign_mapping.h"
#include "store/generation_chain.h"
#include "store/store_config.h"
#include "telemetry/metrics.h"

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace crimes::fault {
class FaultInjector;
}  // namespace crimes::fault

namespace crimes::store {

struct StoreStats {
  std::size_t generations = 0;
  std::size_t pages_unique = 0;
  // What naive full-image copies of every retained generation would cost.
  std::uint64_t bytes_logical = 0;
  // What the store actually holds (payloads + entry overhead).
  std::uint64_t bytes_physical = 0;
  std::uint64_t generations_dropped = 0;  // lifetime GC work
  std::uint64_t entries_merged = 0;
  // Sealing (zero with crypto off): payloads sealed and MAC mismatches
  // detected over the store's lifetime.
  std::uint64_t pages_sealed = 0;
  std::uint64_t seal_failures = 0;
  // Generations an unbounded collect() would drop right now -- the
  // control plane's GC-pressure signal (store_backlog input).
  std::size_t gc_backlog = 0;

  [[nodiscard]] double dedup_ratio() const {
    return bytes_physical == 0
               ? 0.0
               : static_cast<double>(bytes_logical) /
                     static_cast<double>(bytes_physical);
  }
};

class CheckpointStore {
 public:
  CheckpointStore(const CostModel& costs, StoreConfig config)
      : costs_(&costs),
        config_(config),
        pages_(config.delta_compress),
        sealer_(config.crypto.tenant_key),
        attest_base_root_(crypto::AttestationChain::genesis_root(
            config.crypto.tenant_key)) {
    if (config_.crypto.seal) pages_.set_sealer(&sealer_);
  }

  // The sealer's address is wired into pages_; pinning the store in
  // place keeps that self-reference valid.
  CheckpointStore(const CheckpointStore&) = delete;
  CheckpointStore& operator=(const CheckpointStore&) = delete;

  // Seeds the chain with generation `epoch` from a full image (the
  // Checkpointer's initial synchronization). Returns the virtual cost.
  Nanos seed(std::uint64_t epoch, ForeignMapping& image,
             const VcpuState& vcpu, Nanos now);

  // Appends the generation committed at `epoch`: digests `dirty` (on
  // `pool` when configured and available), interns the changed pages from
  // `image` (the just-committed backup) and records the manifest.
  Nanos append(std::uint64_t epoch, std::span<const Pfn> dirty,
               ForeignMapping& image, const VcpuState& vcpu, Nanos now,
               ThreadPool* pool);

  // Append with precomputed digests (digests[i] is page_digest() of
  // image's dirty[i] page, both halves): the CoW drain folds the hash128
  // sweep into its copy loop, so this path skips the hash pass entirely --
  // its cost was already charged as cow_fused_hash_per_page on the drain
  // timeline. append() is hash_pages followed by this.
  Nanos append_with_digests(std::uint64_t epoch, std::span<const Pfn> dirty,
                            std::span<const Hash128> digests,
                            ForeignMapping& image, const VcpuState& vcpu,
                            Nanos now);

  // Incremental GC: drops aged-out generations (at most
  // gc_generations_per_epoch per call), merging each into its successor.
  // Returns the virtual cost; every call records into gc_pauses().
  Nanos collect();

  // Retention hooks.
  void note_audit_failure();  // pin the last clean generation, per policy
  void pin(std::uint64_t epoch);

  // Writes generation `epoch`'s full image into `dst`, touching every
  // tracked page (use on a scratch/unknown-content mapping).
  struct Restored {
    VcpuState vcpu;
    std::size_t pages_written = 0;
    Nanos cost{0};
  };
  Restored materialize(std::uint64_t epoch, ForeignMapping& dst) const;

  // Same result in O(changed) when `dst` currently holds the *newest*
  // generation's image -- the live backup: rewrites only differing pages.
  Restored rewind(std::uint64_t epoch, ForeignMapping& dst) const;

  // Time-travel commit: discards every generation newer than `epoch`
  // (their refs are released). The next append must use a larger epoch id.
  Nanos truncate_to(std::uint64_t epoch);

  [[nodiscard]] bool has_generation(std::uint64_t epoch) const {
    return chain_.index_of(epoch) != GenerationChain::npos;
  }
  [[nodiscard]] std::vector<std::uint64_t> retained_epochs() const;
  [[nodiscard]] StoreStats stats() const;
  [[nodiscard]] const GenerationChain& chain() const { return chain_; }
  [[nodiscard]] const telemetry::Histogram& gc_pauses() const {
    return gc_pauses_;
  }
  [[nodiscard]] const StoreConfig& config() const { return config_; }

  // Runtime GC-budget actuator (control plane): generations collect()
  // may retire per call. 0 restores the drain-everything behavior.
  void set_gc_budget(std::size_t generations) {
    config_.gc_generations_per_epoch = generations;
  }

  // --- Sealing & attestation (DESIGN.md section 15) ---------------------

  // Adversarial tamper sites fire inside append (store-at-rest
  // corruption after the commit lands); nullptr disarms them.
  void set_fault_injector(fault::FaultInjector* faults) { faults_ = faults; }

  // Attestation root after the newest committed generation (the value
  // carried in journal records and on the replication stream); the
  // genesis root before the seed, 0 when attestation is off.
  [[nodiscard]] std::uint64_t root() const {
    if (!config_.crypto.attest) return 0;
    return chain_.empty() ? attest_base_root_ : chain_.newest().attest_root;
  }

  // Seal/attest share of the last seed/append/append_with_digests cost
  // (already included in the returned total; exposed for the trace's
  // nested "seal" span).
  [[nodiscard]] Nanos last_seal_cost() const { return last_seal_cost_; }

  // Store-boundary integrity sweep: recompute every sealed payload's MAC.
  struct SealAudit {
    std::vector<std::uint64_t> bad_digests;  // sorted; empty = clean
    Nanos cost{0};
  };
  [[nodiscard]] SealAudit audit_seals() const;

  // Store-boundary chain audit: every retained generation's link must
  // recompute (root = H(key, prev_root, leaf)), and adjacent links must
  // join wherever epochs are still consecutive (GC gaps are exempt).
  struct ChainAudit {
    bool ok = true;
    std::size_t bad_index = 0;  // chain index of the first broken link
    std::string reason;
    Nanos cost{0};
  };
  [[nodiscard]] ChainAudit verify_chain() const;

  // Victim digest of the most recent injected store tamper (evidence
  // pinning for the tamper-sweep bench); kZeroDigest if none fired.
  [[nodiscard]] std::uint64_t last_tamper_victim() const {
    return last_tamper_victim_;
  }

  [[nodiscard]] const PageStore& page_store() const { return pages_; }

 private:
  Nanos hash_pages(std::span<const Pfn> dirty, const ForeignMapping& image,
                   std::vector<Hash128>& digests_out, ThreadPool* pool) const;

  // Freezes the commit-time leaf into `gen` -- `pages_digest` is the
  // caller's fold over the *full* dirty digest list, in commit order
  // (the same sequence the journal encodes and the standby applies) --
  // and extends the root. No-op with attestation off. Returns the cost.
  Nanos extend_attestation(Generation& gen, std::uint64_t pages_digest);

  // Throws crypto::TamperError if generation `index`'s link fails to
  // recompute (rollback/materialize verify what they restore).
  void verify_generation_link(std::size_t index) const;

  // Store-at-rest adversary: fires the injector's tamper sites after an
  // append. Returns the added (zero) cost -- tampering is free for the
  // adversary.
  void maybe_inject_tamper();

  const CostModel* costs_;
  StoreConfig config_;
  PageStore pages_;
  GenerationChain chain_;
  crypto::PageSealer sealer_;
  std::uint64_t attest_base_root_ = 0;
  fault::FaultInjector* faults_ = nullptr;
  Nanos last_seal_cost_{0};
  std::uint64_t last_tamper_victim_ = kZeroDigest;
  std::size_t image_pages_ = 0;  // set by seed(); sizes bytes_logical
  telemetry::Histogram gc_pauses_;
  std::uint64_t generations_dropped_ = 0;
  std::uint64_t entries_merged_ = 0;
};

}  // namespace crimes::store
