// The CRIMES Checkpointer: Remus-style continuous checkpointing with the
// paper's three optimizations, driving the per-epoch pipeline
//
//   suspend -> bitscan -> audit(vmi) -> map -> copy -> resume
//
// (Execution order note: the paper's Table 1 lists "vmi" before "bitscan";
// we run the bitmap scan first because guest-aided scans consume the dirty
// list -- section 3.2. Costs are attributed per phase either way.)
//
// The backup VM always holds the *last clean checkpoint*: on an audit
// failure nothing is propagated, the primary is left Paused, and the dirty
// bitmap is retained so rollback() can restore exactly the pages the failed
// epoch touched.
#pragma once

#include "checkpoint/transport.h"
#include "checkpoint/undo_log.h"
#include "common/cost_model.h"
#include "common/sim_clock.h"
#include "common/thread_pool.h"
#include "hypervisor/hypervisor.h"
#include "store/store_config.h"

namespace crimes::telemetry {
struct Telemetry;
class Counter;
class Gauge;
class Histogram;
}  // namespace crimes::telemetry

namespace crimes::fault {
class FaultInjector;
}  // namespace crimes::fault

namespace crimes::store {
class CheckpointStore;
}  // namespace crimes::store

namespace crimes::replication {
class StoreJournal;
}  // namespace crimes::replication

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

namespace crimes {

class CowCheckpointer;

struct CheckpointConfig {
  Nanos epoch_interval = millis(200);
  bool opt_memcpy = false;        // Optimization 1: memcpy, not write
  bool opt_premap = false;        // Optimization 2: global memory mapping
  bool opt_chunked_scan = false;  // Optimization 3: word-wise dirty scan
  // Extension (section 4.1): keep the backup on a *remote* host for high
  // availability as well as security. Forces the Remus socket transport
  // and adds a per-epoch commit acknowledgement round trip. Incompatible
  // with the local-mapping optimizations (1 and 2).
  bool remote_backup = false;
  // Extension: Remus-style page compression on the socket transport (XOR
  // delta vs. the backup's stale copy + RLE). Only meaningful for the
  // socket path -- memcpy never serializes, so there is nothing to
  // compress.
  bool compress = false;
  // Parallel checkpoint engine (post-paper): spread the suspended window
  // across cores on a fixed worker pool owned by the Checkpointer.
  //   copy_threads    shard the memcpy copy phase (0/1 = serial; requires
  //                   opt_memcpy -- the socket stream cipher is sequential)
  //   parallel_scan   shard the word-wise bitmap scan (requires
  //                   opt_chunked_scan; sharding a bit-by-bit scan would
  //                   parallelize the very work Optimization 3 deletes)
  //   parallel_audit  run independent detection scan modules concurrently
  // Virtual-time charges become max(per-shard cost) + fork/join overhead;
  // wall-clock drops with core count.
  std::size_t copy_threads = 0;
  bool parallel_scan = false;
  bool parallel_audit = false;
  // SIMD fast path for the word-wise scan (requires opt_chunked_scan):
  // four words tested per vector compare, clean blocks skipped after one
  // load. parallel_scan wins when both are set -- sharding subsumes the
  // vector win.
  bool simd_scan = false;
  // Speculative copy-on-write checkpointing (DESIGN.md section 12,
  // requires opt_memcpy): after the bitmap scan + audit, the dirty set is
  // write-protected via the mem-event machinery, the VM resumes
  // immediately, and the copy drains asynchronously -- a guest
  // first-touch of a still-pending page forces that page's copy before
  // the write proceeds. The epoch's commit barriers on drain completion:
  // run_checkpoint() returns with `cow_pending` set and the caller
  // finishes the epoch via complete_cow_drain(). The committed backup is
  // byte-identical to what the stop-copy path produces.
  bool speculative_cow = false;
  // Resilience layer (DESIGN.md section 9): after every copy, checksum the
  // dirty pages on both sides (hash128, really computed) and retry a
  // mismatched or aborted copy with exponential backoff. Off by default --
  // the checksum sweep costs pause time -- but forced on by Crimes
  // whenever a FaultPlan is active.
  bool verify_backup = false;
  // Retries after the first failed attempt before the epoch's checkpoint
  // is declared failed and the backup restored from the undo log.
  std::size_t max_copy_retries = 3;
  // Multi-generation checkpoint store (DESIGN.md section 10): every
  // committed epoch also appends a deduplicated generation manifest, and
  // rollback_to() can rewind to *any* retained generation, not just the
  // last. Off by default -- the per-epoch path is then one null check and
  // allocates nothing.
  store::StoreConfig store = {};

  [[nodiscard]] static CheckpointConfig no_opt(Nanos interval = millis(200)) {
    return {.epoch_interval = interval};
  }
  [[nodiscard]] static CheckpointConfig memcpy_only(
      Nanos interval = millis(200)) {
    return {.epoch_interval = interval, .opt_memcpy = true};
  }
  [[nodiscard]] static CheckpointConfig premap(Nanos interval = millis(200)) {
    return {.epoch_interval = interval, .opt_memcpy = true,
            .opt_premap = true};
  }
  [[nodiscard]] static CheckpointConfig full(Nanos interval = millis(200)) {
    return {.epoch_interval = interval, .opt_memcpy = true, .opt_premap = true,
            .opt_chunked_scan = true};
  }
  // Full optimizations plus every parallel path on a `threads`-wide pool.
  [[nodiscard]] static CheckpointConfig parallel(
      std::size_t threads, Nanos interval = millis(200)) {
    CheckpointConfig config = full(interval);
    config.copy_threads = threads;
    config.parallel_scan = true;
    config.parallel_audit = true;
    return config;
  }
  // Full optimizations plus the speculative CoW drain and the SIMD scan:
  // the pause shrinks to suspend + scan + audit + protect + resume.
  [[nodiscard]] static CheckpointConfig cow(Nanos interval = millis(200)) {
    CheckpointConfig config = full(interval);
    config.speculative_cow = true;
    config.simd_scan = true;
    return config;
  }

  [[nodiscard]] bool wants_pool() const {
    return copy_threads > 1 || parallel_scan || parallel_audit ||
           (store.enabled && store.parallel_hash);
  }
  // Worker count for the pool: an explicit copy_threads wins, otherwise
  // one worker per hardware thread.
  [[nodiscard]] std::size_t pool_threads() const;

  [[nodiscard]] const char* label() const;
};

// Per-phase virtual-time cost of one checkpoint (the paper's Table 1 row).
struct PhaseCosts {
  Nanos suspend{0};
  Nanos vmi{0};
  Nanos bitscan{0};
  Nanos map{0};
  Nanos copy{0};
  // Speculative CoW path only: write-protecting the dirty set before
  // resume (the map and copy phases then run off-pause, on the drain).
  Nanos protect{0};
  Nanos resume{0};
  // Epoch-boundary observability (flight-recorder events, time-series
  // sample, SLO evaluation). Charged by Crimes, not the checkpointer: the
  // work happens while the tenant is still waiting on the epoch boundary,
  // so it belongs in the pause the tenant experiences.
  Nanos observe{0};
  // Control-plane work at the epoch boundary (input recording, control
  // cycles, decision application). Charged by Crimes like observe; zero
  // whenever CrimesConfig::control is off.
  Nanos control{0};
  std::size_t dirty_pages = 0;

  [[nodiscard]] Nanos pause_total() const {
    return suspend + vmi + bitscan + map + copy + protect + resume + observe +
           control;
  }

  bool operator==(const PhaseCosts&) const = default;
};

struct AuditResult {
  bool passed = true;
  Nanos cost{0};
};

// The Detector is invoked through this hook while the VM is suspended.
// `audit_start` is the virtual time at which the audit phase begins
// (suspend and bitmap-scan costs are already known when the hook runs, but
// the SimClock only advances once the whole pause is charged) -- telemetry
// uses it to place scan spans on the epoch timeline.
using AuditFn =
    std::function<AuditResult(std::span<const Pfn> dirty, Nanos audit_start)>;

struct EpochResult {
  PhaseCosts costs;
  bool audit_passed = true;
  std::vector<Pfn> dirty;
  // Resilience layer: false when the copy/verify loop exhausted its
  // retries -- the backup was restored to the *previous* clean checkpoint
  // (never left torn), the dirty bitmap was retained so the next epoch's
  // checkpoint carries this epoch's pages, and the primary resumed
  // speculating. Meaningful only when audit_passed.
  bool checkpoint_committed = true;
  std::size_t copy_retries = 0;
  // Virtual time spent on failure handling this epoch (wasted copy
  // attempts, backoff, undo-log restore, bitmap rereads, worker respawns)
  // -- already included in `costs`, broken out for reporting.
  Nanos recovery_cost{0};
  // Checkpoint-store work (generation append + incremental GC). Charged
  // to the clock *after* resume -- it is not part of the pause -- and
  // therefore not included in `costs`.
  Nanos store_cost{0};
  // Speculative CoW path: true when the epoch's copy is still draining.
  // The commit is decided by complete_cow_drain(); checkpoint_committed
  // is meaningless until then.
  bool cow_pending = false;
};

// What complete_cow_drain() reports back: whether the speculative epoch
// committed, and where the drain's virtual time went. `drain_cost` runs
// from the moment the VM resumed; the caller overlaps it with the next
// epoch's execution and charges only `stall` (the portion that outlived
// the overlap window handed to complete_cow_drain).
struct CowCommit {
  bool committed = true;
  Nanos drain_cost{0};        // map + copy + first-touch + retries + verify
  Nanos stall{0};             // barrier wait charged to the clock
  Nanos store_cost{0};        // post-commit store append/GC/journal
  Nanos recovery_cost{0};     // wasted attempts, backoff, undo restore
  Nanos first_touch_cost{0};  // included in drain_cost, broken out
  std::size_t first_touches = 0;
  std::size_t drained_pages = 0;  // copied in the background (not touched)
  std::size_t copy_retries = 0;
};

class Checkpointer {
 public:
  Checkpointer(Hypervisor& hypervisor, Vm& primary, SimClock& clock,
               const CostModel& costs, CheckpointConfig config);
  ~Checkpointer();

  Checkpointer(const Checkpointer&) = delete;
  Checkpointer& operator=(const Checkpointer&) = delete;

  // Creates the backup domain, performs the initial full synchronization,
  // charges the premap startup cost if configured, and enables log-dirty
  // mode on the primary.
  void initialize();

  [[nodiscard]] bool initialized() const { return backup_ != nullptr; }
  [[nodiscard]] Nanos startup_cost() const { return startup_cost_; }
  [[nodiscard]] const CheckpointConfig& config() const { return config_; }

  // Runs the end-of-epoch pipeline. Advances the SimClock by the total
  // pause time. On audit failure the primary is left Paused and the backup
  // untouched. With speculative_cow the returned result has cow_pending
  // set: the copy is still draining and the caller must finish the epoch
  // via complete_cow_drain() before the next run_checkpoint (which
  // otherwise completes the drain itself, without overlap credit).
  EpochResult run_checkpoint(const AuditFn& audit);

  // True while a speculative CoW drain is in flight.
  [[nodiscard]] bool cow_drain_pending() const;
  // Completes the in-flight drain: background-copies the pages the guest
  // never touched (fusing the per-page 128-bit digest into the copy loop),
  // verifies/retries under fault injection, and either commits the epoch
  // (backup advanced, store appended with the fused digests, journal
  // batched) or restores the backup untorn and re-marks the dirty set.
  // `resume_at` is the virtual instant the VM resumed (the drain's start);
  // the clock is charged only the barrier stall beyond `resume_at +
  // drain_cost`. Pass a negative resume_at (the default) to charge the
  // full drain cost at the current instant -- the no-overlap fallback the
  // defensive barriers use.
  CowCommit complete_cow_drain(Nanos resume_at = Nanos{-1});

  // Restores every page dirtied since the last clean checkpoint (plus the
  // vCPU) from the backup. Requires the primary to be Paused; leaves it
  // Paused. Returns the rollback preparation cost (charged to the clock).
  Nanos rollback();

  // Time-travel rollback (requires the checkpoint store): rewinds the
  // backup to retained generation `epoch` -- byte-identical to the
  // primary's state when that epoch committed -- restores the primary
  // from it, and discards the store generations newer than `epoch` (the
  // timeline forward of the rewind point is being rewritten). Requires
  // the primary to be Paused; leaves it Paused. Returns the total cost
  // (charged to the clock).
  Nanos rollback_to(std::uint64_t epoch);

  // Remus failover semantics (section 4: "should the primary host go
  // unresponsive Remus will failover to the backup"): destroys the primary
  // and promotes the backup -- the last committed checkpoint -- to a
  // runnable VM. Speculative state since that checkpoint is lost by
  // design. The Checkpointer is defunct afterwards.
  Vm& failover();

  [[nodiscard]] Vm& primary() { return *primary_; }
  [[nodiscard]] Vm& backup();
  [[nodiscard]] const VcpuState& backup_vcpu() const { return backup_vcpu_; }
  [[nodiscard]] std::uint64_t checkpoints_taken() const {
    return checkpoints_taken_;
  }
  [[nodiscard]] const Transport& transport() const { return *transport_; }
  // The worker pool behind the parallel knobs; nullptr when every phase is
  // serial. The Detector borrows it for parallel audits.
  [[nodiscard]] ThreadPool* pool() { return pool_.get(); }
  // The multi-generation checkpoint store; nullptr unless
  // config().store.enabled.
  [[nodiscard]] store::CheckpointStore* store() { return store_.get(); }
  [[nodiscard]] const store::CheckpointStore* store() const {
    return store_.get();
  }
  // The durable store journal; nullptr unless config().store.journal.
  [[nodiscard]] replication::StoreJournal* journal() { return journal_.get(); }
  [[nodiscard]] const replication::StoreJournal* journal() const {
    return journal_.get();
  }

  // Attaches (or detaches, with nullptr) the telemetry layer: per-phase
  // spans on the trace and phase.* histograms in the registry. Metric
  // pointers are resolved once here so the per-epoch path stays lock-free.
  void set_telemetry(telemetry::Telemetry* telemetry);

  // Attaches (nullptr detaches) the fault injector, forwarding it to the
  // transport. With an injector present every copy runs under the
  // undo-log/retry discipline.
  void set_fault_injector(fault::FaultInjector* faults);

 private:
  void full_sync();
  [[nodiscard]] Nanos map_cost(std::size_t dirty_pages) const;

  // What one run of the copy loop did.
  struct CopyOutcome {
    Nanos cost{0};           // attempts, verify sweeps, backoff, restore
    Nanos recovery_cost{0};  // the failure-handling share of `cost`
    std::size_t retries = 0;
    bool committed = true;
  };
  // The one copy/verify/retry loop behind every write into the backup:
  // stop-copy's step 5 and the CoW drain. `image` is the checkpoint's whole
  // dirty set; each attempt copies `copy`, an in-order subsequence of it
  // (all of it for stop-copy, the untouched pages for the drain). Whenever
  // an attempt can fail (fault injection or verify_backup), every page of
  // `copy` is captured into `undo` before the first attempt overwrites it.
  // With `digests` (parallel to `image`) the copy fuses the digests of the
  // pages it copies into their slots, and verification checks the backup
  // against them in one sweep; without, it hashes both sides. Retries
  // exhausted, `undo` is restored: the backup is never left torn.
  CopyOutcome copy_with_retries(ForeignMapping& src, ForeignMapping& dst,
                                std::span<const Pfn> copy,
                                std::span<const Pfn> image,
                                std::span<Hash128> digests, UndoLog& undo);
  // The verification sweep over `image`: the backup against `digests`
  // when the copy fused them, otherwise against the primary.
  [[nodiscard]] static bool backup_matches(ForeignMapping& primary,
                                           ForeignMapping& backup,
                                           std::span<const Pfn> image,
                                           std::span<const Hash128> digests);
  void record_epoch_metrics(const EpochResult& result);
  // Post-commit store hook: appends the generation -- with the copy's
  // fused `digests` when it has them (no hash pass), hashing `dirty`
  // otherwise -- runs incremental GC, batches the journal statements and
  // refreshes the store.* gauges. Advances the clock (after resume) and
  // returns the cost.
  Nanos store_commit(std::span<const Pfn> dirty,
                     std::span<const Hash128> digests);
  void update_store_gauges();

  Hypervisor* hypervisor_;
  Vm* primary_;
  // Cached at construction: failover() must be able to ask "does the
  // primary domain still exist?" after an external destroy_domain has
  // already freed the Vm behind `primary_`.
  DomainId primary_id_{0};
  SimClock* clock_;
  const CostModel* costs_;
  CheckpointConfig config_;
  std::unique_ptr<ThreadPool> pool_;  // must outlive transport_

  Vm* backup_ = nullptr;
  VcpuState backup_vcpu_;
  std::unique_ptr<Transport> transport_;
  // transport_ when it is the memcpy one: the CoW drain fuses its digests
  // into the copy through it.
  MemcpyTransport* memcpy_ = nullptr;
  UndoLog undo_;                // stop-copy's; the CoW drain keeps its own
  std::vector<Hash128> fused_;  // digests of the pages one attempt copied
  Nanos startup_cost_{0};
  std::uint64_t checkpoints_taken_ = 0;
  std::unique_ptr<store::CheckpointStore> store_;
  std::unique_ptr<replication::StoreJournal> journal_;
  std::unique_ptr<CowCheckpointer> cow_;  // speculative_cow only
  fault::FaultInjector* faults_ = nullptr;

  telemetry::Telemetry* telemetry_ = nullptr;
  struct PhaseMetrics {
    telemetry::Histogram* suspend = nullptr;
    telemetry::Histogram* dirty_scan = nullptr;
    telemetry::Histogram* audit = nullptr;
    telemetry::Histogram* map = nullptr;
    telemetry::Histogram* copy = nullptr;
    telemetry::Histogram* resume = nullptr;
    telemetry::Histogram* pause_total = nullptr;
    telemetry::Histogram* dirty_pages = nullptr;
    telemetry::Counter* epochs = nullptr;
    telemetry::Counter* audit_failures = nullptr;
    telemetry::Counter* copy_retries = nullptr;
    telemetry::Counter* checkpoint_failures = nullptr;
    telemetry::Counter* transport_faults = nullptr;
    telemetry::Counter* torn_writes = nullptr;
    telemetry::Counter* bitmap_rereads = nullptr;
    telemetry::Counter* worker_respawns = nullptr;
    telemetry::Histogram* recovery = nullptr;
    // Speculative CoW path; resolved only when speculative_cow is set.
    telemetry::Histogram* cow_protect = nullptr;
    telemetry::Histogram* cow_drain = nullptr;
    telemetry::Histogram* cow_stall = nullptr;
    telemetry::Counter* cow_first_touches = nullptr;
    telemetry::Gauge* cow_pending_pages = nullptr;
    // Checkpoint-store gauges; resolved only when the store is enabled.
    telemetry::Gauge* store_pages_unique = nullptr;
    telemetry::Gauge* store_bytes_logical = nullptr;
    telemetry::Gauge* store_bytes_physical = nullptr;
    telemetry::Gauge* store_generations = nullptr;
    // Sealing gauges; resolved only when the store's crypto layer is armed.
    telemetry::Gauge* crypto_pages_sealed = nullptr;
    telemetry::Gauge* crypto_seal_failures = nullptr;
  } metrics_{};
};

}  // namespace crimes
