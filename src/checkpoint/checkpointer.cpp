#include "checkpoint/checkpointer.h"

#include "checkpoint/cow_checkpointer.h"
#include "common/hash.h"
#include "common/log.h"
#include "fault/fault_injector.h"
#include "replication/store_journal.h"
#include "store/checkpoint_store.h"
#include "store/page_store.h"
#include "telemetry/telemetry.h"

#include <chrono>
#include <cstring>
#include <stdexcept>

namespace crimes {

const char* CheckpointConfig::label() const {
  if (speculative_cow) return "CoW";
  if (opt_memcpy && opt_premap && opt_chunked_scan) {
    return wants_pool() ? "Parallel" : "Full";
  }
  if (opt_memcpy && opt_premap) return "Pre-map";
  if (opt_memcpy) return "Memcpy";
  return "No-opt";
}

std::size_t CheckpointConfig::pool_threads() const {
  return copy_threads > 1 ? copy_threads : ThreadPool::default_thread_count();
}

void Checkpointer::set_telemetry(telemetry::Telemetry* telemetry) {
  telemetry_ = telemetry;
  if (telemetry_ == nullptr) {
    metrics_ = {};
    return;
  }
  auto& m = telemetry_->metrics;
  metrics_.suspend = &m.histogram("phase.suspend");
  metrics_.dirty_scan = &m.histogram("phase.dirty_scan");
  metrics_.audit = &m.histogram("phase.audit");
  metrics_.map = &m.histogram("phase.map");
  metrics_.copy = &m.histogram("phase.copy");
  metrics_.resume = &m.histogram("phase.resume");
  metrics_.pause_total = &m.histogram("phase.pause_total");
  metrics_.dirty_pages = &m.histogram("checkpoint.dirty_pages");
  metrics_.epochs = &m.counter("checkpoint.epochs");
  metrics_.audit_failures = &m.counter("checkpoint.audit_failures");
  metrics_.copy_retries = &m.counter("checkpoint.copy_retries");
  metrics_.checkpoint_failures = &m.counter("checkpoint.failures");
  metrics_.transport_faults = &m.counter("fault.transport");
  metrics_.torn_writes = &m.counter("fault.torn_write");
  metrics_.bitmap_rereads = &m.counter("fault.bitmap_reread");
  metrics_.worker_respawns = &m.counter("fault.worker_respawn");
  metrics_.recovery = &m.histogram("checkpoint.recovery_ns");
  if (config_.speculative_cow) {
    metrics_.cow_protect = &m.histogram("phase.protect");
    metrics_.cow_drain = &m.histogram("cow.drain_ns");
    metrics_.cow_stall = &m.histogram("cow.stall_ns");
    metrics_.cow_first_touches = &m.counter("cow.first_touches");
    metrics_.cow_pending_pages = &m.gauge("cow.pending_pages");
  }
  if (config_.store.enabled) {
    metrics_.store_pages_unique = &m.gauge("store.pages_unique");
    metrics_.store_bytes_logical = &m.gauge("store.bytes_logical");
    metrics_.store_bytes_physical = &m.gauge("store.bytes_physical");
    metrics_.store_generations = &m.gauge("store.generations");
    if (config_.store.crypto.enabled()) {
      metrics_.crypto_pages_sealed = &m.gauge("crypto.pages_sealed");
      metrics_.crypto_seal_failures = &m.gauge("crypto.seal_failures");
    }
    update_store_gauges();
  }
}

void Checkpointer::set_fault_injector(fault::FaultInjector* faults) {
  faults_ = faults;
  transport_->set_fault_injector(faults);
  if (journal_ != nullptr) journal_->set_fault_injector(faults);
  if (store_ != nullptr) store_->set_fault_injector(faults);
}

Checkpointer::Checkpointer(Hypervisor& hypervisor, Vm& primary,
                           SimClock& clock, const CostModel& costs,
                           CheckpointConfig config)
    : hypervisor_(&hypervisor),
      primary_(&primary),
      primary_id_(primary.id()),
      clock_(&clock),
      costs_(&costs),
      config_(config) {
  if (config_.opt_premap && !config_.opt_memcpy) {
    // Pre-mapping the backup's frames only makes sense once the
    // checkpointer copies into them directly (the paper stacks the
    // optimizations in this order).
    throw std::invalid_argument(
        "CheckpointConfig: opt_premap requires opt_memcpy");
  }
  if (config_.remote_backup && (config_.opt_memcpy || config_.opt_premap)) {
    throw std::invalid_argument(
        "CheckpointConfig: remote_backup cannot map the backup locally "
        "(Optimizations 1 and 2 do not apply)");
  }
  if (config_.compress && config_.opt_memcpy) {
    throw std::invalid_argument(
        "CheckpointConfig: compression applies to the socket transport "
        "only");
  }
  if (config_.copy_threads > 1 && !config_.opt_memcpy) {
    // The socket transports serialize through a sequential stream cipher;
    // only disjoint-frame memcpys shard without ordering constraints.
    throw std::invalid_argument(
        "CheckpointConfig: copy_threads requires opt_memcpy");
  }
  if (config_.parallel_scan && !config_.opt_chunked_scan) {
    throw std::invalid_argument(
        "CheckpointConfig: parallel_scan requires opt_chunked_scan");
  }
  if (config_.simd_scan && !config_.opt_chunked_scan) {
    throw std::invalid_argument(
        "CheckpointConfig: simd_scan requires opt_chunked_scan");
  }
  if (config_.speculative_cow && !config_.opt_memcpy) {
    // The drain and the first-touch handler copy through local foreign
    // mappings; a socket transport has no page to reference in place.
    throw std::invalid_argument(
        "CheckpointConfig: speculative_cow requires opt_memcpy");
  }
  if (config_.wants_pool()) {
    pool_ = std::make_unique<ThreadPool>(config_.pool_threads());
  }
  if (config_.opt_memcpy) {
    auto transport = std::make_unique<MemcpyTransport>(costs, pool_.get(),
                                                       config_.copy_threads);
    memcpy_ = transport.get();
    transport_ = std::move(transport);
  } else if (config_.compress) {
    transport_ = std::make_unique<CompressedSocketTransport>(
        costs.copy_compress_per_page, costs.copy_wire_per_byte);
  } else {
    transport_ = std::make_unique<SocketTransport>(costs.copy_socket_per_page);
  }
}

Checkpointer::~Checkpointer() {
  if (backup_ != nullptr && hypervisor_->has_domain(backup_->id())) {
    hypervisor_->destroy_domain(backup_->id());
  }
}

void Checkpointer::initialize() {
  if (backup_ != nullptr) {
    throw std::logic_error("Checkpointer: already initialized");
  }
  backup_ = &hypervisor_->create_domain(primary_->name() + "-backup",
                                        primary_->page_count());
  backup_->pause();  // the backup never executes

  full_sync();
  startup_cost_ = costs_->copy_memcpy_per_page * primary_->page_count();

  if (config_.opt_premap) {
    // Build the global PFN->MFN array for both domains once (Optimization
    // 2). This inflates startup time but removes per-epoch map work.
    startup_cost_ += costs_->premap_startup_per_page *
                     (primary_->page_count() + backup_->page_count());
  }
  if (config_.store.enabled) {
    // Generation 0 is the initial full synchronization -- the oldest
    // rewind target until retention ages it out.
    store_ = std::make_unique<store::CheckpointStore>(*costs_, config_.store);
    store_->set_fault_injector(faults_);
    ForeignMapping image = hypervisor_->map_foreign(backup_->id());
    startup_cost_ +=
        store_->seed(checkpoints_taken_, image, backup_vcpu_, clock_->now());
    if (config_.store.journal) {
      // The journal mirrors the store operation for operation from the
      // seed on; recovery replays it against a fresh store. It shares the
      // store's crypto config so Seed/Append records carry the same
      // attestation roots the store computes.
      journal_ = std::make_unique<replication::StoreJournal>(
          *costs_, config_.store.crypto);
      journal_->set_fault_injector(faults_);
      startup_cost_ += journal_->log_seed(checkpoints_taken_, clock_->now(),
                                          image, backup_vcpu_,
                                          store_->root());
    }
  }
  clock_->advance(startup_cost_);

  if (config_.speculative_cow) {
    cow_ = std::make_unique<CowCheckpointer>(*hypervisor_, *primary_,
                                             *backup_, *costs_);
  }

  primary_->enable_log_dirty();
  CRIMES_LOG(Info, "checkpointer")
      << "initialized (" << config_.label() << ", interval "
      << to_ms(config_.epoch_interval) << " ms, backup domain "
      << backup_->id().value() << ")";
}

void Checkpointer::full_sync() {
  ForeignMapping src = hypervisor_->map_foreign(primary_->id());
  ForeignMapping dst = hypervisor_->map_foreign(backup_->id());
  for (std::size_t i = 0; i < primary_->page_count(); ++i) {
    const Pfn pfn{i};
    // Never-written primary pages are zero on both sides already; copying
    // them would only materialize backup frames for nothing.
    if (!src.is_backed(pfn)) continue;
    std::memcpy(dst.page(pfn).data.data(), src.peek(pfn).data.data(),
                kPageSize);
  }
  backup_vcpu_ = primary_->vcpu();
  // The backup domain carries the checkpointed vCPU too, so dom0 tools
  // (memory dumps, VMI) can translate through its CR3 directly.
  backup_->vcpu() = backup_vcpu_;
}

Nanos Checkpointer::map_cost(std::size_t dirty_pages) const {
  if (config_.opt_premap) return costs_->premap_per_epoch;
  // Without pre-mapping, every dirty page is mapped and unmapped each
  // epoch. The memcpy transport maps *both* the primary's and the backup's
  // frames (the socket transport's receive side maps the backup inside the
  // separate Restore process, which is not on this host's critical path).
  const std::size_t per_page_mappings = config_.opt_memcpy ? 2 : 1;
  return costs_->map_per_page * (dirty_pages * per_page_mappings);
}

EpochResult Checkpointer::run_checkpoint(const AuditFn& audit) {
  if (backup_ == nullptr) {
    throw std::logic_error("Checkpointer: initialize() not called");
  }
  // Defensive barrier: a caller that never collected the previous epoch's
  // speculative drain gets it completed here, without overlap credit, so
  // "the backup holds the last clean checkpoint" is true for everything
  // below (and for rollback/failover, which barrier the same way).
  if (cow_ != nullptr && cow_->pending()) complete_cow_drain();
  EpochResult result;
  const DirtyBitmap& bitmap = primary_->dirty_bitmap();
  const std::size_t dirty_count = bitmap.dirty_count();

  // Telemetry: phases are placed on the virtual timeline as their costs
  // become known (the SimClock only advances once the whole pause is
  // charged at the end); `cursor` walks the pause window phase by phase.
  // Wall time is measured around the phases that do real work.
  const bool traced = telemetry_ != nullptr;
  Nanos cursor = clock_->now();
  using WallClock = std::chrono::steady_clock;
  WallClock::time_point wall_begin;
  Nanos wall{0};
  const auto wall_start = [&] {
    if (traced) wall_begin = WallClock::now();
  };
  const auto wall_stop = [&] {
    wall = traced ? std::chrono::duration_cast<Nanos>(WallClock::now() -
                                                      wall_begin)
                  : Nanos{0};
  };
  const auto phase_span = [&](const char* name, Nanos cost, Nanos wall_dur) {
    if (traced) telemetry_->trace.add_span(name, cursor, cost, 0, wall_dur);
    cursor += cost;
  };

  // 1. Suspend the primary: quiesce vCPUs and in-flight DMA.
  primary_->suspend();
  result.costs.suspend = costs_->suspend_cost(dirty_count);
  // Resilience: a worker-loss fault kills one real pool thread; the pool
  // joins it and spawns a replacement before any parallel phase runs.
  if (faults_ != nullptr && pool_ != nullptr && faults_->loses_worker()) {
    pool_->replace_worker();
    result.costs.suspend += costs_->worker_respawn;
    result.recovery_cost += costs_->worker_respawn;
    if (metrics_.worker_respawns != nullptr) metrics_.worker_respawns->add();
    CRIMES_LOG(Warn, "checkpointer")
        << "pool worker lost; respawned (pool size " << pool_->size() << ")";
  }
  phase_span("suspend", result.costs.suspend, Nanos{0});

  // 2. Scan the dirty bitmap (Optimization 3 picks the algorithm; the
  // parallel engine shards it).
  wall_start();
  if (config_.opt_chunked_scan && config_.parallel_scan && pool_ != nullptr) {
    std::vector<std::size_t> shard_set_bits;
    result.dirty =
        bitmap.scan_parallel(*pool_, pool_->size(), &shard_set_bits);
    result.costs.bitscan =
        costs_->bitscan_parallel_cost(bitmap.word_count(), shard_set_bits);
  } else if (config_.opt_chunked_scan && config_.simd_scan) {
    result.dirty = bitmap.scan_simd();
    result.costs.bitscan =
        costs_->bitscan_simd_cost(bitmap.word_count(), result.dirty.size());
  } else if (config_.opt_chunked_scan) {
    result.dirty = bitmap.scan_chunked();
    result.costs.bitscan = costs_->bitscan_chunked_cost(bitmap.word_count(),
                                                        result.dirty.size());
  } else {
    result.dirty = bitmap.scan_naive();
    result.costs.bitscan = costs_->bitscan_naive_cost(bitmap.page_count());
  }
  result.costs.dirty_pages = result.dirty.size();
  // Resilience: an injected EIO on the log-dirty read forces a full
  // re-scan plus the re-issued hypercall. The data of the second read is
  // identical (the VM is suspended), so only the cost is charged.
  if (faults_ != nullptr && faults_->bitmap_read_fails()) {
    const Nanos reread = result.costs.bitscan + costs_->bitmap_reread;
    result.costs.bitscan += reread;
    result.recovery_cost += reread;
    if (metrics_.bitmap_rereads != nullptr) metrics_.bitmap_rereads->add();
  }
  wall_stop();
  phase_span("dirty_scan", result.costs.bitscan, wall);

  // 3. Security audit while the VM is quiesced. `cursor` is the audit
  // phase's virtual start; the Detector offsets its scan:<module> spans
  // from it.
  wall_start();
  if (audit) {
    const AuditResult verdict = audit(result.dirty, cursor);
    result.costs.vmi = verdict.cost;
    result.audit_passed = verdict.passed;
  } else {
    result.costs.vmi = costs_->vmi_noop_scan;
    result.audit_passed = true;
  }
  wall_stop();
  phase_span("audit", result.costs.vmi, wall);

  if (!result.audit_passed) {
    // Evidence found: freeze the VM, keep the backup clean, keep the dirty
    // bitmap so rollback knows what the failed epoch touched.
    primary_->pause();
    clock_->advance(result.costs.suspend + result.costs.bitscan +
                    result.costs.vmi);
    // The newest generation is the forensic baseline for the incident;
    // pin it (per policy) so GC cannot age it out mid-investigation.
    if (store_ != nullptr) store_->note_audit_failure();
    if (journal_ != nullptr) clock_->advance(journal_->log_audit_failure());
    if (traced) record_epoch_metrics(result);
    CRIMES_LOG(Warn, "checkpointer")
        << "audit FAILED at " << to_ms(clock_->now()) << " ms; VM paused";
    return result;
  }

  if (cow_ != nullptr) {
    // 4'. Speculative CoW (DESIGN.md section 12): write-protect the dirty
    // set and resume immediately. Map and copy move off-pause, onto the
    // drain; the pause is suspend + scan + audit + protect + resume.
    const bool want_digests = store_ != nullptr || config_.verify_backup;
    wall_start();
    result.costs.protect =
        cow_->protect(result.dirty, primary_->vcpu(), want_digests);
    wall_stop();
    phase_span("cow_protect", result.costs.protect, wall);
    // The protected set is the checkpoint; any page written during the
    // next epoch re-marks itself through the ordinary log-dirty path
    // (first-touch copies the pre-write bytes out before the write lands).
    primary_->dirty_bitmap().clear_all();
    result.cow_pending = true;

    primary_->resume();
    // The dirty pages are not flushed through the resume path -- they are
    // still live in the primary -- so only the base cost applies.
    result.costs.resume = costs_->resume_base;
    phase_span("resume", result.costs.resume, Nanos{0});

    clock_->advance(result.costs.pause_total());
    if (traced) record_epoch_metrics(result);
    if (metrics_.cow_pending_pages != nullptr) {
      metrics_.cow_pending_pages->set(
          static_cast<double>(cow_->pending_pages()));
    }
    return result;
  }

  // 4. Map the dirty frames (Optimization 2 makes this ~free).
  result.costs.map = map_cost(result.dirty.size());
  phase_span("map", result.costs.map, Nanos{0});

  // 5. Propagate dirty pages into the backup (Optimization 1 picks how;
  // the resilience layer wraps it in verify + bounded retries).
  wall_start();
  {
    ForeignMapping src = hypervisor_->map_foreign(primary_->id());
    ForeignMapping dst = hypervisor_->map_foreign(backup_->id());
    undo_.clear();
    const CopyOutcome copied = copy_with_retries(src, dst, result.dirty,
                                                 result.dirty, {}, undo_);
    result.costs.copy = copied.cost;
    result.recovery_cost += copied.recovery_cost;
    result.copy_retries = copied.retries;
    result.checkpoint_committed = copied.committed;
    if (result.checkpoint_committed && config_.remote_backup) {
      // Remus releases the epoch only after the remote host acknowledges
      // the complete checkpoint.
      result.costs.copy += costs_->remote_ack_rtt;
    }
  }
  wall_stop();
  phase_span("copy", result.costs.copy, wall);
  if (result.checkpoint_committed) {
    backup_vcpu_ = primary_->vcpu();
    backup_->vcpu() = backup_vcpu_;
    primary_->dirty_bitmap().clear_all();
    ++checkpoints_taken_;
  } else {
    // Copy failed for good this epoch: the backup was restored to the last
    // clean checkpoint and the dirty bitmap is retained, so the next
    // successful checkpoint carries this epoch's pages too. The primary
    // resumes -- whether speculation may continue is the SafetyGovernor's
    // call, one layer up.
    if (metrics_.checkpoint_failures != nullptr) {
      metrics_.checkpoint_failures->add();
    }
    CRIMES_LOG(Warn, "checkpointer")
        << "checkpoint FAILED after " << result.copy_retries
        << " retries; backup restored to last clean image ("
        << result.dirty.size() << " dirty pages carried over)";
  }

  // 6. Resume speculative execution.
  primary_->resume();
  result.costs.resume = costs_->resume_cost(result.dirty.size());
  phase_span("resume", result.costs.resume, Nanos{0});

  clock_->advance(result.costs.pause_total());
  if (traced) record_epoch_metrics(result);
  // Store work runs after resume: the primary is already speculating
  // again, so the append/GC cost lengthens the epoch, not the pause
  // (Remus drains checkpoints asynchronously for the same reason).
  if (store_ != nullptr && result.checkpoint_committed) {
    result.store_cost = store_commit(result.dirty, {});
  }
  return result;
}

Nanos Checkpointer::store_commit(std::span<const Pfn> dirty,
                                 std::span<const Hash128> digests) {
  telemetry::TraceRecorder* trace =
      telemetry_ != nullptr ? &telemetry_->trace : nullptr;
  ForeignMapping image = hypervisor_->map_foreign(backup_->id());
  // Digests the copy already fused stand in for the store's hash pass --
  // the append then prices encoding only.
  const Nanos append_cost =
      digests.empty()
          ? store_->append(checkpoints_taken_, dirty, image, backup_vcpu_,
                           clock_->now(), pool_.get())
          : store_->append_with_digests(checkpoints_taken_, dirty, digests,
                                        image, backup_vcpu_, clock_->now());
  if (trace != nullptr) {
    trace->add_span("store_append", clock_->now(), append_cost);
    // The seal/attest share of the append renders as a nested child at
    // the tail of the store_append span (sealing happens as pages intern).
    const Nanos seal_cost = store_->last_seal_cost();
    if (seal_cost.count() > 0) {
      trace->add_span("seal", clock_->now() + append_cost - seal_cost,
                      seal_cost);
    }
  }
  clock_->advance(append_cost);

  const Nanos gc_cost = store_->collect();
  if (trace != nullptr && gc_cost.count() > 0) {
    trace->add_span("gc", clock_->now(), gc_cost);
  }
  clock_->advance(gc_cost);

  Nanos journal_cost{0};
  if (journal_ != nullptr) {
    // Journal the append and the GC decision as separate statements: the
    // device order must match store-operation order (append, then collect)
    // so replay reproduces the retention machinery's choices exactly, and
    // `a + b` would leave the two log calls unsequenced. Both statements
    // belong to one commit, so they share a batch -- one device flush,
    // only the first record pays the append base cost.
    journal_->begin_batch();
    journal_cost = journal_->log_append(checkpoints_taken_, clock_->now(),
                                        dirty, image, backup_vcpu_,
                                        store_->root());
    journal_cost += journal_->log_collect();
    journal_->end_batch();
    if (trace != nullptr) {
      trace->add_span("journal", clock_->now(), journal_cost);
    }
    clock_->advance(journal_cost);
  }

  update_store_gauges();
  return append_cost + gc_cost + journal_cost;
}

bool Checkpointer::cow_drain_pending() const {
  return cow_ != nullptr && cow_->pending();
}

CowCommit Checkpointer::complete_cow_drain(Nanos resume_at) {
  if (!cow_drain_pending()) {
    throw std::logic_error(
        "Checkpointer::complete_cow_drain: no drain pending");
  }
  CowCommit commit;
  commit.first_touches = cow_->first_touches();
  commit.first_touch_cost = cow_->first_touch_cost();
  const std::span<const Pfn> untouched = cow_->untouched();
  commit.drained_pages = untouched.size();
  {
    // The drain pays what the pause used to -- mapping the dirty frames,
    // then the copy loop over the pages the guest never touched -- plus
    // the first-touch traps already taken.
    ForeignMapping src = hypervisor_->map_foreign(primary_->id());
    ForeignMapping dst = hypervisor_->map_foreign(backup_->id());
    const CopyOutcome copied = copy_with_retries(
        src, dst, untouched, cow_->dirty(), cow_->digests(), cow_->undo());
    commit.committed = copied.committed;
    commit.drain_cost = map_cost(cow_->dirty().size()) +
                        commit.first_touch_cost + copied.cost;
    commit.recovery_cost = copied.recovery_cost;
    commit.copy_retries = copied.retries;
  }
  cow_->settle(commit.committed);

  // Timeline: the drain ran on its own lane from the instant the VM
  // resumed; the commit barrier charges the clock only the portion that
  // outlived the overlap window. A negative resume_at is the no-overlap
  // fallback (defensive barriers): the whole drain lands at `now`.
  const Nanos now = clock_->now();
  const Nanos drain_start = resume_at.count() < 0 ? now : resume_at;
  const Nanos commit_at = drain_start + commit.drain_cost;
  commit.stall = commit_at > now ? commit_at - now : Nanos{0};

  if (telemetry_ != nullptr) {
    // tid 1 is the drain lane: sequential drains never overlap there
    // (epoch i's commit barrier precedes epoch i+1's resume). The epoch's
    // first-touch traps render as one aggregated child span.
    telemetry_->trace.add_span("cow_drain", drain_start, commit.drain_cost,
                               1);
    if (commit.first_touches > 0) {
      telemetry_->trace.add_span("cow_first_touch", drain_start,
                                 commit.first_touch_cost, 1, Nanos{0}, 1);
    }
  }
  clock_->advance(commit.stall);

  if (metrics_.cow_drain != nullptr) {
    metrics_.cow_drain->record(
        static_cast<std::uint64_t>(commit.drain_cost.count()));
    metrics_.cow_stall->record(
        static_cast<std::uint64_t>(commit.stall.count()));
    metrics_.cow_first_touches->add(commit.first_touches);
    metrics_.cow_pending_pages->set(0.0);
  }
  if (metrics_.recovery != nullptr && commit.recovery_cost.count() > 0) {
    metrics_.recovery->record(
        static_cast<std::uint64_t>(commit.recovery_cost.count()));
  }

  if (commit.committed) {
    backup_vcpu_ = cow_->vcpu_at_checkpoint();
    backup_->vcpu() = backup_vcpu_;
    ++checkpoints_taken_;
    if (store_ != nullptr) {
      commit.store_cost = store_commit(cow_->dirty(), cow_->digests());
    }
  } else {
    if (metrics_.checkpoint_failures != nullptr) {
      metrics_.checkpoint_failures->add();
    }
    CRIMES_LOG(Warn, "cow")
        << "drain FAILED after " << commit.copy_retries
        << " retries; backup restored, " << cow_->dirty().size()
        << " dirty pages re-marked";
  }
  return commit;
}

void Checkpointer::update_store_gauges() {
  if (store_ == nullptr || metrics_.store_generations == nullptr) return;
  const store::StoreStats stats = store_->stats();
  metrics_.store_pages_unique->set(static_cast<double>(stats.pages_unique));
  metrics_.store_bytes_logical->set(static_cast<double>(stats.bytes_logical));
  metrics_.store_bytes_physical->set(
      static_cast<double>(stats.bytes_physical));
  metrics_.store_generations->set(static_cast<double>(stats.generations));
  if (metrics_.crypto_pages_sealed != nullptr) {
    metrics_.crypto_pages_sealed->set(static_cast<double>(stats.pages_sealed));
    metrics_.crypto_seal_failures->set(
        static_cast<double>(stats.seal_failures));
  }
}

bool Checkpointer::backup_matches(ForeignMapping& primary,
                                  ForeignMapping& backup,
                                  std::span<const Pfn> image,
                                  std::span<const Hash128> digests) {
  for (std::size_t i = 0; i < image.size(); ++i) {
    const Hash128 want = digests.empty()
                             ? store::page_digest(primary.peek(image[i]))
                             : digests[i];
    if (store::page_digest(backup.peek(image[i])) != want) return false;
  }
  return true;
}

Checkpointer::CopyOutcome Checkpointer::copy_with_retries(
    ForeignMapping& src, ForeignMapping& dst, std::span<const Pfn> copy,
    std::span<const Pfn> image, std::span<Hash128> digests, UndoLog& undo) {
  // Undo first: the backup's current bytes -- the last clean checkpoint --
  // of every page the copy will overwrite, captured only when an attempt
  // can fail. This is what keeps the "backup is never left torn" invariant
  // when every retry fails (Remus applies checkpoints atomically for the
  // same reason).
  if (faults_ != nullptr || config_.verify_backup) {
    for (const Pfn pfn : copy) undo.capture(dst, pfn);
  }
  const bool fused = !digests.empty();
  fused_.resize(fused ? copy.size() : 0);

  CopyOutcome out;
  for (std::size_t attempt = 0;; ++attempt) {
    bool ok = true;
    try {
      out.cost += fused ? memcpy_->copy(src, dst, copy, fused_)
                        : transport_->copy(src, dst, copy);
    } catch (const fault::TransportFault& aborted) {
      out.cost += aborted.wasted();
      out.recovery_cost += aborted.wasted();
      if (metrics_.transport_faults != nullptr) {
        metrics_.transport_faults->add();
      }
      ok = false;
    }
    // The torn-write fault site: drawn once per completed attempt whenever
    // the checkpoint has pages -- so stop-copy and CoW twins draw alike --
    // and striking a page this attempt copied. A first-touched page never
    // qualifies: its primary source is gone, it can never be recopied.
    if (ok && faults_ != nullptr && !image.empty() &&
        faults_->tears_backup_write() && !copy.empty()) {
      const Pfn victim = copy[faults_->torn_victim(copy.size())];
      Page& page = dst.page(victim);
      const std::size_t offset = (victim.value() * 64) % (kPageSize - 64);
      for (std::size_t i = 0; i < 64; ++i) {
        page.data[offset + i] ^= std::byte{0x5A};
      }
    }
    if (ok && fused) {
      // File each copied page's digest under its slot in `image`.
      for (std::size_t i = 0, j = 0; i < image.size() && j < copy.size();
           ++i) {
        if (image[i] == copy[j]) digests[i] = fused_[j++];
      }
    }
    if (ok && config_.verify_backup) {
      // Checksum every page of the checkpoint (really computed): an
      // aborted stream is loud, but a torn write is only caught here. The
      // fused digests make the primary side free -- one sweep, not two.
      out.cost +=
          costs_->checksum_per_page * (image.size() * (fused ? 1 : 2));
      if (!backup_matches(src, dst, image, digests)) {
        if (metrics_.torn_writes != nullptr) metrics_.torn_writes->add();
        ok = false;
      }
    }
    if (ok) return out;

    if (attempt >= config_.max_copy_retries) break;
    const Nanos backoff = costs_->retry_backoff_base * (1LL << attempt);
    out.cost += backoff;
    out.recovery_cost += backoff;
    ++out.retries;
    if (metrics_.copy_retries != nullptr) metrics_.copy_retries->add();
  }

  // Retries exhausted: put the last clean checkpoint back.
  undo.restore(dst);
  const Nanos repair = costs_->copy_memcpy_per_page * undo.size();
  out.cost += repair;
  out.recovery_cost += repair;
  out.committed = false;
  return out;
}

void Checkpointer::record_epoch_metrics(const EpochResult& result) {
  metrics_.suspend->record(result.costs.suspend.count());
  metrics_.dirty_scan->record(result.costs.bitscan.count());
  metrics_.audit->record(result.costs.vmi.count());
  metrics_.dirty_pages->record(result.costs.dirty_pages);
  metrics_.epochs->add();
  if (!result.audit_passed) {
    metrics_.audit_failures->add();
    metrics_.pause_total->record(
        (result.costs.suspend + result.costs.bitscan + result.costs.vmi)
            .count());
    return;
  }
  metrics_.map->record(result.costs.map.count());
  metrics_.copy->record(result.costs.copy.count());
  if (metrics_.cow_protect != nullptr) {
    metrics_.cow_protect->record(result.costs.protect.count());
  }
  metrics_.resume->record(result.costs.resume.count());
  metrics_.pause_total->record(result.costs.pause_total().count());
  if (result.recovery_cost.count() > 0) {
    metrics_.recovery->record(result.recovery_cost.count());
  }
}

Nanos Checkpointer::rollback() {
  if (primary_->state() != VmState::Paused) {
    throw std::logic_error("Checkpointer::rollback: primary must be Paused");
  }
  // A pending speculative drain holds uncommitted pages in the backup;
  // settle it (commit or untorn restore) before reading the backup as
  // "the last clean checkpoint".
  if (cow_drain_pending()) complete_cow_drain();
  CRIMES_TRACE_SPAN(telemetry_ != nullptr ? &telemetry_->trace : nullptr,
                    "rollback");
  const std::vector<Pfn> dirty = primary_->dirty_bitmap().scan_chunked();
  ForeignMapping src = hypervisor_->map_foreign(backup_->id());
  ForeignMapping dst = hypervisor_->map_foreign(primary_->id());
  for (const Pfn pfn : dirty) {
    // peek: a page first touched during the failed epoch has no backup
    // frame; its checkpoint-time contents were all zeroes.
    std::memcpy(dst.page(pfn).data.data(), src.peek(pfn).data.data(),
                kPageSize);
  }
  primary_->vcpu() = backup_vcpu_;
  primary_->dirty_bitmap().clear_all();

  const Nanos cost = costs_->rollback_prepare_base +
                     costs_->rollback_per_dirty_page * dirty.size();
  clock_->advance(cost);
  CRIMES_LOG(Info, "checkpointer")
      << "rolled back " << dirty.size() << " pages to last clean checkpoint";
  return cost;
}

Nanos Checkpointer::rollback_to(std::uint64_t epoch) {
  if (primary_->state() != VmState::Paused) {
    throw std::logic_error(
        "Checkpointer::rollback_to: primary must be Paused");
  }
  if (store_ == nullptr) {
    throw std::logic_error(
        "Checkpointer::rollback_to: checkpoint store not enabled");
  }
  if (!store_->has_generation(epoch)) {
    throw std::invalid_argument(
        "Checkpointer::rollback_to: generation not retained");
  }
  // Same barrier as rollback(): the backup must hold a *committed*
  // generation before the rewind diffs against it.
  if (cow_drain_pending()) complete_cow_drain();
  CRIMES_TRACE_SPAN(telemetry_ != nullptr ? &telemetry_->trace : nullptr,
                    "rollback_to");

  // 1. Rewind the backup image from the store. The backup holds the
  // newest generation by invariant, so only the pages that differ between
  // it and the target are rewritten -- O(changed), never O(image).
  ForeignMapping backup_map = hypervisor_->map_foreign(backup_->id());
  const store::CheckpointStore::Restored restored =
      store_->rewind(epoch, backup_map);
  backup_vcpu_ = restored.vcpu;
  backup_->vcpu() = backup_vcpu_;

  // 2. Restore the primary from the rewound backup: the pages the failed
  // epoch dirtied, plus the pages the rewind itself changed.
  const std::vector<Pfn> dirty = primary_->dirty_bitmap().scan_chunked();
  ForeignMapping src = hypervisor_->map_foreign(backup_->id());
  ForeignMapping dst = hypervisor_->map_foreign(primary_->id());
  std::size_t copied = 0;
  const auto copy_back = [&](Pfn pfn) {
    if (!src.is_backed(pfn) && !dst.is_backed(pfn)) return;
    std::memcpy(dst.page(pfn).data.data(), src.peek(pfn).data.data(),
                kPageSize);
    ++copied;
  };
  for (const Pfn pfn : dirty) copy_back(pfn);
  for (const auto& entry :
       store_->chain().diff(store_->chain().size() - 1,
                            store_->chain().index_of(epoch))) {
    copy_back(entry.first);
  }
  primary_->vcpu() = backup_vcpu_;
  primary_->dirty_bitmap().clear_all();

  // 3. The timeline forward of the rewind point is being rewritten:
  // discard the newer generations so the chain's newest matches the
  // backup again (the invariant every append and rewind relies on).
  Nanos truncate_cost = store_->truncate_to(epoch);
  if (journal_ != nullptr) truncate_cost += journal_->log_truncate(epoch);
  update_store_gauges();

  const Nanos cost = costs_->rollback_prepare_base + restored.cost +
                     costs_->rollback_per_dirty_page * copied +
                     truncate_cost;
  clock_->advance(cost);
  CRIMES_LOG(Info, "checkpointer")
      << "rolled back to generation " << epoch << " ("
      << restored.pages_written << " backup pages rewound, " << copied
      << " primary pages restored)";
  return cost;
}

Vm& Checkpointer::backup() {
  if (backup_ == nullptr) {
    throw std::logic_error("Checkpointer: initialize() not called");
  }
  return *backup_;
}

Vm& Checkpointer::failover() {
  if (backup_ == nullptr) {
    throw std::logic_error("Checkpointer::failover: no backup image");
  }
  if (cow_drain_pending()) {
    if (hypervisor_->has_domain(primary_id_)) {
      // The primary's memory still exists, so the drain can finish: the
      // promoted image then carries the in-flight checkpoint too.
      complete_cow_drain();
    } else {
      // The drain's page sources died with the primary. Restore the
      // backup from the undo log so the promoted image is the last
      // *committed* checkpoint, never a half-drained one.
      cow_->abandon();
    }
  }
  if (hypervisor_->has_domain(primary_id_)) {
    hypervisor_->destroy_domain(primary_id_);
  }
  Vm& promoted = *backup_;
  promoted.unpause();  // the backup becomes the live VM
  CRIMES_LOG(Warn, "checkpointer")
      << "failover: promoted backup domain " << promoted.id().value()
      << " (speculative state since the last checkpoint is lost)";
  backup_ = nullptr;  // lifecycle ownership stays with the hypervisor
  return promoted;
}

}  // namespace crimes
