#include "core/crimes.h"

#include "common/bytes.h"
#include "common/log.h"
#include "forensics/plugins.h"
#include "replication/store_journal.h"
#include "store/checkpoint_store.h"
#include "telemetry/export.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

namespace crimes {

const char* to_string(SafetyMode mode) {
  switch (mode) {
    case SafetyMode::Synchronous: return "Synchronous";
    case SafetyMode::BestEffort: return "BestEffort";
    case SafetyMode::Disabled: return "Disabled";
  }
  return "?";
}

PhaseCosts RunSummary::avg_costs() const {
  if (checkpoints == 0) return {};
  const auto n = static_cast<std::int64_t>(checkpoints);
  return PhaseCosts{
      .suspend = total_costs.suspend / n,
      .vmi = total_costs.vmi / n,
      .bitscan = total_costs.bitscan / n,
      .map = total_costs.map / n,
      .copy = total_costs.copy / n,
      .protect = total_costs.protect / n,
      .resume = total_costs.resume / n,
      .observe = total_costs.observe / n,
      .control = total_costs.control / n,
      .dirty_pages = total_costs.dirty_pages / checkpoints,
  };
}

Crimes::Crimes(Hypervisor& hypervisor, GuestKernel& kernel,
               CrimesConfig config, const CostModel& costs)
    : hypervisor_(&hypervisor),
      kernel_(&kernel),
      config_(config),
      costs_(&costs),
      network_(costs.net_wire_latency),
      disk_(config.disk_blocks) {
  totals_.scheme = config_.mode == SafetyMode::Disabled
                       ? "Disabled"
                       : config_.checkpoint.label();
  // The control plane reads windowed percentiles from the time-series
  // engine, so enabling it implies the telemetry bundle.
  if (config_.control.enabled && config_.mode != SafetyMode::Disabled) {
    config_.telemetry = true;
  }
  if (config_.telemetry) {
    telemetry_ = std::make_unique<telemetry::Telemetry>(clock_);
  }
}

void Crimes::add_module(std::unique_ptr<ScanModule> module) {
  detector_.add_module(std::move(module));
}

VmiSession& Crimes::vmi() {
  if (!vmi_) throw std::logic_error("Crimes: initialize() not called");
  return *vmi_;
}

Checkpointer& Crimes::checkpointer() {
  if (!checkpointer_) {
    throw std::logic_error("Crimes: no checkpointer (Disabled mode?)");
  }
  return *checkpointer_;
}

void Crimes::apply_output_mode(SafetyMode mode) {
  // Output plumbing per SafetyMode: Synchronous holds everything in the
  // buffer until the audit passes; other modes ship immediately.
  if (mode == SafetyMode::Synchronous) {
    nic_.set_sink([this](Packet&& p) { buffer_.hold(std::move(p)); });
    disk_.set_buffering(true);
  } else {
    nic_.set_sink([this](Packet&& p) {
      const Nanos at = p.sent_at;
      network_.deliver(std::move(p), at);
    });
    disk_.set_buffering(false);
  }
  active_mode_ = mode;
}

void Crimes::initialize() {
  if (initialized_) throw std::logic_error("Crimes: already initialized");

  apply_output_mode(config_.mode);

  // Resilience layer: a non-empty fault plan means copies can abort or
  // tear, so the backup must be verified -- force the checksum sweep on
  // before the Checkpointer snapshots its config.
  if (config_.faults.any()) {
    injector_ = std::make_unique<fault::FaultInjector>(config_.faults);
    config_.checkpoint.verify_backup = true;
  }

  vmi_ = std::make_unique<VmiSession>(*hypervisor_, kernel_->vm().id(),
                                      kernel_->symbols(), kernel_->flavor(),
                                      *costs_);
  vmi_->init();
  vmi_->preprocess();
  clock_.advance(vmi_->take_cost());

  if (config_.mode != SafetyMode::Disabled) {
    checkpointer_ = std::make_unique<Checkpointer>(
        *hypervisor_, kernel_->vm(), clock_, *costs_, config_.checkpoint);
    checkpointer_->initialize();
    if (injector_) checkpointer_->set_fault_injector(injector_.get());
    if (config_.governor.enabled) {
      // Only Synchronous mode has a cheaper mode to fall back to; the
      // governor still tracks failure streaks (and can freeze) elsewhere.
      governor_.emplace(config_.governor,
                        /*can_degrade=*/config_.mode ==
                            SafetyMode::Synchronous);
    }
    replay_ = std::make_unique<ReplayEngine>(*kernel_, *checkpointer_,
                                             clock_, *costs_);
    if (config_.record_execution) {
      recorder_.enable();
      kernel_->set_write_observer(
          [this](Vaddr va, std::span<const std::byte> data,
                 std::uint64_t instr) { recorder_.record(va, data, instr); });
    }
  }
  if (config_.replication.enabled && checkpointer_) {
    // The standby is a second simulated machine, seeded from the backup
    // image (the last committed checkpoint -- the only replicated state).
    standby_ = std::make_unique<replication::StandbyHost>(
        *costs_, config_.replication, kernel_->vm().name(),
        kernel_->vm().page_count());
    clock_.advance(standby_->initialize(
        checkpointer_->backup(), checkpointer_->backup_vcpu(),
        checkpointer_->checkpoints_taken(), clock_.now()));
    replicator_ = std::make_unique<replication::Replicator>(
        *costs_, config_.replication, checkpointer_->backup(),
        standby_->vm(), checkpointer_->checkpoints_taken());
    // Attested replication (DESIGN.md section 15): the standby pins the
    // primary store's post-seed root as its trust anchor and verifies
    // every generation it applies against the chain from there.
    if (config_.checkpoint.store.enabled &&
        config_.checkpoint.store.crypto.attest &&
        checkpointer_->store() != nullptr) {
      replicator_->set_attestation(config_.checkpoint.store.crypto.tenant_key,
                                   checkpointer_->store()->root());
    }
    if (injector_) replicator_->set_fault_injector(injector_.get());
    // First heartbeat and the initial fencing lease arrive with the seed.
    standby_->detector().record_heartbeat(clock_.now());
    lease_ = standby_->authority().grant(clock_.now());
    clock_.advance(costs_->lease_renew_rtt);
  }
  detector_.set_audit_policy(config_.audit_policy);
  if (injector_) detector_.set_fault_injector(injector_.get());
  if (telemetry_) {
    if (checkpointer_) checkpointer_->set_telemetry(telemetry_.get());
    detector_.set_telemetry(telemetry_.get());
    buffer_.set_telemetry(telemetry_.get());
    if (replicator_) replicator_->set_telemetry(telemetry_.get());
    telemetry_->enable_series(config_.timeseries);
  }
  // Observability layer: both preallocate here so the per-epoch path
  // stays allocation-free. The SLO monitor needs a pipeline to judge, so
  // Disabled mode runs without one.
  if (config_.flight_recorder) {
    flight_ = std::make_unique<telemetry::FlightRecorder>(
        config_.flight_capacity);
  }
  if (config_.slo.enabled && config_.mode != SafetyMode::Disabled) {
    slo_ = std::make_unique<telemetry::SloMonitor>(config_.slo);
  }
  // Control plane: built last so it can see which actuators exist.
  // Policies for absent actuators (no replicator, no store, no scan
  // modules) are disabled outright.
  if (config_.control.enabled && config_.mode != SafetyMode::Disabled) {
    control::ControlConfig cc = config_.control;
    if (!replicator_) cc.manage_window = false;
    if (detector_.module_count() == 0) cc.manage_scan = false;
    store::CheckpointStore* store =
        checkpointer_ ? checkpointer_->store() : nullptr;
    control_ = std::make_unique<control::ControlPlane>(
        cc, *costs_, config_.slo.budget, config_.checkpoint.epoch_interval,
        replicator_ ? config_.replication.window : 0,
        store != nullptr ? store->config().gc_generations_per_epoch : 0);
    control_->set_telemetry(telemetry_.get());
    full_sweep_every_ = control_->full_sweep_every();
  }
  initialized_ = true;
  CRIMES_LOG(Info, "crimes") << "initialized: mode="
                             << to_string(config_.mode) << ", scheme="
                             << config_.checkpoint.label() << ", modules="
                             << detector_.module_count();
}

AuditResult Crimes::run_audit(std::span<const Pfn> dirty, Nanos audit_start) {
  if (detector_.module_count() == 0) {
    // No tenant modules registered: the minimal no-op introspection the
    // paper's overhead experiments run.
    last_findings_.clear();
    return AuditResult{.passed = true, .cost = costs_->vmi_noop_scan};
  }
  const ScanPlan plan = ScanPlan::classify(kernel_->layout(), dirty);
  // Control-plane scan schedule: every full_sweep_every_-th epoch runs
  // without a plan, so every module falls back to its conservative
  // full-coverage scan (the ScanPlanner's documented nullptr semantics).
  const bool full_sweep =
      full_sweep_every_ != 0 && epoch_index_ % full_sweep_every_ == 0;
  if (full_sweep) last_audit_full_sweep_ = true;
  ScanContext ctx{
      .vmi = *vmi_,
      .dirty = dirty,
      .costs = *costs_,
      .pending_packets = active_mode_ == SafetyMode::Synchronous
                             ? &buffer_.pending()
                             : nullptr,
      .plan = full_sweep ? nullptr : &plan,
      .now = clock_.now(),
      .trace_start = audit_start,
  };
  ThreadPool* pool = checkpointer_ ? checkpointer_->pool() : nullptr;
  ScanResult result = config_.checkpoint.parallel_audit && pool != nullptr
                          ? detector_.audit_parallel(ctx, *pool)
                          : detector_.audit(ctx);
  const bool passed = result.clean();
  last_findings_ = std::move(result.findings);
  return AuditResult{.passed = passed, .cost = result.cost};
}

const RunSummary& Crimes::run(Nanos max_work_time) {
  if (!initialized_) throw std::logic_error("Crimes: initialize() first");
  if (workload_ == nullptr) throw std::logic_error("Crimes: no workload set");

  telemetry::TraceRecorder* trace =
      telemetry_ ? &telemetry_->trace : nullptr;
  const Nanos work_limit = totals_.work_time + max_work_time;
  // The journal fsck keys on failure signatures seen in this call.
  const std::size_t failures_before = totals_.checkpoint_failures;
  const bool failed_over_before = totals_.failed_over;
  const bool killed_before = totals_.primary_killed;

  while (!workload_->finished() && totals_.work_time < work_limit) {
    // A frozen pipeline never runs another epoch: the checkpoint path is
    // lost and the VM was paused by the governor.
    if (governor_ && governor_->state() == fault::GovernorState::Frozen) {
      break;
    }
    if (primary_killed_) break;  // the host died in an earlier slice
    // Fault decisions are drawn before the epoch opens: a primary kill is
    // a *host* failure, and the failover span it triggers must sit between
    // epochs on the trace, never inside one.
    if (injector_) injector_->begin_epoch(epoch_index_);
    if (replicator_ &&
        (host_kill_pending_ || (injector_ && injector_->kills_primary()))) {
      const bool correlated = host_kill_pending_;
      host_kill_pending_ = false;
      primary_killed_ = true;
      totals_.primary_killed = true;
      if (flight_) {
        flight_->record(clock_.now(), epoch_index_,
                        telemetry::FlightEventKind::Fault, "kills_primary",
                        correlated ? "correlated-failover" : "");
      }
      kernel_->vm().pause();  // the whole host powers off
      if (!failed_over_) promote_standby(clock_.now(), /*primary_dead=*/true);
      break;
    }
    if (replicator_ && !failed_over_ && !promotion_refused_ &&
        standby_->detector().suspects(clock_.now()) &&
        clock_.now() >= standby_->authority().promotion_safe_at()) {
      // The standby has not heard a heartbeat for long enough to promote,
      // yet this primary is still running: the split-brain scenario.
      // Fencing -- not coordination -- keeps it safe.
      promote_standby(standby_->detector().last_arrival(),
                      /*primary_dead=*/false);
    }
    CRIMES_TRACE_SPAN(trace, "epoch");
    const Nanos interval = current_interval();
    const Nanos epoch_start = clock_.now();
    ++epoch_index_;
    recorder_.begin_epoch();
    if (replicator_ && !standby_->promoted()) {
      // Epoch heartbeat. A partitioned link (sticky) or an injected drop
      // means the standby's detector simply sees a longer gap.
      if (injector_ && injector_->partitions_link() &&
          !replicator_->partitioned()) {
        replicator_->partition(clock_.now());
        if (flight_) {
          flight_->record(clock_.now(), epoch_index_,
                          telemetry::FlightEventKind::Fault,
                          "partitions_link");
        }
      }
      if (!replicator_->partitioned() &&
          !(injector_ && injector_->drops_heartbeat())) {
        standby_->detector().record_heartbeat(epoch_start);
        clock_.advance(costs_->heartbeat_eval);
      } else if (flight_ && !replicator_->partitioned()) {
        flight_->record(clock_.now(), epoch_index_,
                        telemetry::FlightEventKind::Fault, "drops_heartbeat");
      }
    }
    workload_->run_epoch(epoch_start, interval);
    clock_.advance(interval);
    totals_.work_time += interval;
    ++totals_.epochs;

    if (config_.mode == SafetyMode::Disabled) continue;

    // Commit barrier for the previous epoch's speculative CoW drain: it
    // overlapped with the epoch that just executed, so by now it is
    // usually done and the barrier stalls only on the remainder.
    if (cow_stash_.active && !finish_cow_commit()) break;

    // Shed ladder rung 3 (host_pause_protection): the epoch executed, but
    // the checkpoint/audit pipeline is skipped entirely. Synchronous
    // outputs stay held in the buffer -- audited-never-released is safe,
    // just late -- and the dirty bitmap keeps accumulating, so the first
    // checkpoint after protection resumes covers the whole gap.
    if (host_protection_paused_) {
      ++totals_.host_paused_epochs;
      continue;
    }

    const EpochResult epoch =
        checkpointer_->run_checkpoint([this](std::span<const Pfn> dirty,
                                             Nanos audit_start) {
          return run_audit(dirty, audit_start);
        });

    PhaseCosts& costs = totals_.total_costs;
    costs.suspend += epoch.costs.suspend;
    costs.vmi += epoch.costs.vmi;
    costs.bitscan += epoch.costs.bitscan;
    costs.map += epoch.costs.map;
    costs.copy += epoch.costs.copy;
    costs.protect += epoch.costs.protect;
    costs.resume += epoch.costs.resume;
    costs.dirty_pages += epoch.costs.dirty_pages;
    totals_.total_dirty_pages += epoch.costs.dirty_pages;
    totals_.copy_retries += epoch.copy_retries;
    totals_.recovery_time += epoch.recovery_cost;
    totals_.store_time += epoch.store_cost;

    // Epoch-boundary observability: flight-recorder events, time-series
    // sample, SLO evaluation. The (small) virtual cost lands inside the
    // pause accounting -- it is work done while the tenant waits -- which
    // is exactly what ablation_telemetry_overhead budgets at <1%.
    const Nanos observe_cost = observe_epoch(epoch, interval);
    costs.observe += observe_cost;
    // Control plane: runs after the telemetry sample so its windowed
    // inputs include this epoch, and its cost joins the pause for the
    // same reason observe's does.
    const Nanos control_cost = control_epoch(epoch, interval);
    costs.control += control_cost;
    if (last_audit_full_sweep_) {
      ++totals_.control_full_sweeps;
      last_audit_full_sweep_ = false;
    }
    const Nanos pause =
        epoch.costs.pause_total() + observe_cost + control_cost;
    totals_.total_pause += pause;
    totals_.max_pause = std::max(totals_.max_pause, pause);
    pause_hist_.record(static_cast<std::uint64_t>(pause.count()));

    if (!epoch.audit_passed) {
      // Zero-window guarantee: nothing from the poisoned epoch escapes.
      buffer_.drop_all();
      disk_.drop_pending();
      totals_.attack_detected = true;
      respond(epoch_start);
      break;
    }
    // The audited disk overlay commits with the checkpoint -- before
    // commit_epoch(), whose async deep scan may restore disk_checkpoint_.
    // A CoW epoch commits it now, at protect time: the overlay cannot
    // split its pending writes at the barrier the way the stash splits the
    // packets, so a later drain failure keeps the packets held but accepts
    // this epoch's disk writes -- the documented tradeoff.
    if (epoch.cow_pending || epoch.checkpoint_committed) {
      disk_.commit_pending();
      disk_checkpoint_ = disk_.snapshot_committed();
    }
    if (epoch.cow_pending) {
      // Resume-first checkpoint: the copy is still draining and commits at
      // the next barrier. Stash the epoch's outputs *now* -- the buffer
      // holds exactly this (audited) epoch's packets; by barrier time the
      // next epoch's would have mixed in.
      cow_stash_.active = true;
      cow_stash_.epoch = epoch;
      cow_stash_.held = buffer_.take_all();
      cow_stash_.resume_at = clock_.now();
      cow_stash_.epoch_start = epoch_start;
      continue;
    }
    if (!commit_epoch(epoch, epoch_start)) break;
  }
  if (cow_stash_.active && !primary_killed_) {
    // The run ended with a drain still in flight (workload finished or the
    // work-time budget ran out): settle it so the caller never observes a
    // half-committed backup. The synthetic epoch span keeps the barrier's
    // commit/release spans under an epoch, like every other one.
    CRIMES_TRACE_SPAN(trace, "epoch");
    (void)finish_cow_commit();
  }
  // Counters owned by a component are read from it, not re-counted here.
  totals_.pause_histogram = pause_hist_.snapshot();
  if (injector_) totals_.faults_injected = injector_->total_injected();
  if (replicator_) totals_.roots_verified = replicator_->roots_verified();
  totals_.quarantined_modules = detector_.quarantined_modules();
  verify_store_seals();
  verify_journal(totals_.checkpoint_failures != failures_before ||
                 governor_state() == fault::GovernorState::Frozen ||
                 totals_.failed_over != failed_over_before ||
                 totals_.primary_killed != killed_before);
  return totals_;
}

bool Crimes::apply_governor_action(fault::SafetyGovernor::Action action) {
  using Action = fault::SafetyGovernor::Action;
  switch (action) {
    case Action::None:
      return false;
    case Action::Downgrade:
      // Sustained checkpoint failure: stop holding the tenant's outputs
      // behind a checkpoint path that keeps failing. Everything currently
      // held passed its audit -- releasing it is exactly Best Effort
      // semantics (audited, not checkpoint-covered).
      ++totals_.governor_downgrades;
      buffer_.release_all(network_, clock_.now());
      if (replicator_ != nullptr) {
        // Ack-gated outputs stop waiting too -- Best Effort semantics --
        // but fencing still rules: an invalid lease discards, never ships.
        if (lease_.valid(clock_.now())) {
          for (auto& entry : pending_release_) {
            buffer_.release(entry.packets, network_, clock_.now());
          }
          pending_release_.clear();
        } else {
          discard_pending_outputs();
        }
      }
      disk_.commit_pending();
      apply_output_mode(SafetyMode::BestEffort);
      if (telemetry_) {
        telemetry_->metrics.counter("governor.downgrades").add();
        telemetry_->metrics.gauge("governor.degraded").set(1.0);
      }
      if (flight_) {
        flight_->record(clock_.now(), epoch_index_,
                        telemetry::FlightEventKind::Governor, "downgrade",
                        "Synchronous -> BestEffort");
      }
      CRIMES_LOG(Warn, "governor")
          << "sustained checkpoint failure ("
          << governor_->consecutive_failures()
          << " epochs): downgrading Synchronous -> Best Effort at "
          << to_ms(clock_.now()) << " ms";
      return false;
    case Action::Upgrade:
      ++totals_.governor_upgrades;
      // A host-shed tenant stays in Best Effort even when its own
      // checkpoint path heals: the host arbiter's restore lifts the shed.
      apply_output_mode(host_downgraded_ ? SafetyMode::BestEffort
                                         : SafetyMode::Synchronous);
      if (telemetry_) {
        telemetry_->metrics.counter("governor.upgrades").add();
        telemetry_->metrics.gauge("governor.degraded").set(0.0);
      }
      if (flight_) {
        flight_->record(clock_.now(), epoch_index_,
                        telemetry::FlightEventKind::Governor, "upgrade",
                        "BestEffort -> Synchronous");
      }
      CRIMES_LOG(Info, "governor")
          << "checkpoint path healthy again: upgrading back to Synchronous "
             "at "
          << to_ms(clock_.now()) << " ms";
      return false;
    case Action::Freeze:
      // The checkpoint path is gone for good. Running on without a
      // recoverable backup voids every guarantee the tenant signed up
      // for, so the VM stops here. Whatever the buffer still holds was
      // never covered by a checkpoint and stays unreleased.
      totals_.frozen_by_governor = true;
      kernel_->vm().pause();
      if (replicator_ != nullptr) {
        // Quiesce the replication stream: the primary will produce no
        // more generations, so nothing in flight will ever be needed and
        // the window must not stay pinned open across the freeze.
        clock_.advance(replicator_->quiesce(clock_.now()));
      }
      if (telemetry_) telemetry_->metrics.counter("governor.freezes").add();
      if (flight_) {
        flight_->record(clock_.now(), epoch_index_,
                        telemetry::FlightEventKind::Governor, "freeze",
                        "checkpoint path lost; VM paused",
                        static_cast<double>(
                            governor_->consecutive_failures()));
      }
      CRIMES_LOG(Error, "governor")
          << "checkpoint path lost (" << governor_->consecutive_failures()
          << " consecutive failures): VM frozen at " << to_ms(clock_.now())
          << " ms";
      dump_postmortem("governor-freeze");
      return true;
  }
  return false;
}

bool Crimes::commit_epoch(const EpochResult& epoch, Nanos epoch_start) {
  telemetry::TraceRecorder* trace =
      telemetry_ ? &telemetry_->trace : nullptr;
  if (epoch.checkpoint_committed) {
    ++totals_.checkpoints;
    // Commit the speculative epoch: outputs may now leave the host --
    // immediately when unreplicated; once the standby acknowledges (and
    // the fencing lease still holds) when replication is on.
    CRIMES_TRACE_SPAN(trace, "commit");
    if (replicator_) {
      replicate_commit(epoch);
    } else {
      CRIMES_TRACE_SPAN(trace, "buffer_release");
      buffer_.release_all(network_, clock_.now());
    }
  } else {
    // The copy/verify loop exhausted its retries: the backup was restored
    // to the previous clean checkpoint, the dirty set was retained (the
    // next epoch's checkpoint carries these pages), and -- in Synchronous
    // mode -- the audited outputs stay held until a checkpoint actually
    // covers them. Best Effort already shipped.
    ++totals_.checkpoint_failures;
    dump_postmortem("checkpoint-retries-exhausted");
  }
  if (governor_ && apply_governor_action(
                       governor_->on_epoch(epoch.checkpoint_committed))) {
    return false;
  }
  if (governor_ && governor_->state() == fault::GovernorState::Degraded) {
    ++totals_.degraded_epochs;
  }
  return !(epoch.checkpoint_committed && async_deep_scan_step(epoch_start));
}

bool Crimes::finish_cow_commit() {
  const CowCommit commit =
      checkpointer_->complete_cow_drain(cow_stash_.resume_at);
  EpochResult epoch = std::move(cow_stash_.epoch);
  epoch.checkpoint_committed = commit.committed;
  std::vector<Packet> held = std::move(cow_stash_.held);
  const Nanos epoch_start = cow_stash_.epoch_start;
  cow_stash_ = {};

  totals_.cow_first_touches += commit.first_touches;
  totals_.cow_drain_time += commit.drain_cost;
  totals_.cow_first_touch_time += commit.first_touch_cost;
  totals_.cow_commit_stall += commit.stall;
  totals_.copy_retries += commit.copy_retries;
  totals_.recovery_time += commit.recovery_cost;
  totals_.store_time += commit.store_cost;

  // The buffer holds the *still unaudited* packets of the epoch that
  // overlapped the drain. Set them aside around the commit, which releases
  // (and a governor downgrade would release) audited outputs only. A
  // failed drain leaves the stashed epoch's packets held, ahead of the
  // overlapping epoch's, until a later checkpoint covers them.
  std::vector<Packet> unaudited = buffer_.take_all();
  for (auto& packet : held) buffer_.hold(std::move(packet));
  const bool go_on = commit_epoch(epoch, epoch_start);
  for (auto& packet : unaudited) buffer_.hold(std::move(packet));
  return go_on;
}

bool Crimes::async_deep_scan_step(Nanos epoch_start) {
  // A completed scan may surface evidence the online modules missed.
  if (async_scan_ && clock_.now() >= async_scan_->ready_at) {
    std::vector<Finding> findings = std::move(async_scan_->findings);
    async_scan_.reset();
    if (!findings.empty()) {
      last_findings_ = std::move(findings);
      totals_.attack_detected = true;
      kernel_->vm().pause();
      respond(epoch_start);
      return true;
    }
  }
  // Due scans launch on the fresh backup. The cadence counts every epoch
  // this tenant has run, so one-epoch CloudHost slices reach it too.
  if (config_.async_deep_scan_every != 0 && !async_scan_ &&
      totals_.epochs % config_.async_deep_scan_every == 0) {
    launch_async_deep_scan();
  }
  return false;
}

void Crimes::replicate_commit(const EpochResult& epoch) {
  telemetry::TraceRecorder* trace =
      telemetry_ ? &telemetry_->trace : nullptr;
  const std::uint64_t tampers_before = replicator_->tampers_detected();
  {
    CRIMES_TRACE_SPAN(trace, "replicate");
    // With attestation armed the commit carries the primary store's root;
    // the standby recomputes the leaf from the bytes it applied and will
    // refuse to extend trust past a mismatch.
    const std::uint64_t root =
        checkpointer_->store() != nullptr ? checkpointer_->store()->root() : 0;
    const replication::Replicator::SendResult sent = replicator_->on_commit(
        checkpointer_->checkpoints_taken(), epoch.dirty,
        checkpointer_->backup_vcpu(), clock_.now(), root);
    clock_.advance(sent.stall + sent.charge + sent.verify_cost);
    totals_.replication_stall += sent.stall;
    if (trace != nullptr && sent.verify_cost.count() > 0) {
      trace->add_span("verify_chain", clock_.now() - sent.verify_cost,
                      sent.verify_cost);
    }
    if (sent.dropped) {
      ++totals_.replication_dropped;
    } else {
      ++totals_.replicated_generations;
    }
  }
  // A standby-side verification failure is first-class evidence: counted
  // and recorded the moment it is detected, then frozen into a postmortem.
  const std::uint64_t fresh = replicator_->tampers_detected() - tampers_before;
  if (fresh > 0) {
    totals_.tampers_detected += fresh;
    if (flight_) {
      flight_->record(clock_.now(), epoch_index_,
                      telemetry::FlightEventKind::Tamper, "replication_verify",
                      "standby root mismatch; trust not extended",
                      static_cast<double>(fresh));
    }
    CRIMES_LOG(Error, "crimes")
        << "attestation verify failed on the replication stream at "
        << to_ms(clock_.now()) << " ms (generation "
        << checkpointer_->checkpoints_taken() << ")";
    dump_postmortem("attestation-verify");
  }
  // Lease renewal rides the healthy link; a promoted standby refuses the
  // old primary (its fencing epoch moved on), so the lease just runs out.
  if (!replicator_->partitioned() && !standby_->promoted()) {
    lease_ = standby_->authority().grant(clock_.now());
    clock_.advance(costs_->lease_renew_rtt);
  }
  pending_release_.push_back(PendingRelease{
      checkpointer_->checkpoints_taken(), buffer_.take_all()});
  release_acked_outputs();
}

void Crimes::release_acked_outputs() {
  telemetry::TraceRecorder* trace =
      telemetry_ ? &telemetry_->trace : nullptr;
  replicator_->advance(clock_.now());
  const std::uint64_t acked = replicator_->acked_through();
  while (!pending_release_.empty() &&
         pending_release_.front().generation <= acked) {
    PendingRelease entry = std::move(pending_release_.front());
    pending_release_.pop_front();
    // Self-fencing is local by design: the primary checks only its own
    // lease's clock, never the (possibly unreachable) authority.
    if (lease_.valid(clock_.now())) {
      CRIMES_TRACE_SPAN(trace, "buffer_release");
      buffer_.release(entry.packets, network_, clock_.now());
    } else {
      ++totals_.fenced_epochs;
      totals_.outputs_discarded += entry.packets.size();
    }
  }
}

void Crimes::discard_pending_outputs() {
  for (const PendingRelease& entry : pending_release_) {
    totals_.outputs_discarded += entry.packets.size();
  }
  pending_release_.clear();
}

void Crimes::promote_standby(Nanos onset, bool primary_dead) {
  telemetry::TraceRecorder* trace =
      telemetry_ ? &telemetry_->trace : nullptr;
  const Nanos start = clock_.now();
  if (primary_dead) {
    if (cow_stash_.active) {
      // The in-flight drain died with the primary; its epoch never
      // committed, so its held outputs are discarded like any other
      // un-replicated epoch's.
      totals_.outputs_discarded += cow_stash_.held.size();
      cow_stash_ = {};
    }
    // The detector needs a heartbeat-free gap before it suspects, and
    // every lease ever granted must expire; virtual time fast-forwards
    // through both (nothing else can run -- the primary is dead). A live
    // primary's promotion is only attempted once both have passed.
    const Nanos ready = standby_->promotion_ready_at(onset);
    if (ready > clock_.now()) clock_.advance(ready - clock_.now());
  }
  const replication::StandbyHost::PromotionReport report =
      standby_->promote(*replicator_, clock_.now());
  if (!report.refused && !primary_dead) {
    // The promoted standby closes the replication channel: the live
    // primary's future commits must never reach the now-running image.
    replicator_->partition(clock_.now());
  }
  clock_.advance(report.cost);
  // A refused promotion behind a live primary changes nothing on the
  // primary's timeline, so it leaves no failover span.
  if (trace != nullptr && (primary_dead || !report.refused)) {
    trace->add_span("failover", start, clock_.now() - start);
  }
  // A dead primary's outputs die with it: held, never released, now
  // discarded. A live primary the standby replaced is permanently fenced
  // -- its lease expired (the authority waited it out) and renewal is
  // refused -- so what it queued for release can only be discarded too.
  if (primary_dead || !report.refused) discard_pending_outputs();
  if (primary_dead) buffer_.drop_all();
  if (report.refused) {
    // The chain did not verify to the trusted root: the standby holds
    // state that is not provably the primary's history, and resuming it
    // would launder the tamper. A dead primary stays a paused crime
    // scene; a live one keeps running. The veto is final: re-promoting
    // the same unverifiable stream every epoch would change nothing.
    promotion_refused_ = true;
    ++totals_.promotions_refused;
    if (flight_) {
      flight_->record(clock_.now(), epoch_index_,
                      telemetry::FlightEventKind::Tamper, "promotion_refused",
                      "chain does not verify to trusted root",
                      static_cast<double>(report.promoted_generation));
    }
    CRIMES_LOG(Error, "crimes")
        << (primary_dead ? "failover" : "split-brain promotion")
        << " REFUSED at " << to_ms(clock_.now())
        << " ms: attestation chain broken at generation "
        << report.promoted_generation;
    dump_postmortem("attestation-verify");
    return;
  }
  failed_over_ = true;
  totals_.failed_over = true;
  totals_.failover_time = clock_.now() - onset;
  totals_.promoted_generation = report.promoted_generation;
  totals_.generations_rolled_back += report.generations_rolled_back;
  if (telemetry_) {
    telemetry_->metrics.histogram("failover.time")
        .record(static_cast<std::uint64_t>(totals_.failover_time.count()));
  }
  if (flight_) {
    flight_->record(clock_.now(), epoch_index_,
                    telemetry::FlightEventKind::Failover,
                    primary_dead ? "promote" : "split_brain_promote",
                    primary_dead ? "primary killed; standby promoted"
                                 : "primary fenced",
                    static_cast<double>(report.promoted_generation));
  }
  CRIMES_LOG(Warn, "crimes")
      << (primary_dead ? "primary killed" : "split brain: primary fenced")
      << "; standby running from generation " << report.promoted_generation
      << " at " << to_ms(clock_.now()) << " ms, "
      << to_ms(totals_.failover_time) << " ms after the onset";
  dump_postmortem("failover");
}

Nanos Crimes::observe_epoch(const EpochResult& epoch, Nanos interval) {
  Nanos cost{0};
  if (flight_) {
    const char* outcome = epoch.cow_pending           ? "cow-pending"
                          : !epoch.audit_passed       ? "audit-failed"
                          : epoch.checkpoint_committed ? "committed"
                                                       : "retries-exhausted";
    flight_->record(clock_.now(), epoch_index_,
                    telemetry::FlightEventKind::Phase, "epoch", outcome,
                    to_ms(epoch.costs.pause_total()));
    cost += costs_->flight_record_event;
    if (epoch.copy_retries > 0) {
      flight_->record(clock_.now(), epoch_index_,
                      telemetry::FlightEventKind::Fault, "transport_copy",
                      "copy retried",
                      static_cast<double>(epoch.copy_retries));
      cost += costs_->flight_record_event;
    }
  }
  if (telemetry_ && telemetry_->series) {
    telemetry_->series->sample(clock_.now());
    cost += costs_->telemetry_sample_cost(
        telemetry_->series->last_sample_metrics());
  }
  if (slo_) {
    telemetry::SloInput input;
    input.epoch = epoch_index_;
    input.pause_ms = to_ms(epoch.costs.pause_total());
    input.audit_ms = to_ms(epoch.costs.vmi);
    input.replication_lag =
        replicator_ ? static_cast<double>(replicator_->in_flight()) : 0.0;
    // Vulnerability window: Synchronous holds outputs until the commit
    // covers them (zero exposure); a released-before-covered mode
    // (configured Best Effort, or degraded into it) exposes roughly the
    // epoch that just ran plus its pause.
    input.vulnerability_ms =
        active_mode_ == SafetyMode::Synchronous
            ? 0.0
            : to_ms(interval + epoch.costs.pause_total());
    const telemetry::SloState before = slo_->state();
    const telemetry::SloState after = slo_->observe(input);
    cost += costs_->slo_eval;
    if (after == telemetry::SloState::Warn) ++totals_.slo_warn_epochs;
    if (after == telemetry::SloState::Critical) {
      ++totals_.slo_critical_epochs;
    }
    if (after != before && flight_) {
      flight_->record(clock_.now(), epoch_index_,
                      telemetry::FlightEventKind::Slo, to_string(after),
                      to_string(before));
    }
  }
  clock_.advance(cost);
  return cost;
}

Nanos Crimes::control_epoch(const EpochResult& epoch, Nanos interval) {
  if (!control_) return Nanos{0};
  Nanos cost = costs_->control_observe;

  control::ControlInputs in;
  in.epoch = epoch_index_;
  in.interval_ms = to_ms(interval);
  in.pause_ms = to_ms(epoch.costs.pause_total());
  if (telemetry_ && telemetry_->series) {
    if (const telemetry::HistogramSeries* hist =
            telemetry_->series->find_histogram("phase.pause_total")) {
      in.pause_p95_ms =
          static_cast<double>(hist->window_p95(config_.control.window)) / 1e6;
      in.pause_p99_ms =
          static_cast<double>(hist->window_p99(config_.control.window)) / 1e6;
    }
  }
  in.audit_ms = to_ms(epoch.costs.vmi);
  // Same formula the SLO monitor uses: Synchronous holds outputs until
  // the commit covers them, so only released-before-covered modes expose.
  in.vulnerability_ms = active_mode_ == SafetyMode::Synchronous
                            ? 0.0
                            : to_ms(interval + epoch.costs.pause_total());
  if (replicator_) {
    in.replication_lag = static_cast<double>(replicator_->in_flight());
    const Nanos stall_total = replicator_->total_stall();
    in.replication_stall_ms = to_ms(stall_total - control_stall_seen_);
    control_stall_seen_ = stall_total;
  }
  in.dirty_pages = static_cast<double>(epoch.costs.dirty_pages);
  if (checkpointer_ && checkpointer_->store() != nullptr) {
    in.store_backlog =
        static_cast<double>(checkpointer_->store()->stats().gc_backlog);
  }
  in.governor = static_cast<std::uint8_t>(governor_state());
  in.slo = slo_ ? static_cast<std::uint8_t>(slo_->state()) : 0;

  const control::ControlPlane::CycleResult result = control_->observe(in);
  if (result.cycle_ran) {
    ++totals_.control_cycles;
    cost += costs_->control_cycle;
  }
  if (result.held) ++totals_.control_holds;
  if (result.decisions > 0) {
    totals_.control_adjustments += result.decisions;
    cost += costs_->control_apply * result.decisions;
    // Apply the new knob positions to the actuators. The interval takes
    // effect through current_interval() at the next epoch's start.
    full_sweep_every_ = control_->full_sweep_every();
    if (replicator_) {
      replicator_->set_window(
          host_capped_window(control_->replication_window()));
    }
    if (checkpointer_ && checkpointer_->store() != nullptr &&
        control_->gc_budget() > 0) {
      checkpointer_->store()->set_gc_budget(
          host_capped_gc(control_->gc_budget()));
    }
    if (flight_) {
      const auto& log = control_->decisions();
      const std::size_t first =
          log.size() >= result.decisions ? log.size() - result.decisions : 0;
      for (std::size_t i = first; i < log.size(); ++i) {
        const control::ControlDecision& d = log[i];
        flight_->record(clock_.now(), epoch_index_,
                        telemetry::FlightEventKind::Control,
                        control::to_string(d.knob), d.reason, d.to);
        cost += costs_->flight_record_event;
      }
    }
  }
  if (result.cycle_ran && telemetry_) {
    // Decision-cycle marker on the control plane's own trace lane
    // (check_trace.py validates the lane stays exclusive).
    telemetry_->trace.add_span("control_decide", clock_.now(), cost,
                               control::kControlPlaneLane);
  }
  clock_.advance(cost);
  return cost;
}

void Crimes::dump_postmortem(std::string_view reason) {
  // Every abnormal path lands here, so flush the registered exporters
  // first: even with the recorder off (or the dump budget spent), a
  // partial run must leave complete, parseable trace/metrics files.
  if (!flight_ || postmortems_.size() >= config_.postmortem_limit) {
    if (telemetry_) (void)telemetry_->flush_exports();
    return;
  }
  // The trigger itself is evidence -- recorded first, so the dump's last
  // ring entry names the reason it exists.
  flight_->record(clock_.now(), epoch_index_,
                  telemetry::FlightEventKind::Postmortem, reason);
  telemetry::PostmortemContext ctx;
  ctx.reason = std::string(reason);
  ctx.tenant = kernel_->vm().name();
  ctx.at = clock_.now();
  ctx.epoch = epoch_index_;
  ctx.config_summary = config_summary();
  ctx.flight = flight_.get();
  ctx.series =
      telemetry_ && telemetry_->series ? telemetry_->series.get() : nullptr;
  ctx.slo = slo_.get();
  PostmortemRecord record{ctx.reason, epoch_index_,
                          telemetry::render_postmortem(ctx)};
  if (!config_.postmortem_dir.empty()) {
    const std::string path = config_.postmortem_dir + "/" + ctx.tenant + "-" +
                             ctx.reason + "-" +
                             std::to_string(epoch_index_) +
                             ".postmortem.json";
    telemetry::FileSink sink(path);
    if (sink.ok()) {
      sink.write(record.json);
    } else {
      CRIMES_LOG(Warn, "flight") << "postmortem not written: " << path;
    }
  }
  if (telemetry_) {
    // Dump marker on the flight recorder's own trace lane (the pipeline's
    // nesting invariants never see it), and a full exporter flush so even
    // an aborted run leaves parseable trace/metrics files behind.
    telemetry_->trace.add_span("postmortem_dump", clock_.now(),
                               costs_->postmortem_dump,
                               telemetry::kFlightRecorderLane);
    (void)telemetry_->flush_exports();
  }
  clock_.advance(costs_->postmortem_dump);
  ++totals_.postmortems_dumped;
  CRIMES_LOG(Warn, "flight")
      << "postmortem dumped (" << ctx.reason << ") at epoch " << epoch_index_
      << ", " << to_ms(clock_.now()) << " ms";
  postmortems_.push_back(std::move(record));
}

void Crimes::verify_store_seals() {
  if (!checkpointer_) return;
  store::CheckpointStore* store = checkpointer_->store();
  if (store == nullptr || !config_.checkpoint.store.crypto.enabled()) return;
  if (config_.checkpoint.store.crypto.seal) {
    const store::CheckpointStore::SealAudit audit = store->audit_seals();
    clock_.advance(audit.cost);
    if (!audit.bad_digests.empty()) {
      totals_.tampers_detected += audit.bad_digests.size();
      if (flight_) {
        flight_->record(clock_.now(), epoch_index_,
                        telemetry::FlightEventKind::Tamper, "store_seal_audit",
                        "sealed page fails its MAC",
                        static_cast<double>(audit.bad_digests.size()));
      }
      CRIMES_LOG(Error, "crimes")
          << "seal audit found " << audit.bad_digests.size()
          << " tampered page(s) in the checkpoint store at "
          << to_ms(clock_.now()) << " ms";
      dump_postmortem("seal-audit");
    }
  }
  if (config_.checkpoint.store.crypto.attest) {
    const store::CheckpointStore::ChainAudit chain = store->verify_chain();
    clock_.advance(chain.cost);
    if (!chain.ok) {
      ++totals_.tampers_detected;
      if (flight_) {
        flight_->record(clock_.now(), epoch_index_,
                        telemetry::FlightEventKind::Tamper, "store_chain",
                        chain.reason, static_cast<double>(chain.bad_index));
      }
      CRIMES_LOG(Error, "crimes")
          << "store attestation chain broken: " << chain.reason;
      dump_postmortem("attestation-verify");
    }
  }
}

void Crimes::verify_journal(bool failure_seen) {
  if (!checkpointer_ || checkpointer_->journal() == nullptr) return;
  // Without attestation, fsck only after a slice with a failure signature:
  // CloudHost calls run() once per epoch, and a clean slice has nothing to
  // verify. With attestation armed the journal is itself a trust boundary
  // -- an adversary can rewrite it without tripping anything else (the
  // framing checksum is unkeyed), so the keyed walk always runs and
  // localizes which durable record was touched.
  if (!config_.checkpoint.store.crypto.attest && !failure_seen) return;
  const replication::StoreJournal::FsckReport report =
      checkpointer_->journal()->fsck();
  clock_.advance(costs_->journal_scan_per_record * report.records);
  if (report.ok) return;
  const bool keyed = report.reason.rfind("attestation", 0) == 0;
  if (keyed) ++totals_.tampers_detected;
  if (flight_) {
    // Structured evidence: which record, at what byte offset, and why.
    flight_->record(clock_.now(), epoch_index_,
                    keyed ? telemetry::FlightEventKind::Tamper
                          : telemetry::FlightEventKind::Phase,
                    "journal_fsck", report.reason.empty() ? report.error
                                                          : report.reason,
                    static_cast<double>(report.bad_record));
  }
  CRIMES_LOG(Error, "journal")
      << "fsck failed at record " << report.bad_record << " (offset "
      << report.bad_offset << " of " << report.records << " records): "
      << (report.reason.empty() ? report.error : report.reason);
  dump_postmortem("journal-fsck");
}

std::string Crimes::config_summary() const {
  char buf[320];
  std::snprintf(
      buf, sizeof buf,
      "scheme=%s mode=%s interval_ms=%.1f telemetry=%s governor=%s "
      "replication=%s faults=%s control=%s slo{pause_ms=%.2f,lag=%.0f,"
      "vuln_ms=%.2f,audit_ms=%.2f}",
      config_.checkpoint.label(), to_string(config_.mode),
      to_ms(current_interval()), telemetry_ ? "on" : "off",
      governor_ ? "on" : "off", config_.replication.enabled ? "on" : "off",
      injector_ ? "on" : "off", control_ ? "on" : "off",
      config_.slo.budget.pause_ms, config_.slo.budget.replication_lag,
      config_.slo.budget.vulnerability_ms, config_.slo.budget.audit_ms);
  return buf;
}

Nanos Crimes::current_interval() const {
  Nanos base = config_.checkpoint.epoch_interval;
  if (control_) base = control_->interval();
  if (host_interval_scale_ != 1.0) {
    // Shed ladder rung 1: the host stretches epochs multiplicatively on
    // top of the tenant's own tuning, so the tenant's loop keeps steering.
    base = Nanos{static_cast<Nanos::rep>(static_cast<double>(base.count()) *
                                         host_interval_scale_)};
  }
  return base;
}

void Crimes::host_downgrade(bool shed) {
  if (config_.mode != SafetyMode::Synchronous) return;  // nothing to shed
  if (shed == host_downgraded_) return;
  host_downgraded_ = shed;
  // Governor precedence: while it holds the pipeline Degraded/Frozen, the
  // output mode is its call. The flag above still records the host's
  // intent, so a later governor upgrade lands in the shed mode.
  if (governor_ && governor_->state() != fault::GovernorState::Normal) return;
  if (shed) {
    // Same semantics as the governor's downgrade: everything currently
    // held passed its audit, so releasing it is exactly Best Effort.
    buffer_.release_all(network_, clock_.now());
    apply_output_mode(SafetyMode::BestEffort);
  } else if (active_mode_ == SafetyMode::BestEffort) {
    apply_output_mode(SafetyMode::Synchronous);
  }
}

void Crimes::set_host_window_cap(std::size_t cap) {
  host_window_cap_ = cap;
  if (!replicator_) return;
  const std::size_t base =
      control_ ? control_->replication_window() : config_.replication.window;
  replicator_->set_window(host_capped_window(base));
}

void Crimes::set_host_gc_cap(std::size_t cap) {
  host_gc_cap_ = cap;
  if (!checkpointer_ || checkpointer_->store() == nullptr) return;
  const std::size_t base =
      control_ && control_->gc_budget() > 0
          ? control_->gc_budget()
          : config_.checkpoint.store.gc_generations_per_epoch;
  if (base > 0) checkpointer_->store()->set_gc_budget(host_capped_gc(base));
}

void Crimes::launch_async_deep_scan() {
  // Runs on the backup image, concurrently with the primary (section 5.3:
  // Volatility is far too slow for the synchronous path, but the stable
  // backup checkpoint can absorb it). Only the completion *time* is
  // deferred; the backup cannot change until the scan's findings are
  // consumed, so evaluating eagerly is equivalent.
  if (!volatility_initialized_) {
    // Init happens once, also off the critical path.
    volatility_initialized_ = true;
  }
  const MemoryDump dump = MemoryDump::capture(
      checkpointer_->backup(), kernel_->symbols(), kernel_->flavor(),
      "async-deep-scan", clock_.now());
  AsyncScan scan;
  scan.ready_at = clock_.now() + costs_->volatility_process_scan;
  for (const auto& row : forensics::psxview(dump)) {
    if (!row.suspicious()) continue;
    scan.findings.push_back(Finding{
        .module = "async-psxview",
        .severity = Severity::Critical,
        .description = "process '" + row.proc.name + "' (pid " +
                       std::to_string(row.proc.pid.value()) +
                       ") visible to psscan but not pslist "
                       "(deep cross-view)",
        .location = row.proc.task_va,
        .pid = row.proc.pid,
        .object = std::nullopt,
    });
  }
  async_scan_ = std::move(scan);
}

Crimes::HoneypotLog Crimes::run_honeypot(Nanos duration) {
  if (!attack_) {
    throw std::logic_error("Crimes::run_honeypot: no attack detected");
  }
  if (workload_ == nullptr) {
    throw std::logic_error("Crimes::run_honeypot: no workload");
  }
  HoneypotLog log;

  // Quarantine: every output is captured for intelligence, none delivered.
  nic_.set_sink([&log](Packet&& p) {
    log.quarantined_packets.push_back(std::move(p));
  });
  disk_.set_buffering(true);  // writes stay in the overlay

  std::unordered_set<std::string> known;
  for (const auto& p : kernel_->process_list_ground_truth()) {
    known.insert(p.name);
  }

  kernel_->vm().unpause();
  const Nanos interval = config_.checkpoint.epoch_interval;
  for (Nanos ran{0}; ran < duration; ran += interval) {
    workload_->run_epoch(clock_.now(), interval);
    clock_.advance(interval);
    ++log.epochs;
    for (const auto& p : kernel_->process_list_ground_truth()) {
      if (known.insert(p.name).second) log.new_processes.push_back(p.name);
    }
  }
  kernel_->vm().pause();
  disk_.drop_pending();
  return log;
}

void Crimes::respond(Nanos epoch_start) {
  telemetry::TraceRecorder* trace =
      telemetry_ ? &telemetry_->trace : nullptr;
  AttackReport report;
  report.findings = last_findings_;
  report.timeline.epoch_start = epoch_start;
  report.timeline.detected_at = clock_.now();

  // Disk snapshot extension: in Best-Effort mode (configured, or degraded
  // into by the governor) the failed epoch's writes already hit the
  // committed image; revert to the last clean checkpoint's disk state.
  // (Synchronous mode already dropped the pending overlay, so this is a
  // no-op there.)
  if (active_mode_ == SafetyMode::BestEffort) {
    disk_.restore_committed(disk_checkpoint_);
  }

  // Snapshot the evidence before anything else disturbs it. (Reserve all
  // three slots up front: references into the vector are taken below.)
  report.dumps.reserve(3);
  report.dumps.push_back(MemoryDump::capture(
      checkpointer_->backup(), kernel_->symbols(), kernel_->flavor(),
      "last-clean-checkpoint", clock_.now()));
  report.dumps.push_back(MemoryDump::capture(
      kernel_->vm(), kernel_->symbols(), kernel_->flavor(), "audit-fail",
      clock_.now()));
  const MemoryDump& clean_dump = report.dumps[0];
  const MemoryDump& bad_dump = report.dumps[1];

  // Rollback + replay for canary findings: pinpoint the exact write.
  const Finding* canary_finding = nullptr;
  for (const auto& f : report.findings) {
    if (f.module == "canary-scan" && f.severity == Severity::Critical) {
      canary_finding = &f;
      break;
    }
  }
  if (canary_finding != nullptr && config_.rollback_replay &&
      config_.record_execution) {
    recorder_.disable();  // do not re-record the replayed writes
    const std::uint64_t expected =
        kernel_->heap().canary_key() ^ canary_finding->location.value();
    {
      CRIMES_TRACE_SPAN(trace, "replay");
      report.pinpoint = replay_->pinpoint_canary_corruption(
          recorder_.ops(), canary_finding->location, expected);
    }
    report.timeline.replay_done_at = clock_.now();
    report.dumps.push_back(MemoryDump::capture(
        kernel_->vm(), kernel_->symbols(), kernel_->flavor(),
        "attack-instant", clock_.now()));
  }

  // Volatility-style postmortem.
  if (config_.forensics) {
    CRIMES_TRACE_SPAN(trace, "forensics");
    if (!volatility_initialized_) {
      clock_.advance(costs_->volatility_init);
      volatility_initialized_ = true;
    }
    forensics::ForensicReport text("attack on domain " + kernel_->vm().name());

    std::string detections;
    for (const auto& f : report.findings) {
      detections += std::string(to_string(f.severity)) + " [" + f.module +
                    "] " + f.description + "\n";
    }
    text.add_section("Detections", detections);

    for (const auto& f : report.findings) {
      if (f.module == "malware-scan" || f.module == "hidden-process") {
        analyze_malware(text, clean_dump, bad_dump, f);
      } else if (f.module == "canary-scan") {
        analyze_overflow(text, bad_dump, f);
        if (report.pinpoint) {
          const auto& pp = *report.pinpoint;
          text.add_section(
              "Replay pinpoint",
              pp.found
                  ? "corrupting write at instruction " +
                        std::to_string(pp.instr_index) + ", VA " +
                        to_hex(pp.write_va.value()) + ", " +
                        std::to_string(pp.write_len) + " bytes (replayed " +
                        std::to_string(pp.ops_replayed) + " ops)"
                  : "replay did not reproduce the corruption");
        }
      } else if (f.module == "syscall-integrity") {
        const auto diff = forensics::DumpDiff::compute(clean_dump, bad_dump);
        clock_.advance(costs_->volatility_plugin_base);
        text.add_section("Syscall table diff", forensics::render_diff(diff));
      }
    }

    // Always include the cross-view: it is the paper's rootkit safety net.
    clock_.advance(costs_->volatility_process_scan);
    text.add_section("psxview",
                     forensics::render_psxview(forensics::psxview(bad_dump)));

    // Shellcode sweep and event timeline round out the report.
    clock_.advance(costs_->volatility_plugin_base);
    const auto shellcode = forensics::malfind(bad_dump);
    if (!shellcode.empty()) {
      std::string body;
      for (const auto& hit : shellcode) {
        body += to_hex(hit.va.value()) + "  " +
                std::to_string(hit.length) + " bytes  " + hit.reason + "\n";
      }
      text.add_section("malfind", body);
    }
    {
      std::string body;
      for (const auto& event : forensics::timeline(bad_dump)) {
        body += std::to_string(event.at_ns / 1'000'000) + " ms  " +
                event.description + "\n";
      }
      text.add_section("timeline", body);
    }

    report.forensic_text = text.to_string();
    report.timeline.analysis_done_at = clock_.now();
  }

  // Persist the snapshots for offline investigators ("tens of seconds for
  // large VMs" -- section 5.5).
  if (config_.persist_checkpoints) {
    std::size_t pages = 0;
    for (const auto& d : report.dumps) pages += d.page_count();
    clock_.advance(costs_->disk_write_per_page * pages);
    report.timeline.persisted_at = clock_.now();
  }

  attack_ = std::move(report);
}

void Crimes::analyze_malware(forensics::ForensicReport& report,
                             const MemoryDump& clean, const MemoryDump& bad,
                             const Finding& finding) {
  if (!finding.pid) return;
  const Pid pid = *finding.pid;

  clock_.advance(costs_->volatility_plugin_base);  // procdump
  if (auto dump = forensics::procdump(bad, pid)) {
    report.add_table(
        "Malware detected",
        {"Name", "PID", "Start"},
        {{dump->proc.name, std::to_string(pid.value()),
          std::to_string(dump->proc.start_time_ns / 1'000'000) + " ms"}});
    report.add_section("procdump",
                       "extracted " + std::to_string(dump->image.size()) +
                           " bytes of process image for sandbox analysis");
  }

  // netscan + handles on both checkpoints, then diff (section 5.6).
  clock_.advance(costs_->volatility_plugin_base * 2);
  const auto diff = forensics::DumpDiff::compute(clean, bad);
  report.add_section("Open Sockets (new since last clean checkpoint)",
                     forensics::render_netscan(diff.new_sockets));
  report.add_section("Open File Handles (new since last clean checkpoint)",
                     forensics::render_handles(diff.new_handles));
}

void Crimes::analyze_overflow(forensics::ForensicReport& report,
                              const MemoryDump& bad, const Finding& finding) {
  // linux_proc_map + linux_dump_map: extract the address space around the
  // overflowed object (~5 s in the paper).
  clock_.advance(costs_->volatility_dump_map);
  std::string body = "overflowed object at VA " +
                     to_hex(finding.object.value_or(Vaddr{0}).value()) +
                     ", canary at VA " +
                     to_hex(finding.location.value()) + "\n";
  // Find the owning process via pslist (single-address-space guest: report
  // every user process mapping the heap).
  for (const auto& p : forensics::pslist(bad)) {
    const auto regions = forensics::proc_maps(bad, p.pid);
    for (const auto& r : regions) {
      if (finding.location.value() >= r.start.value() &&
          finding.location.value() < r.end.value()) {
        body += "mapped in pid " + std::to_string(p.pid.value()) + " (" +
                p.name + ") region " + r.label + "\n";
        const auto bytes = forensics::dump_map(bad, r, 4096);
        body += "dumped " + std::to_string(bytes.size()) +
                " bytes of the region for offline analysis\n";
        break;
      }
    }
  }
  report.add_section("linux_dump_map", body);
}

}  // namespace crimes
