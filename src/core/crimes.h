// The CRIMES framework core (Figure 1): speculative execution with output
// buffering, per-epoch security audits, and the Analyzer's attack response
// (rollback, replay pinpointing, Volatility-style forensics, report).
//
// Typical use:
//
//   Hypervisor hv;
//   Vm& vm = hv.create_domain("tenant", cfg.page_count);
//   GuestKernel kernel(vm, cfg);
//   kernel.boot();
//
//   Crimes crimes(hv, kernel, CrimesConfig{...});
//   crimes.add_module(std::make_unique<CanaryScanModule>());
//   OverflowWorkload app(kernel, {});
//   crimes.set_workload(&app);
//   crimes.initialize();
//   RunSummary summary = crimes.run(millis(2000));
//   if (summary.attack_detected) std::cout << crimes.attack()->forensic_text;
#pragma once

#include "checkpoint/checkpointer.h"
#include "common/cost_model.h"
#include "common/sim_clock.h"
#include "control/control_plane.h"
#include "detect/detector.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "fault/safety_governor.h"
#include "forensics/memory_dump.h"
#include "forensics/report.h"
#include "guestos/guest_kernel.h"
#include "net/output_buffer.h"
#include "net/virtual_disk.h"
#include "net/virtual_nic.h"
#include "replay/recorder.h"
#include "replay/replay_engine.h"
#include "replication/replicator.h"
#include "replication/standby.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/slo.h"
#include "telemetry/telemetry.h"
#include "vmi/vmi_session.h"
#include "workload/workload.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace crimes {

// Section 3.1: Synchronous Safety buffers all outputs until the audit
// passes (zero window of vulnerability); Best Effort scans at the same
// cadence but releases outputs immediately; Disabled is the unprotected
// baseline used for normalization.
enum class SafetyMode { Synchronous, BestEffort, Disabled };

[[nodiscard]] const char* to_string(SafetyMode mode);

struct CrimesConfig {
  CheckpointConfig checkpoint = CheckpointConfig::full();
  SafetyMode mode = SafetyMode::Synchronous;
  bool record_execution = true;   // keep a write log for replay
  bool rollback_replay = true;    // pinpoint canary corruptions via replay
  bool forensics = true;          // run the Volatility-style analysis
  bool persist_checkpoints = true;  // write snapshots to disk afterwards
  std::size_t disk_blocks = 4096;
  // Extension (section 5.3 future work): every N committed epochs, run a
  // Volatility-grade cross-view (psscan-based psxview) *asynchronously on
  // the backup checkpoint* while the primary keeps running. Catches
  // rootkits thorough enough to evade the cheap online scans, at the cost
  // of a detection lag of roughly the deep-scan duration. 0 = disabled.
  std::size_t async_deep_scan_every = 0;
  // Telemetry layer: per-epoch phase spans (suspend/dirty_scan/audit/map/
  // copy/resume, scan:<module>, commit/rollback/replay, buffer_release) on
  // a TraceRecorder plus a MetricsRegistry of phase histograms, exportable
  // as Chrome trace_event JSON / metrics JSONL (telemetry/export.h). Off by
  // default: the disabled path allocates nothing per epoch.
  bool telemetry = false;
  // Resilience layer (src/fault, DESIGN.md section 9). `faults` is the
  // deterministic fault plan to inject (empty = no injection; a non-empty
  // plan also forces checkpoint.verify_backup on). `governor` tunes the
  // SafetyGovernor that downgrades Synchronous -> Best Effort under
  // sustained checkpoint failure, upgrades back after clean epochs, and
  // freezes the VM when the checkpoint path is lost for good.
  // `audit_policy` sets the per-module audit deadline behind scan-module
  // quarantine.
  fault::FaultPlan faults;
  fault::GovernorConfig governor;
  AuditPolicy audit_policy;
  // Standby replication & crash recovery (DESIGN.md section 11). When
  // enabled, every committed generation streams to a simulated standby
  // host; output release additionally waits for the standby's ack and a
  // valid fencing lease, a heartbeat detector drives epoch-fenced
  // failover, and -- if checkpoint.store.journal is also set -- the store
  // journal makes the primary's snapshot history crash-recoverable.
  replication::ReplicationConfig replication;
  // Observability layer (DESIGN.md section 13). The flight recorder and
  // SLO monitor are always-on by default: both preallocate at
  // initialize() and their per-epoch work is allocation-free, so they ride
  // along even where the `telemetry` knob stays off (like RunSummary's
  // pause histogram does). The time-series engine needs the registry and
  // therefore follows the `telemetry` knob.
  bool flight_recorder = true;
  std::size_t flight_capacity = 1024;
  telemetry::SloConfig slo;
  telemetry::TimeSeriesConfig timeseries;
  // Closed-loop control plane (src/control, DESIGN.md section 14). Off by
  // default -- no ControlPlane is built and the per-epoch path costs
  // nothing. When enabled it implies `telemetry` (the policies read
  // windowed percentiles from the time-series engine); its interval
  // policy is the only run-time interval controller.
  control::ControlConfig control;
  // Postmortem destination: when non-empty, every dump also writes
  // `<dir>/<tenant>-<reason>-<epoch>.postmortem.json`. In-memory records
  // are kept either way (Crimes::postmortems()).
  std::string postmortem_dir;
  // Dumps per Crimes instance: a fault storm must not bury the run under
  // one postmortem per failed epoch.
  std::size_t postmortem_limit = 4;
};

// Timeline of an attack response, in virtual time (Figure 8).
struct AttackTimeline {
  Nanos epoch_start{0};        // start of the epoch containing the attack
  Nanos detected_at{0};        // audit failure (includes suspend+scan)
  Nanos replay_done_at{0};     // rollback+replay finished (0 = not run)
  Nanos analysis_done_at{0};   // forensic report complete
  Nanos persisted_at{0};       // checkpoints written to disk (0 = not run)
};

struct AttackReport {
  std::vector<Finding> findings;
  std::optional<PinpointResult> pinpoint;
  std::string forensic_text;
  AttackTimeline timeline;
  // Snapshots around the attack: [0] last clean checkpoint, [1] end of the
  // failed epoch, [2] the attack instant (present only after replay).
  std::vector<MemoryDump> dumps;
};

struct RunSummary {
  std::string scheme;
  Nanos work_time{0};          // guest execution time (epochs x interval)
  Nanos total_pause{0};        // time spent suspended for checkpoints
  Nanos max_pause{0};          // worst single-epoch pause
  std::size_t epochs = 0;
  std::size_t checkpoints = 0;
  bool attack_detected = false;
  PhaseCosts total_costs;      // summed over all checkpoints
  std::size_t total_dirty_pages = 0;
  // Per-epoch pause distribution (nanoseconds), always collected: figure
  // benches report tail pause (p95/p99), not just the average.
  telemetry::HistogramSnapshot pause_histogram;

  // --- Resilience layer (src/fault): all zero unless faults were injected.
  std::size_t checkpoint_failures = 0;  // epochs whose copy exhausted retries
  std::size_t copy_retries = 0;
  std::uint64_t faults_injected = 0;    // injector decisions that fired
  std::size_t governor_downgrades = 0;  // Synchronous -> Best Effort
  std::size_t governor_upgrades = 0;    // back to Synchronous
  std::size_t degraded_epochs = 0;      // epochs spent in degraded mode
  bool frozen_by_governor = false;      // checkpoint path lost; VM paused
  // Virtual time burnt on failure handling (wasted attempts, backoff,
  // undo-log restores, rereads, respawns); a subset of total_pause.
  Nanos recovery_time{0};
  std::vector<std::string> quarantined_modules;
  // Checkpoint-store work (generation append + GC), charged after resume
  // -- lengthens epochs, not pauses. Zero unless checkpoint.store.enabled.
  Nanos store_time{0};

  // --- Speculative CoW (checkpoint.speculative_cow): all zero otherwise.
  std::size_t cow_first_touches = 0;  // guest writes that forced a copy
  Nanos cow_drain_time{0};        // background drain, overlapped with epochs
  Nanos cow_first_touch_time{0};  // subset of drain: first-touch traps
  // Drain time that outlived its overlap window and stalled the commit
  // barrier. Not part of total_pause (the VM is running, only outputs
  // wait); add it to total_pause for end-to-end overhead comparisons.
  Nanos cow_commit_stall{0};

  // --- Replication & failover (src/replication): all zero/false unless
  // CrimesConfig::replication.enabled.
  Nanos replication_stall{0};  // backpressure waits (window full)
  std::size_t replicated_generations = 0;
  std::size_t replication_dropped = 0;  // commits lost to a partitioned link
  bool primary_killed = false;          // injected host failure fired
  bool failed_over = false;             // the standby promoted
  Nanos failover_time{0};  // failure onset -> standby running
  std::uint64_t promoted_generation = 0;
  std::size_t generations_rolled_back = 0;  // partially replicated, undone
  // Held outputs of un-replicated (or fenced) epochs, discarded unreleased.
  std::size_t outputs_discarded = 0;
  // Commits whose outputs were blocked by an expired/invalidated lease.
  std::size_t fenced_epochs = 0;

  // --- Attested storage & replication (src/crypto, DESIGN.md section 15):
  // all zero unless checkpoint.store.crypto is armed.
  std::uint64_t tampers_detected = 0;   // verify failures, any boundary
  std::uint64_t roots_verified = 0;     // attestation root checks that ran
  std::size_t promotions_refused = 0;   // failovers vetoed by the chain

  // --- Observability (src/telemetry, DESIGN.md section 13): epochs the
  // SLO monitor spent in each degraded health state, and postmortems the
  // flight recorder froze.
  std::size_t slo_warn_epochs = 0;
  std::size_t slo_critical_epochs = 0;
  std::size_t postmortems_dumped = 0;

  // --- Control plane (src/control, DESIGN.md section 14): all zero unless
  // CrimesConfig::control.enabled.
  std::size_t control_cycles = 0;       // policy evaluations that ran
  std::size_t control_adjustments = 0;  // knob moves applied
  std::size_t control_holds = 0;        // cycles preempted by the governor
  std::size_t control_full_sweeps = 0;  // audits run without a ScanPlan

  // --- Host overload (src/cloud host arbiter): epochs executed with
  // protection paused by the shed ladder's top rung -- the workload ran,
  // outputs stayed held, no checkpoint/audit work was charged. Zero
  // unless a CloudHost with an enabled HostConfig shed this tenant.
  std::size_t host_paused_epochs = 0;

  [[nodiscard]] double normalized_runtime() const {
    if (work_time.count() == 0) return 1.0;
    return to_ms(work_time + total_pause) / to_ms(work_time);
  }
  [[nodiscard]] double avg_pause_ms() const {
    return checkpoints == 0
               ? 0.0
               : to_ms(total_pause) / static_cast<double>(checkpoints);
  }
  [[nodiscard]] double avg_dirty_pages() const {
    return checkpoints == 0 ? 0.0
                            : static_cast<double>(total_dirty_pages) /
                                  static_cast<double>(checkpoints);
  }
  [[nodiscard]] double max_pause_ms() const { return to_ms(max_pause); }
  // Tail pause from the log2 histogram: accurate to a factor of 2,
  // clamped to the exact max.
  [[nodiscard]] double p50_pause_ms() const {
    return static_cast<double>(pause_histogram.p50()) / 1e6;
  }
  [[nodiscard]] double p95_pause_ms() const {
    return static_cast<double>(pause_histogram.p95()) / 1e6;
  }
  [[nodiscard]] double p99_pause_ms() const {
    return static_cast<double>(pause_histogram.p99()) / 1e6;
  }
  [[nodiscard]] PhaseCosts avg_costs() const;

  bool operator==(const RunSummary&) const = default;
};

class Crimes {
 public:
  Crimes(Hypervisor& hypervisor, GuestKernel& kernel, CrimesConfig config,
         const CostModel& costs = CostModel::defaults());

  // --- Assembly (before initialize()) -----------------------------------
  void add_module(std::unique_ptr<ScanModule> module);
  void set_workload(Workload* workload) { workload_ = workload; }

  // Wires the NIC/disk according to the SafetyMode, brings up VMI
  // (init + preprocess), and initializes the Checkpointer.
  void initialize();

  // --- Execution ----------------------------------------------------------
  // Runs epochs until the workload finishes, `max_work_time` more guest
  // time has executed, or an attack is detected (which triggers the full
  // response pipeline before returning). Returns the cumulative totals of
  // every run() so far (CloudHost calls it once per epoch).
  const RunSummary& run(Nanos max_work_time);
  [[nodiscard]] const RunSummary& totals() const { return totals_; }

  [[nodiscard]] const AttackReport* attack() const {
    return attack_ ? &*attack_ : nullptr;
  }

  // Extension (section 6): instead of keeping the attacked VM frozen,
  // convert it into a quarantined honeypot -- resume execution with every
  // output captured (never delivered) and the process list monitored each
  // epoch -- to gather intelligence about the attacker's next moves.
  // Requires a detected attack. Leaves the VM Paused again afterwards.
  struct HoneypotLog {
    std::vector<Packet> quarantined_packets;
    std::vector<std::string> new_processes;
    std::size_t epochs = 0;
  };
  HoneypotLog run_honeypot(Nanos duration);

  // --- Accessors ------------------------------------------------------------
  [[nodiscard]] SimClock& clock() { return clock_; }
  [[nodiscard]] VirtualNic& nic() { return nic_; }
  [[nodiscard]] ExternalNetwork& network() { return network_; }
  [[nodiscard]] OutputBuffer& buffer() { return buffer_; }
  [[nodiscard]] VirtualDisk& disk() { return disk_; }
  [[nodiscard]] VmiSession& vmi();
  [[nodiscard]] Detector& detector() { return detector_; }
  [[nodiscard]] Checkpointer& checkpointer();
  [[nodiscard]] ExecutionRecorder& recorder() { return recorder_; }
  [[nodiscard]] const CrimesConfig& config() const { return config_; }
  [[nodiscard]] GuestKernel& kernel() { return *kernel_; }
  // The epoch interval currently in force (differs from the configured one
  // only when the control plane or the host's shed ladder moved it).
  [[nodiscard]] Nanos current_interval() const;
  // The control plane, or nullptr when CrimesConfig::control is off.
  [[nodiscard]] control::ControlPlane* control_plane() {
    return control_.get();
  }
  [[nodiscard]] const control::ControlPlane* control_plane() const {
    return control_.get();
  }
  // The telemetry bundle, or nullptr when CrimesConfig::telemetry is off.
  [[nodiscard]] telemetry::Telemetry* telemetry() {
    return telemetry_.get();
  }
  [[nodiscard]] const telemetry::Telemetry* telemetry() const {
    return telemetry_.get();
  }
  // The fault injector, or nullptr when CrimesConfig::faults is empty.
  [[nodiscard]] fault::FaultInjector* fault_injector() {
    return injector_.get();
  }
  // The governor's view of the pipeline; Normal when no governor runs.
  [[nodiscard]] fault::GovernorState governor_state() const {
    return governor_ ? governor_->state() : fault::GovernorState::Normal;
  }
  // The SafetyMode currently in force: differs from config().mode while
  // the governor holds the pipeline in degraded Best Effort.
  [[nodiscard]] SafetyMode active_mode() const { return active_mode_; }

  // --- Host-arbiter hooks (CloudHost overload subsystem) ----------------
  // The shedding ladder and cross-tenant arbiter actuate a tenant only
  // through these; all of them are cheap, idempotent, and inert at their
  // defaults, so a host without an enabled HostConfig never perturbs the
  // pipeline. The SafetyGovernor keeps precedence: mode changes no-op
  // while it holds the run, and CloudHost never calls these on a tenant
  // whose governor is non-Normal.
  //
  // Rung 1: stretch (or restore, scale=1.0) the epoch interval. Applied
  // multiplicatively on top of whatever the control plane decided, so the
  // tenant's own loop keeps steering.
  void set_host_interval_scale(double scale) { host_interval_scale_ = scale; }
  [[nodiscard]] double host_interval_scale() const {
    return host_interval_scale_;
  }
  // Rung 2: downgrade Synchronous -> BestEffort (audited outputs release
  // immediately, exactly the governor's degraded semantics) and back.
  void host_downgrade(bool shed);
  [[nodiscard]] bool host_downgraded() const { return host_downgraded_; }
  // Rung 3: pause protection with outputs held -- epochs still execute,
  // but the checkpoint/audit pipeline is skipped and Synchronous outputs
  // accumulate in the buffer until protection resumes and a checkpoint
  // covers them. Nothing unaudited ever escapes.
  void host_pause_protection(bool paused) {
    host_protection_paused_ = paused;
  }
  [[nodiscard]] bool host_protection_paused() const {
    return host_protection_paused_;
  }
  // Rack-correlated failover injection: the next epoch observes a primary
  // kill exactly like FaultKind::PrimaryKill (no-op without replication).
  void host_kill_primary() { host_kill_pending_ = true; }
  // Cross-tenant trades: cap the replication in-flight window / store GC
  // budget below the tenant's own (control-plane) position; 0 lifts the
  // cap and restores the tenant's setting.
  void set_host_window_cap(std::size_t cap);
  void set_host_gc_cap(std::size_t cap);
  [[nodiscard]] std::size_t host_window_cap() const {
    return host_window_cap_;
  }
  [[nodiscard]] std::size_t host_gc_cap() const { return host_gc_cap_; }

  // Observability layer. The flight recorder exists unless
  // config().flight_recorder was turned off; the SLO monitor unless
  // config().slo.enabled was (or the mode is Disabled -- no pipeline, no
  // contract to monitor).
  [[nodiscard]] telemetry::FlightRecorder* flight_recorder() {
    return flight_.get();
  }
  [[nodiscard]] telemetry::SloMonitor* slo_monitor() { return slo_.get(); }
  [[nodiscard]] const telemetry::SloMonitor* slo_monitor() const {
    return slo_.get();
  }
  // Postmortems dumped so far (bounded by config().postmortem_limit);
  // each holds the rendered JSON, so tests and benches can validate a dump
  // without going through the filesystem.
  struct PostmortemRecord {
    std::string reason;
    std::uint64_t epoch = 0;
    std::string json;
  };
  [[nodiscard]] const std::vector<PostmortemRecord>& postmortems() const {
    return postmortems_;
  }
  // One-line config snapshot embedded in every postmortem.
  [[nodiscard]] std::string config_summary() const;

  // Replication layer; nullptr unless config().replication.enabled.
  [[nodiscard]] replication::StandbyHost* standby() { return standby_.get(); }
  [[nodiscard]] replication::Replicator* replicator() {
    return replicator_.get();
  }
  // The primary's current fencing lease (held() false when replication is
  // off or the lease was never granted).
  [[nodiscard]] const replication::Lease& lease() const { return lease_; }
  [[nodiscard]] bool failed_over() const { return failed_over_; }
  [[nodiscard]] bool primary_killed() const { return primary_killed_; }
  // Committed outputs waiting on the standby's acknowledgement.
  [[nodiscard]] std::size_t pending_release_count() const {
    std::size_t n = 0;
    for (const auto& entry : pending_release_) n += entry.packets.size();
    return n;
  }

 private:
  [[nodiscard]] AuditResult run_audit(std::span<const Pfn> dirty,
                                      Nanos audit_start);
  // Wires the NIC sink and disk buffering for `mode`; the governor calls
  // it again mid-run to downgrade/upgrade the output plumbing.
  void apply_output_mode(SafetyMode mode);
  // Applies a governor transition; returns true when the run must stop
  // (Freeze).
  [[nodiscard]] bool apply_governor_action(
      fault::SafetyGovernor::Action action);
  void respond(Nanos epoch_start);
  // The one commit path, for stop-copy epochs and CoW barriers alike:
  // commits (or, when its copy exhausted its retries, fails) an audited
  // epoch whose outputs the buffer holds. Counts the checkpoint or the
  // failure, releases or replicates the outputs (a failure keeps them
  // held), feeds the governor, counts degraded epochs and runs the async
  // deep-scan step. The caller has already committed the disk overlay.
  // Returns false when the run must stop (governor freeze, or an attack
  // surfaced by the async deep scan).
  [[nodiscard]] bool commit_epoch(const EpochResult& epoch,
                                  Nanos epoch_start);
  // Commit barrier for the speculative CoW drain stashed by the previous
  // epoch: completes the drain (overlapped with the epoch that just ran),
  // adds the CoW totals and hands the stashed epoch to commit_epoch(),
  // with the overlapping epoch's unaudited packets set aside meanwhile.
  // Returns commit_epoch()'s verdict.
  [[nodiscard]] bool finish_cow_commit();
  // Async deep-scan extension, after every committed epoch: consumes a
  // finished scan and launches the next one when the cumulative epoch
  // count is due. Returns true when the scan's evidence triggered the
  // attack response.
  [[nodiscard]] bool async_deep_scan_step(Nanos epoch_start);
  // Replication helpers (only called when the replicator exists).
  // replicate_commit ships the committed epoch and moves the buffer's
  // outputs to the pending-release queue; release_acked_outputs releases
  // the acked, lease-covered ones through the buffer.
  void replicate_commit(const EpochResult& epoch);
  void release_acked_outputs();
  void discard_pending_outputs();
  // Promotes the standby after the primary went silent at `onset`. When
  // the primary is dead (a kill, at clock_.now()) this waits out suspicion
  // and lease expiry, discards the in-flight CoW drain and drops the
  // buffer; behind a live primary (split brain) a successful promotion
  // partitions the link and fences the primary, which keeps running. A
  // chain that fails to verify refuses the promotion for good.
  void promote_standby(Nanos onset, bool primary_dead);
  // Observability helpers. observe_epoch feeds the flight recorder, the
  // time-series engine and the SLO monitor at the epoch boundary and
  // charges the (tiny) virtual cost of that work into the pause
  // accounting; dump_postmortem freezes the evidence (ring + series +
  // SLO history + config) on the abnormal paths.
  Nanos observe_epoch(const EpochResult& epoch, Nanos interval);
  // Control-plane step at the epoch boundary (after observe_epoch, so the
  // inputs include this epoch's telemetry sample): records inputs, runs
  // the cycle when due, applies decisions to the actuators, and returns
  // the virtual cost to charge into the pause (PhaseCosts::control).
  Nanos control_epoch(const EpochResult& epoch, Nanos interval);
  void dump_postmortem(std::string_view reason);
  // End-of-run journal verification: fsck when this run() call saw a
  // failure signature, and always when attestation is armed; a failed
  // fsck is itself a postmortem trigger.
  void verify_journal(bool failure_seen);
  // End-of-run storage sweep (DESIGN.md section 15): re-MAC every sealed
  // page and re-verify the attestation chain at the store boundary. Every
  // detection becomes flight-recorder evidence and a postmortem.
  void verify_store_seals();
  void analyze_malware(forensics::ForensicReport& report,
                       const MemoryDump& clean, const MemoryDump& bad,
                       const Finding& finding);
  void analyze_overflow(forensics::ForensicReport& report,
                        const MemoryDump& bad, const Finding& finding);

  Hypervisor* hypervisor_;
  GuestKernel* kernel_;
  CrimesConfig config_;
  const CostModel* costs_;

  SimClock clock_;
  VirtualNic nic_;
  ExternalNetwork network_;
  OutputBuffer buffer_;
  VirtualDisk disk_;
  Detector detector_;
  ExecutionRecorder recorder_;
  std::unique_ptr<VmiSession> vmi_;
  std::unique_ptr<Checkpointer> checkpointer_;
  std::unique_ptr<ReplayEngine> replay_;
  std::unique_ptr<telemetry::Telemetry> telemetry_;

  // The tenant's cumulative summary: every epoch updates it in place, and
  // run() returns it. The pause histogram is snapshotted into it at the
  // end of each run() (recording is two relaxed atomic adds per epoch).
  RunSummary totals_;
  telemetry::Histogram pause_hist_;

  // Control plane (persists across run() slices like the governor: knob
  // positions and hysteresis state must survive CloudHost's one-epoch
  // slices). full_sweep_every_ mirrors the plane's scan-schedule knob so
  // run_audit can consult it without a cross-module call per epoch.
  std::unique_ptr<control::ControlPlane> control_;
  std::size_t full_sweep_every_ = 0;
  bool last_audit_full_sweep_ = false;
  Nanos control_stall_seen_{0};  // replication stall already fed to the plane

  // Observability state (persists across run() slices, like the
  // governor's: CloudHost drives tenants one epoch at a time and the SLO
  // windows must not reset at slice boundaries).
  std::unique_ptr<telemetry::FlightRecorder> flight_;
  std::unique_ptr<telemetry::SloMonitor> slo_;
  std::vector<PostmortemRecord> postmortems_;

  // Resilience state. All of it persists across run() calls: CloudHost
  // drives tenants one epoch-sized run() at a time, and the governor's
  // failure streaks must survive those slice boundaries.
  std::unique_ptr<fault::FaultInjector> injector_;
  std::optional<fault::SafetyGovernor> governor_;
  SafetyMode active_mode_ = SafetyMode::Synchronous;
  std::size_t epoch_index_ = 0;

  // Host-arbiter state (persists across run() slices like the governor's;
  // all inert at defaults -- the no-CloudHost path never reads past them).
  double host_interval_scale_ = 1.0;
  bool host_downgraded_ = false;
  bool host_protection_paused_ = false;
  bool host_kill_pending_ = false;
  std::size_t host_window_cap_ = 0;  // 0 = uncapped
  std::size_t host_gc_cap_ = 0;      // 0 = uncapped
  [[nodiscard]] std::size_t host_capped_window(std::size_t window) const {
    return host_window_cap_ == 0 ? window
                                 : std::min(window, host_window_cap_);
  }
  [[nodiscard]] std::size_t host_capped_gc(std::size_t budget) const {
    return host_gc_cap_ == 0 ? budget : std::min(budget, host_gc_cap_);
  }

  bool promotion_refused_ = false;  // chain veto is final for this standby

  // Replication state (persists across run() slices, like the governor's).
  std::unique_ptr<replication::StandbyHost> standby_;
  std::unique_ptr<replication::Replicator> replicator_;
  replication::Lease lease_{};
  struct PendingRelease {
    std::uint64_t generation = 0;  // the checkpoint covering these outputs
    std::vector<Packet> packets;
  };
  std::deque<PendingRelease> pending_release_;
  bool failed_over_ = false;
  bool primary_killed_ = false;

  // Speculative CoW: everything stashed between the resume-first
  // checkpoint (end of epoch i) and its commit barrier (after epoch i+1
  // executes). `held` is epoch i's Synchronous output set, captured at
  // protect time -- before epoch i+1's packets can mix into the buffer.
  struct CowStash {
    bool active = false;
    EpochResult epoch;
    std::vector<Packet> held;
    Nanos resume_at{0};
    Nanos epoch_start{0};
  };
  CowStash cow_stash_;

  Workload* workload_ = nullptr;
  bool initialized_ = false;
  bool volatility_initialized_ = false;
  std::vector<Finding> last_findings_;
  std::optional<AttackReport> attack_;

  // Async deep-scan extension state.
  struct AsyncScan {
    Nanos ready_at{0};
    std::vector<Finding> findings;
  };
  std::optional<AsyncScan> async_scan_;
  void launch_async_deep_scan();

  // Disk snapshot taken at each committed epoch (Best-Effort mode writes
  // through, so attack response must restore the disk explicitly).
  VirtualDisk::Image disk_checkpoint_;
};

}  // namespace crimes
