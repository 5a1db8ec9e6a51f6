// Multi-tenant cloud host: CRIMES as the paper's "security as a cloud
// service" (section 2).
//
// One physical host runs many tenant VMs, each with its own CRIMES
// instance (safety mode, epoch interval and scan modules are per-tenant
// policy). The host schedules tenants round-robin, epoch by epoch, on the
// shared machine; an attacked tenant is frozen and quarantined without
// perturbing its neighbours. The host also does the memory accounting
// behind the paper's "CRIMES doubles the VM's memory cost" statement --
// every protected tenant carries a backup image of equal (touched) size.
//
// With HostConfig::enabled the host additionally runs the overload
// robustness subsystem: admission control (admit() returns a structured
// accept/defer/reject decision instead of silently over-committing), a
// per-round HostArbiter that sheds load in declared priority order under
// pressure, and host-level fault sites (flash crowds, noisy neighbours,
// correlated failovers). Disabled (the default) the host behaves exactly
// as before -- zero cost, byte-identical schedules.
#pragma once

#include "cloud/admission.h"
#include "cloud/host_arbiter.h"
#include "core/crimes.h"

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace crimes {

struct TenantPolicy {
  std::string name;
  GuestConfig guest;
  CrimesConfig crimes;
  // Shedding order under host pressure (HostArbiter): BestEffort absorbs
  // degradation before any Standard tenant, Critical is never shed.
  TenantPriority priority = TenantPriority::Standard;
};

// Structured not-found error for CloudHost::tenant(name): carries the
// looked-up name so callers can report it without string-parsing what().
class TenantNotFoundError : public std::out_of_range {
 public:
  explicit TenantNotFoundError(std::string name)
      : std::out_of_range("CloudHost::tenant: no such tenant " + name),
        name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  std::string name_;
};

class Tenant {
 public:
  Tenant(Hypervisor& hypervisor, TenantPolicy policy);

  [[nodiscard]] const std::string& name() const { return policy_.name; }
  [[nodiscard]] GuestKernel& kernel() { return *kernel_; }
  [[nodiscard]] Crimes& crimes() { return *crimes_; }
  [[nodiscard]] const RunSummary& totals() const { return crimes_->totals(); }
  [[nodiscard]] bool frozen() const { return frozen_; }
  [[nodiscard]] TenantPriority priority() const { return policy_.priority; }

  void set_workload(Workload* workload) {
    workload_ = workload;
    crimes_->set_workload(workload);
  }
  [[nodiscard]] Workload* workload() { return workload_; }

  // Guest pages actually backed by machine frames (primary + backup).
  [[nodiscard]] std::size_t primary_pages_backed() const;
  [[nodiscard]] std::size_t backup_pages_backed() const;

  // Host-observed pause distribution: the tenant's own pause inflated by
  // the round's cross-tenant contention factor (shared copy path). The
  // tenant's RunSummary never sees this -- isolation tests compare
  // RunSummaries byte-for-byte against solo runs. Empty unless the host
  // overload subsystem is enabled.
  [[nodiscard]] telemetry::HistogramSnapshot host_pause() const {
    return host_pause_.snapshot();
  }
  [[nodiscard]] double host_p99_pause_ms() const {
    return static_cast<double>(host_pause_.snapshot().p99()) / 1e6;
  }

 private:
  friend class CloudHost;

  TenantPolicy policy_;
  Vm* vm_;
  std::unique_ptr<GuestKernel> kernel_;
  std::unique_ptr<Crimes> crimes_;
  Workload* workload_ = nullptr;
  bool frozen_ = false;
  telemetry::Histogram host_pause_;  // host-observed (contended) pauses, ns
};

// What CloudHost::admit returns when the overload subsystem is on: the
// structured verdict plus the placed tenant (nullptr on Defer/Reject).
// The implicit Tenant& conversion keeps every existing call site --
// `Tenant& t = host.admit(policy)` -- compiling unchanged; it throws if
// the tenant was not admitted, so a rejection cannot be silently used.
struct AdmissionResult {
  AdmissionDecision decision;
  Tenant* admitted = nullptr;

  [[nodiscard]] bool accepted() const { return admitted != nullptr; }
  // NOLINTNEXTLINE(google-explicit-constructor): drop-in for Tenant&.
  operator Tenant&() const {
    if (admitted == nullptr) {
      throw std::runtime_error(std::string("CloudHost::admit: tenant '") +
                               decision.tenant + "' not admitted: " +
                               decision.reason);
    }
    return *admitted;
  }
};

struct CloudMemoryReport {
  struct Row {
    std::string tenant;
    std::size_t primary_pages = 0;
    std::size_t backup_pages = 0;
    // ~2.0 for protected tenants (the paper's memory-doubling cost).
    [[nodiscard]] double overhead_factor() const {
      return primary_pages == 0
                 ? 1.0
                 : 1.0 + static_cast<double>(backup_pages) /
                             static_cast<double>(primary_pages);
    }
  };
  std::vector<Row> rows;
  std::size_t machine_frames_in_use = 0;
};

struct CloudRunReport {
  std::size_t epochs_scheduled = 0;
  std::size_t tenants_attacked = 0;
  std::vector<std::string> attacked_tenants;
  // Resilience layer: tenants whose SafetyGovernor froze them (checkpoint
  // path lost). Distinct from an attack freeze -- there is no AttackReport,
  // just a tenant that can no longer be protected. Its neighbours keep
  // running: fault isolation is per-tenant.
  std::size_t tenants_fault_frozen = 0;
  std::vector<std::string> fault_frozen_tenants;
  // Replication layer: tenants whose primary host died and whose standby
  // promoted. The tenant drops out of scheduling on this host (its
  // workload now runs on the standby machine); neighbours keep running.
  std::size_t tenants_failed_over = 0;
  std::vector<std::string> failed_over_tenants;
  // Host overload subsystem (all zero when HostConfig::enabled is false).
  std::size_t host_rounds = 0;           // arbiter observations this run
  std::size_t host_decisions = 0;        // shed/recover/trade actions taken
  std::size_t flash_crowd_rounds = 0;    // host fault sites that fired
  std::size_t neighbor_storm_rounds = 0;
  std::size_t correlated_failover_rounds = 0;
};

class CloudHost {
 public:
  explicit CloudHost(std::size_t machine_frames = 1u << 21);  // 8 GiB
  // Overload-robustness host: admission control, the shedding arbiter and
  // the host fault sites all hang off `config` (no-ops unless enabled).
  explicit CloudHost(HostConfig config, std::size_t machine_frames = 1u << 21);

  CloudHost(const CloudHost&) = delete;
  CloudHost& operator=(const CloudHost&) = delete;

  // Admits a tenant; its CRIMES instance is built but not yet initialized
  // (attach the workload and scan modules first). When the overload
  // subsystem is on, the capacity model may Defer or Reject: the result's
  // decision says why, and `admitted` stays null (no VM is built).
  AdmissionResult admit(TenantPolicy policy);

  [[nodiscard]] std::size_t tenant_count() const { return tenants_.size(); }
  // Throws TenantNotFoundError when no tenant has that name.
  [[nodiscard]] Tenant& tenant(const std::string& name);
  // Non-throwing lookup: nullptr when absent.
  [[nodiscard]] Tenant* find_tenant(const std::string& name) noexcept;

  // Initializes every tenant's CRIMES stack (VMI bring-up + initial
  // checkpoint sync).
  void initialize_all();

  // Runs all live tenants round-robin for `work_time` of guest time each.
  // A tenant whose audit fails is frozen (its Crimes::attack() report is
  // available) and drops out of scheduling; everyone else keeps running.
  // With the overload subsystem on, each scheduling round also draws the
  // host fault sites, feeds the arbiter one HostInputs record, and applies
  // its decisions through the tenants' host hooks.
  CloudRunReport run(Nanos work_time);

  [[nodiscard]] CloudMemoryReport memory_report() const;

  // Per-tenant SLO health, one report per tenant whose monitor is on.
  // The provider's dashboard: which tenants are inside their protection
  // contract, which are burning error budget, which have gone Critical.
  [[nodiscard]] std::vector<telemetry::SloReport> slo_reports() const;
  [[nodiscard]] std::string health_table() const;

  // Per-tenant control-plane state: current knob positions, the SLO
  // targets each tenant's policies steer against, and loop statistics.
  // One report per tenant whose CrimesConfig::control is on.
  [[nodiscard]] std::vector<control::ControlReport> control_reports() const;
  [[nodiscard]] std::string control_table() const;

  // Admission dashboard: every decision taken so far (accepts and
  // refusals), newest last, and its operator-facing rendering -- the
  // fourth table next to health_table() and control_table(). Empty when
  // the overload subsystem is off (legacy admits are not logged).
  [[nodiscard]] const std::vector<AdmissionDecision>& admission_log() const {
    return admission_log_;
  }
  [[nodiscard]] std::string admission_table() const {
    return format_admission_table(admission_log_);
  }

  [[nodiscard]] const HostConfig& host_config() const { return host_config_; }
  // The cross-tenant arbiter, or nullptr when the subsystem is off.
  [[nodiscard]] const HostArbiter* arbiter() const { return arbiter_.get(); }

  [[nodiscard]] Hypervisor& hypervisor() { return hypervisor_; }

 private:
  void apply_host_decisions(std::size_t made);

  Hypervisor hypervisor_;
  std::vector<std::unique_ptr<Tenant>> tenants_;

  HostConfig host_config_;
  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<HostArbiter> arbiter_;
  std::unique_ptr<fault::FaultInjector> host_injector_;
  std::vector<AdmissionDecision> admission_log_;
  std::uint64_t round_index_ = 0;  // persists across run() calls
};

}  // namespace crimes
