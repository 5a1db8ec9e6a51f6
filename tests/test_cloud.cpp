// Tests: the multi-tenant cloud host ("security as a cloud service",
// section 2) -- per-tenant policies, attack isolation, memory accounting.
#include "cloud/cloud_host.h"
#include "detect/canary_scan.h"
#include "detect/malware_scan.h"
#include "workload/malware.h"
#include "workload/parsec.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace crimes {
namespace {

GuestConfig small_guest(OsFlavor flavor = OsFlavor::Linux) {
  GuestConfig gc;
  gc.page_count = 2048;
  gc.task_slab_pages = 4;
  gc.canary_table_pages = 8;
  gc.flavor = flavor;
  return gc;
}

CrimesConfig tenant_crimes(Nanos interval = millis(50)) {
  CrimesConfig config;
  config.checkpoint = CheckpointConfig::full(interval);
  config.record_execution = false;
  return config;
}

ParsecProfile small_profile(double duration_ms = 400.0) {
  ParsecProfile profile = ParsecProfile::by_name("raytrace");
  profile.working_set_pages = 256;
  profile.touches_per_ms = 5.0;
  profile.duration_ms = duration_ms;
  return profile;
}

TEST(CloudHost, RunsMultipleTenantsToCompletion) {
  CloudHost host(1u << 19);
  Tenant& a = host.admit({"tenant-a", small_guest(), tenant_crimes()});
  Tenant& b = host.admit({"tenant-b", small_guest(), tenant_crimes()});
  EXPECT_EQ(host.tenant_count(), 2u);

  ParsecWorkload wa(a.kernel(), small_profile(), 1);
  ParsecWorkload wb(b.kernel(), small_profile(), 2);
  a.set_workload(&wa);
  b.set_workload(&wb);
  host.initialize_all();

  const CloudRunReport report = host.run(millis(400));
  EXPECT_EQ(report.tenants_attacked, 0u);
  EXPECT_EQ(report.epochs_scheduled, 16u);  // 2 tenants x 8 epochs
  EXPECT_TRUE(wa.finished());
  EXPECT_TRUE(wb.finished());
  EXPECT_EQ(a.totals().epochs, 8u);
  EXPECT_EQ(a.totals().checkpoints, 8u);
}

TEST(CloudHost, AttackedTenantIsFrozenOthersUnaffected) {
  CloudHost host(1u << 19);
  Tenant& victim =
      host.admit({"victim", small_guest(OsFlavor::Windows), tenant_crimes()});
  Tenant& bystander =
      host.admit({"bystander", small_guest(), tenant_crimes()});

  victim.crimes().add_module(std::make_unique<MalwareScanModule>(
      MalwareScanModule::default_blacklist()));
  MalwareWorkload evil(victim.kernel(), victim.crimes().nic(), millis(120));
  ParsecWorkload good(bystander.kernel(), small_profile(), 3);
  victim.set_workload(&evil);
  bystander.set_workload(&good);
  host.initialize_all();

  const CloudRunReport report = host.run(millis(400));
  EXPECT_EQ(report.tenants_attacked, 1u);
  ASSERT_EQ(report.attacked_tenants.size(), 1u);
  EXPECT_EQ(report.attacked_tenants[0], "victim");

  EXPECT_TRUE(victim.frozen());
  EXPECT_EQ(victim.kernel().vm().state(), VmState::Paused);
  EXPECT_NE(victim.crimes().attack(), nullptr);

  // The bystander ran to completion, unperturbed.
  EXPECT_FALSE(bystander.frozen());
  EXPECT_TRUE(good.finished());
  EXPECT_EQ(bystander.totals().checkpoints, 8u);
  EXPECT_EQ(bystander.kernel().vm().state(), VmState::Running);
}

TEST(CloudHost, PerTenantPoliciesCoexist) {
  CloudHost host(1u << 19);
  CrimesConfig sync = tenant_crimes(millis(50));
  CrimesConfig best_effort = tenant_crimes(millis(100));
  best_effort.mode = SafetyMode::BestEffort;

  Tenant& a = host.admit({"sync-50ms", small_guest(), sync});
  Tenant& b = host.admit({"be-100ms", small_guest(), best_effort});
  ParsecWorkload wa(a.kernel(), small_profile(), 4);
  ParsecWorkload wb(b.kernel(), small_profile(), 5);
  a.set_workload(&wa);
  b.set_workload(&wb);
  host.initialize_all();
  (void)host.run(millis(400));

  EXPECT_EQ(a.totals().epochs, 8u);   // 400/50
  EXPECT_EQ(b.totals().epochs, 4u);   // 400/100
}

TEST(CloudHost, MemoryReportShowsTheDoublingCost) {
  CloudHost host(1u << 19);
  Tenant& protected_tenant =
      host.admit({"protected", small_guest(), tenant_crimes()});
  CrimesConfig disabled = tenant_crimes();
  disabled.mode = SafetyMode::Disabled;
  Tenant& unprotected = host.admit({"unprotected", small_guest(), disabled});

  ParsecWorkload wa(protected_tenant.kernel(), small_profile(), 6);
  ParsecWorkload wb(unprotected.kernel(), small_profile(), 7);
  protected_tenant.set_workload(&wa);
  unprotected.set_workload(&wb);
  host.initialize_all();
  (void)host.run(millis(200));

  const CloudMemoryReport report = host.memory_report();
  ASSERT_EQ(report.rows.size(), 2u);
  // The protected tenant pays for a backup image ~equal to its touched
  // footprint ("CRIMES doubles the VM's memory cost", section 3.3).
  EXPECT_NEAR(report.rows[0].overhead_factor(), 2.0, 0.1);
  EXPECT_DOUBLE_EQ(report.rows[1].overhead_factor(), 1.0);
  EXPECT_EQ(report.machine_frames_in_use,
            report.rows[0].primary_pages + report.rows[0].backup_pages +
                report.rows[1].primary_pages);
}

TEST(CloudHost, TenantLookupByName) {
  CloudHost host(1u << 19);
  (void)host.admit({"alpha", small_guest(), tenant_crimes()});
  EXPECT_EQ(host.tenant("alpha").name(), "alpha");

  // Non-throwing lookup: a hit returns the tenant, a miss returns null.
  Tenant* hit = host.find_tenant("alpha");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->name(), "alpha");
  EXPECT_EQ(host.find_tenant("missing"), nullptr);

  // The throwing lookup raises the structured error, which carries the
  // looked-up name (no string-parsing what()) and still converts to the
  // legacy std::out_of_range for older catch sites.
  try {
    (void)host.tenant("missing");
    FAIL() << "tenant(missing) did not throw";
  } catch (const TenantNotFoundError& error) {
    EXPECT_EQ(error.name(), "missing");
    EXPECT_NE(std::string(error.what()).find("missing"), std::string::npos);
  }
  EXPECT_THROW((void)host.tenant("missing"), std::out_of_range);
}

TEST(CloudHost, AdmitWithoutHostConfigAlwaysAccepts) {
  // The legacy open-door host: no capacity model, every admit accepted,
  // nothing logged -- the disabled path is exactly the pre-admission host.
  CloudHost host(1u << 19);
  const AdmissionResult result =
      host.admit({"legacy", small_guest(), tenant_crimes()});
  EXPECT_TRUE(result.accepted());
  EXPECT_EQ(result.decision.verdict, AdmissionDecision::Verdict::Accept);
  EXPECT_STREQ(result.decision.reason, "host-admission-disabled");
  EXPECT_TRUE(host.admission_log().empty());
}

// The same tenant (policy, guest, workload seed) run solo through one
// Crimes::run call and as the only tenant of a CloudHost, which drives it
// one epoch per run() call. The workload finishes well inside the budget,
// so both stop at the same epoch.
constexpr Nanos kTwinBudget = millis(2000);

ParsecProfile twin_profile() { return small_profile(600.0); }

RunSummary run_solo(const CrimesConfig& config) {
  Hypervisor hypervisor(1u << 19);
  Vm& vm = hypervisor.create_domain("twin", small_guest().page_count);
  GuestKernel kernel(vm, small_guest());
  kernel.boot();
  Crimes crimes(hypervisor, kernel, config);
  ParsecWorkload load(kernel, twin_profile(), 7);
  crimes.set_workload(&load);
  crimes.initialize();
  return crimes.run(kTwinBudget);
}

RunSummary run_hosted(const CrimesConfig& config) {
  CloudHost host(1u << 19);
  Tenant& tenant = host.admit({"twin", small_guest(), config});
  ParsecWorkload load(tenant.kernel(), twin_profile(), 7);
  tenant.set_workload(&load);
  host.initialize_all();
  (void)host.run(kTwinBudget);
  return tenant.totals();
}

TEST(CloudHost, TenantTotalsEqualTheSoloRun) {
  CrimesConfig storm = tenant_crimes();
  storm.faults = fault::FaultPlan::transport_storm(0.6, 2, 8);
  storm.governor.enabled = true;
  CrimesConfig replicated = tenant_crimes();
  replicated.replication.enabled = true;
  replicated.replication.heartbeat.interval = millis(50);
  replicated.replication.lease_term = millis(200);
  CrimesConfig controlled = tenant_crimes();
  controlled.control.enabled = true;
  CrimesConfig stored = tenant_crimes();
  stored.checkpoint.store.enabled = true;
  CrimesConfig sealed = stored;
  sealed.checkpoint.store.crypto.seal = true;
  sealed.checkpoint.store.crypto.attest = true;
  CrimesConfig sealed_replicated = sealed;
  sealed_replicated.replication = replicated.replication;

  const std::vector<std::pair<const char*, CrimesConfig>> legs{
      {"full", tenant_crimes()},
      {"transport-storm", storm},
      {"replicated", replicated},
      {"control-plane", controlled},
      {"store", stored},
      {"sealed-attested", sealed},
      {"sealed-attested-replicated", sealed_replicated},
  };
  for (const auto& [name, config] : legs) {
    SCOPED_TRACE(name);
    const RunSummary solo = run_solo(config);
    const RunSummary hosted = run_hosted(config);
    EXPECT_GT(solo.epochs, 1u);
    EXPECT_TRUE(hosted == solo) << "epochs " << hosted.epochs << " vs "
                                << solo.epochs << ", roots_verified "
                                << hosted.roots_verified << " vs "
                                << solo.roots_verified;
  }
}

TEST(CloudHost, CowTenantTotalsCarryTheDrain) {
  // A CoW drain still settles at the end of every one-epoch slice, so its
  // totals differ from a solo run's; the drain must still be counted.
  CrimesConfig config = tenant_crimes();
  config.checkpoint = CheckpointConfig::cow(millis(50));
  const RunSummary hosted = run_hosted(config);
  EXPECT_GT(hosted.checkpoints, 1u);
  EXPECT_GT(hosted.cow_drain_time.count(), 0);
}

}  // namespace
}  // namespace crimes
