// End-to-end tests of the CRIMES core: detection, zero-window safety,
// rollback+replay pinpointing, and forensic reporting, mirroring the
// paper's two case studies (sections 5.5 and 5.6).
#include "core/crimes.h"
#include "detect/canary_scan.h"
#include "detect/hidden_process_scan.h"
#include "detect/malware_scan.h"
#include "detect/network_content_scan.h"
#include "detect/syscall_integrity_scan.h"
#include "test_helpers.h"
#include "workload/malware.h"
#include "workload/overflow.h"
#include "workload/parsec.h"
#include "workload/web_server.h"
#include "workload/wrk_client.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>

namespace crimes {
namespace {

using testing::TestGuest;

CrimesConfig fast_config(SafetyMode mode = SafetyMode::Synchronous) {
  CrimesConfig config;
  config.checkpoint = CheckpointConfig::full(millis(50));
  config.mode = mode;
  return config;
}

TEST(CrimesE2E, CleanWorkloadRunsToCompletionWithoutFindings) {
  TestGuest guest;
  Crimes crimes(guest.hypervisor, *guest.kernel, fast_config());
  crimes.add_module(std::make_unique<CanaryScanModule>());

  ParsecProfile profile = ParsecProfile::by_name("raytrace");
  profile.working_set_pages = 256;
  profile.touches_per_ms = 4.0;
  profile.duration_ms = 500.0;
  ParsecWorkload app(*guest.kernel, profile);
  crimes.set_workload(&app);
  crimes.initialize();

  const RunSummary summary = crimes.run(millis(1000));
  EXPECT_FALSE(summary.attack_detected);
  EXPECT_EQ(summary.epochs, 10u);  // 500 ms / 50 ms
  EXPECT_EQ(summary.checkpoints, summary.epochs);
  EXPECT_TRUE(app.finished());
  EXPECT_GT(summary.total_pause.count(), 0);
  EXPECT_GE(summary.normalized_runtime(), 1.0);
}

TEST(CrimesE2E, OverflowIsDetectedAtEpochEndAndPinpointed) {
  TestGuest guest;
  Crimes crimes(guest.hypervisor, *guest.kernel, fast_config());
  crimes.add_module(std::make_unique<CanaryScanModule>());

  OverflowScript script;
  script.attack_at = millis(125);  // mid third epoch
  OverflowWorkload app(*guest.kernel, script);
  crimes.set_workload(&app);
  crimes.initialize();

  const RunSummary summary = crimes.run(millis(1000));
  ASSERT_TRUE(summary.attack_detected);
  ASSERT_TRUE(app.attacked());
  // Detected at the end of the epoch containing t=125ms, i.e. epoch 3.
  EXPECT_EQ(summary.epochs, 3u);
  EXPECT_EQ(summary.checkpoints, 2u);  // failed epoch is not committed

  const AttackReport* attack = crimes.attack();
  ASSERT_NE(attack, nullptr);
  ASSERT_FALSE(attack->findings.empty());
  EXPECT_EQ(attack->findings[0].module, "canary-scan");

  // Replay pinpointed the exact instruction.
  ASSERT_TRUE(attack->pinpoint.has_value());
  EXPECT_TRUE(attack->pinpoint->found);
  EXPECT_EQ(attack->pinpoint->instr_index, app.attack_instr().value());
  EXPECT_EQ(attack->pinpoint->canary_va, app.victim_canary());

  // Three snapshots: clean, audit-fail, attack-instant.
  EXPECT_EQ(attack->dumps.size(), 3u);
  EXPECT_FALSE(attack->forensic_text.empty());
  EXPECT_NE(attack->forensic_text.find("canary"), std::string::npos);

  // Timeline is ordered.
  const auto& t = attack->timeline;
  EXPECT_LT(t.epoch_start, t.detected_at);
  EXPECT_LE(t.detected_at, t.replay_done_at);
  EXPECT_LE(t.replay_done_at, t.analysis_done_at);
  EXPECT_LE(t.analysis_done_at, t.persisted_at);
}

TEST(CrimesE2E, SynchronousSafetyDropsPoisonedEpochOutputs) {
  TestGuest guest{[] {
    GuestConfig c = TestGuest::small_config();
    c.flavor = OsFlavor::Windows;
    return c;
  }()};
  Crimes crimes(guest.hypervisor, *guest.kernel, fast_config());
  crimes.add_module(std::make_unique<MalwareScanModule>(
      MalwareScanModule::default_blacklist()));

  MalwareWorkload app(*guest.kernel, crimes.nic(), millis(75));
  crimes.set_workload(&app);
  crimes.initialize();

  const RunSummary summary = crimes.run(millis(1000));
  ASSERT_TRUE(summary.attack_detected);

  // The exfiltration packet was sent during the poisoned epoch; the
  // zero-window guarantee says it never reached the outside world.
  for (const auto& delivered : crimes.network().log()) {
    EXPECT_NE(delivered.packet.kind, PacketKind::Data)
        << "exfiltration packet escaped the output buffer";
  }
  EXPECT_GT(crimes.buffer().total_dropped(), 0u);
}

TEST(CrimesE2E, MalwareForensicReportNamesProcessSocketAndFiles) {
  TestGuest guest{[] {
    GuestConfig c = TestGuest::small_config();
    c.flavor = OsFlavor::Windows;
    return c;
  }()};
  Crimes crimes(guest.hypervisor, *guest.kernel, fast_config());
  crimes.add_module(std::make_unique<MalwareScanModule>(
      MalwareScanModule::default_blacklist()));

  MalwareWorkload app(*guest.kernel, crimes.nic(), millis(60));
  crimes.set_workload(&app);
  crimes.initialize();

  const RunSummary summary = crimes.run(millis(1000));
  ASSERT_TRUE(summary.attack_detected);
  const AttackReport* attack = crimes.attack();
  ASSERT_NE(attack, nullptr);

  // Section 5.6's report contents.
  EXPECT_NE(attack->forensic_text.find("reg_read.exe"), std::string::npos);
  EXPECT_NE(attack->forensic_text.find("104.28.18.89:8080"),
            std::string::npos);
  EXPECT_NE(attack->forensic_text.find("write_file.txt"), std::string::npos);
  EXPECT_NE(attack->forensic_text.find("CLOSE_WAIT"), std::string::npos);
}

TEST(CrimesE2E, BestEffortStillDetectsButOutputsEscape) {
  TestGuest guest{[] {
    GuestConfig c = TestGuest::small_config();
    c.flavor = OsFlavor::Windows;
    return c;
  }()};
  Crimes crimes(guest.hypervisor, *guest.kernel,
                fast_config(SafetyMode::BestEffort));
  crimes.add_module(std::make_unique<MalwareScanModule>(
      MalwareScanModule::default_blacklist()));

  MalwareWorkload app(*guest.kernel, crimes.nic(), millis(75));
  crimes.set_workload(&app);
  crimes.initialize();

  const RunSummary summary = crimes.run(millis(1000));
  ASSERT_TRUE(summary.attack_detected);  // detection cadence is unchanged

  // ...but the exfiltration packet left before the audit (the paper's
  // best-effort trade-off).
  bool data_escaped = false;
  for (const auto& delivered : crimes.network().log()) {
    if (delivered.packet.kind == PacketKind::Data) data_escaped = true;
  }
  EXPECT_TRUE(data_escaped);
}

TEST(CrimesE2E, HiddenProcessIsCaughtByCrossView) {
  TestGuest guest;
  Crimes crimes(guest.hypervisor, *guest.kernel, fast_config());
  crimes.add_module(std::make_unique<HiddenProcessModule>());

  // A workload that hides a process mid-run.
  class RootkitWorkload final : public Workload {
   public:
    RootkitWorkload(GuestKernel& kernel, Nanos attack_at)
        : kernel_(&kernel), attack_at_(attack_at) {}
    [[nodiscard]] std::string name() const override { return "rootkit"; }
    void run_epoch(Nanos, Nanos duration) override {
      elapsed_ += duration;
      if (!done_ && attack_at_ < elapsed_) {
        const Pid pid = kernel_->spawn_process("cryptominer", 0);
        kernel_->attack_hide_process(pid);
        done_ = true;
      }
    }
    GuestKernel* kernel_;
    Nanos attack_at_;
    Nanos elapsed_{0};
    bool done_ = false;
  };

  RootkitWorkload app(*guest.kernel, millis(60));
  crimes.set_workload(&app);
  crimes.initialize();

  const RunSummary summary = crimes.run(millis(500));
  ASSERT_TRUE(summary.attack_detected);
  ASSERT_FALSE(crimes.attack()->findings.empty());
  EXPECT_EQ(crimes.attack()->findings[0].module, "hidden-process");
  EXPECT_NE(crimes.attack()->findings[0].description.find("cryptominer"),
            std::string::npos);
}

TEST(CrimesE2E, SyscallHijackIsCaught) {
  TestGuest guest;
  Crimes crimes(guest.hypervisor, *guest.kernel, fast_config());

  class HijackWorkload final : public Workload {
   public:
    HijackWorkload(GuestKernel& kernel, Nanos attack_at)
        : kernel_(&kernel), attack_at_(attack_at) {}
    [[nodiscard]] std::string name() const override { return "hijack"; }
    void run_epoch(Nanos, Nanos duration) override {
      elapsed_ += duration;
      if (!done_ && attack_at_ < elapsed_) {
        kernel_->attack_hijack_syscall(
            42, kernel_->layout().va_of(kernel_->layout().heap_base));
        done_ = true;
      }
    }
    GuestKernel* kernel_;
    Nanos attack_at_;
    Nanos elapsed_{0};
    bool done_ = false;
  };

  HijackWorkload app(*guest.kernel, millis(110));
  crimes.set_workload(&app);
  crimes.initialize();

  auto module = std::make_unique<SyscallIntegrityModule>();
  module->capture_baseline(crimes.vmi());
  crimes.add_module(std::move(module));

  const RunSummary summary = crimes.run(millis(500));
  ASSERT_TRUE(summary.attack_detected);
  EXPECT_EQ(crimes.attack()->findings[0].module, "syscall-integrity");
  EXPECT_NE(crimes.attack()->findings[0].description.find("42"),
            std::string::npos);
}

TEST(CrimesE2E, NetworkContentModuleBlocksExfilBeforeRelease) {
  TestGuest guest{[] {
    GuestConfig c = TestGuest::small_config();
    c.flavor = OsFlavor::Windows;
    return c;
  }()};
  Crimes crimes(guest.hypervisor, *guest.kernel, fast_config());
  crimes.add_module(std::make_unique<NetworkContentModule>(
      std::vector<std::string>{"REGDUMP"},
      std::vector<std::uint32_t>{make_ipv4(104, 28, 18, 89)}));

  MalwareWorkload app(*guest.kernel, crimes.nic(), millis(75));
  crimes.set_workload(&app);
  crimes.initialize();

  const RunSummary summary = crimes.run(millis(1000));
  ASSERT_TRUE(summary.attack_detected);
  EXPECT_EQ(crimes.attack()->findings[0].module, "net-content");
  EXPECT_EQ(crimes.network().delivered_count(), 0u);
}

TEST(CrimesE2E, DisabledModeIsPureBaseline) {
  TestGuest guest;
  Crimes crimes(guest.hypervisor, *guest.kernel,
                fast_config(SafetyMode::Disabled));

  ParsecProfile profile = ParsecProfile::by_name("raytrace");
  profile.working_set_pages = 128;
  profile.duration_ms = 300.0;
  ParsecWorkload app(*guest.kernel, profile);
  crimes.set_workload(&app);
  crimes.initialize();

  const RunSummary summary = crimes.run(millis(1000));
  EXPECT_FALSE(summary.attack_detected);
  EXPECT_EQ(summary.checkpoints, 0u);
  EXPECT_EQ(summary.total_pause, Nanos::zero());
  EXPECT_DOUBLE_EQ(summary.normalized_runtime(), 1.0);
}

// Every held packet that leaves the host is counted by the OutputBuffer:
// on stop-copy and CoW commits, released at once or after the standby's
// ack alike.
struct ReleaseLeg {
  const char* name;
  bool cow;
  bool replicated;
};

void PrintTo(const ReleaseLeg& leg, std::ostream* os) { *os << leg.name; }

class ReleaseCounters : public ::testing::TestWithParam<ReleaseLeg> {};

TEST_P(ReleaseCounters, CountEveryPacketThatLeavesTheHost) {
  const ReleaseLeg leg = GetParam();
  GuestConfig guest_config;
  guest_config.page_count = 16384;
  TestGuest guest(guest_config);
  CrimesConfig config;
  config.checkpoint = leg.cow ? CheckpointConfig::cow(millis(20))
                              : CheckpointConfig::full(millis(20));
  config.mode = SafetyMode::Synchronous;
  config.record_execution = false;
  config.telemetry = true;
  config.replication.enabled = leg.replicated;
  Crimes crimes(guest.hypervisor, *guest.kernel, config);
  WebServerWorkload server(*guest.kernel, crimes.nic(),
                           WebServerProfile::medium());
  WrkClient client(server, crimes.network(), 16, 8);
  crimes.set_workload(&server);
  crimes.initialize();
  client.start(crimes.clock().now());
  (void)crimes.run(millis(1000));

  const std::uint64_t delivered = crimes.network().delivered_count();
  EXPECT_GT(delivered, 0u);
  EXPECT_EQ(crimes.buffer().total_released(), delivered);
  ASSERT_NE(crimes.telemetry(), nullptr);
  EXPECT_EQ(
      crimes.telemetry()->metrics.counter("net.packets_released").value(),
      delivered);
}

INSTANTIATE_TEST_SUITE_P(
    Commits, ReleaseCounters,
    ::testing::Values(ReleaseLeg{"StopCopy", false, false},
                      ReleaseLeg{"Cow", true, false},
                      ReleaseLeg{"StopCopyReplicated", false, true},
                      ReleaseLeg{"CowReplicated", true, true}),
    [](const ::testing::TestParamInfo<ReleaseLeg>& leg) {
      return std::string(leg.param.name);
    });

}  // namespace
}  // namespace crimes
