// Tests: Crimes API contracts, misuse errors, and accounting details not
// covered by the end-to-end scenarios.
#include "core/crimes.h"
#include "detect/canary_scan.h"
#include "test_helpers.h"
#include "workload/overflow.h"
#include "workload/parsec.h"

#include <gtest/gtest.h>

namespace crimes {
namespace {

using testing::TestGuest;

TEST(CrimesApi, LifecycleMisuseIsRejected) {
  TestGuest guest;
  CrimesConfig config;
  config.checkpoint = CheckpointConfig::full(millis(50));
  Crimes crimes(guest.hypervisor, *guest.kernel, config);

  EXPECT_THROW((void)crimes.vmi(), std::logic_error);       // not initialized
  EXPECT_THROW((void)crimes.run(millis(100)), std::logic_error);
  crimes.initialize();
  EXPECT_THROW(crimes.initialize(), std::logic_error);      // double init
  EXPECT_THROW((void)crimes.run(millis(100)), std::logic_error);  // no workload
}

TEST(CrimesApi, DisabledModeHasNoCheckpointer) {
  TestGuest guest;
  CrimesConfig config;
  config.mode = SafetyMode::Disabled;
  Crimes crimes(guest.hypervisor, *guest.kernel, config);
  crimes.initialize();
  EXPECT_THROW((void)crimes.checkpointer(), std::logic_error);
}

TEST(CrimesApi, SafetyModeNames) {
  EXPECT_STREQ(to_string(SafetyMode::Synchronous), "Synchronous");
  EXPECT_STREQ(to_string(SafetyMode::BestEffort), "BestEffort");
  EXPECT_STREQ(to_string(SafetyMode::Disabled), "Disabled");
}

TEST(CrimesApi, SchemeLabels) {
  EXPECT_STREQ(CheckpointConfig::full().label(), "Full");
  EXPECT_STREQ(CheckpointConfig::premap().label(), "Pre-map");
  EXPECT_STREQ(CheckpointConfig::memcpy_only().label(), "Memcpy");
  EXPECT_STREQ(CheckpointConfig::no_opt().label(), "No-opt");
}

TEST(CrimesApi, AvgCostsAreTotalsOverCheckpoints) {
  RunSummary summary;
  summary.checkpoints = 4;
  summary.total_costs.suspend = millis(4);
  summary.total_costs.copy = millis(8);
  summary.total_costs.dirty_pages = 400;
  const PhaseCosts avg = summary.avg_costs();
  EXPECT_EQ(avg.suspend, millis(1));
  EXPECT_EQ(avg.copy, millis(2));
  EXPECT_EQ(avg.dirty_pages, 100u);

  RunSummary empty;
  EXPECT_EQ(empty.avg_costs().suspend, Nanos::zero());
  EXPECT_DOUBLE_EQ(empty.avg_pause_ms(), 0.0);
  EXPECT_DOUBLE_EQ(empty.avg_dirty_pages(), 0.0);
}

TEST(CrimesApi, RunCanBeResumedAcrossCalls) {
  // CloudHost relies on run() being callable repeatedly in epoch slices;
  // each call adds one epoch to the cumulative totals it returns.
  TestGuest guest;
  CrimesConfig config;
  config.checkpoint = CheckpointConfig::full(millis(50));
  config.record_execution = false;
  Crimes crimes(guest.hypervisor, *guest.kernel, config);
  ParsecProfile profile = ParsecProfile::by_name("raytrace");
  profile.working_set_pages = 128;
  profile.duration_ms = 200.0;
  ParsecWorkload app(*guest.kernel, profile);
  crimes.set_workload(&app);
  crimes.initialize();

  std::size_t calls = 0;
  while (!app.finished()) {
    ++calls;
    EXPECT_EQ(crimes.run(millis(50)).epochs, calls);
  }
  EXPECT_EQ(calls, 4u);
  EXPECT_EQ(crimes.totals().work_time, millis(200));
  EXPECT_TRUE(app.finished());
}

TEST(CrimesApi, ReportIncludesTimelineAndReplaySections) {
  TestGuest guest;
  CrimesConfig config;
  config.checkpoint = CheckpointConfig::full(millis(50));
  Crimes crimes(guest.hypervisor, *guest.kernel, config);
  crimes.add_module(std::make_unique<CanaryScanModule>());
  OverflowScript script;
  script.attack_at = millis(60);
  OverflowWorkload app(*guest.kernel, script);
  crimes.set_workload(&app);
  crimes.initialize();
  const RunSummary summary = crimes.run(millis(500));
  ASSERT_TRUE(summary.attack_detected);
  const std::string& text = crimes.attack()->forensic_text;
  EXPECT_NE(text.find("== timeline =="), std::string::npos);
  EXPECT_NE(text.find("== Replay pinpoint =="), std::string::npos);
  EXPECT_NE(text.find("== psxview =="), std::string::npos);
}

TEST(CrimesApi, BufferNotUsedInBestEffortMode) {
  TestGuest guest;
  CrimesConfig config;
  config.checkpoint = CheckpointConfig::full(millis(50));
  config.mode = SafetyMode::BestEffort;
  Crimes crimes(guest.hypervisor, *guest.kernel, config);
  crimes.initialize();
  crimes.nic().send(Packet{.kind = PacketKind::Data, .payload = "x"},
                    millis(1));
  EXPECT_EQ(crimes.buffer().pending_count(), 0u);
  EXPECT_EQ(crimes.network().delivered_count(), 1u);
}

TEST(CrimesApi, SynchronousBufferHoldsUntilEpochCommit) {
  TestGuest guest;
  CrimesConfig config;
  config.checkpoint = CheckpointConfig::full(millis(50));
  Crimes crimes(guest.hypervisor, *guest.kernel, config);
  crimes.initialize();
  crimes.nic().send(Packet{.kind = PacketKind::Data, .payload = "x"},
                    millis(1));
  EXPECT_EQ(crimes.buffer().pending_count(), 1u);
  EXPECT_EQ(crimes.network().delivered_count(), 0u);
}

TEST(CrimesApi, StartupCostsAreOnTheClock) {
  TestGuest guest;
  CrimesConfig config;
  config.checkpoint = CheckpointConfig::full(millis(50));
  Crimes crimes(guest.hypervisor, *guest.kernel, config);
  EXPECT_EQ(crimes.clock().now(), Nanos::zero());
  crimes.initialize();
  // VMI init (~66.5 ms) + preprocess (~54 ms) + checkpoint initial sync.
  EXPECT_GT(crimes.clock().now(), millis(120));
  EXPECT_LT(crimes.clock().now(), millis(200));
}

}  // namespace
}  // namespace crimes
