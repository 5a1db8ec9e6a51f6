// Tests: the observability subsystem -- time-series engine (windowed
// aggregations, tiered downsampling, sliding-window percentiles against a
// brute-force reference), histogram snapshot merge (cross-tenant union
// property), the lock-free flight recorder (ordering, wrap, concurrency,
// no allocation), the SLO monitor's burn-rate state machine and replay
// guarantee, postmortem rendering, and the abnormal-exit exporter flush.
#include "cloud/cloud_host.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/slo.h"
#include "telemetry/timeseries.h"
#include "test_helpers.h"
#include "workload/parsec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

// Defined in test_telemetry.cpp: counts every operator new in the binary.
extern std::atomic<std::uint64_t> g_heap_allocs;

namespace crimes {
namespace {

using telemetry::FlightEvent;
using telemetry::FlightEventKind;
using telemetry::FlightRecorder;
using telemetry::Histogram;
using telemetry::HistogramSeries;
using telemetry::HistogramSnapshot;
using telemetry::MetricsRegistry;
using telemetry::ScalarSeries;
using telemetry::SloConfig;
using telemetry::SloInput;
using telemetry::SloMonitor;
using telemetry::SloState;
using telemetry::TimeSeriesConfig;
using telemetry::TimeSeriesEngine;

// --- Histogram snapshot algebra (cross-tenant merge) ------------------------

TEST(HistogramMerge, MergeEqualsRecomputedUnion) {
  // The property CloudHost::run relies on: merging per-tenant pause
  // histograms must give exactly the histogram a single recorder seeing
  // the union of samples would have produced.
  std::mt19937_64 rng(42);
  Histogram a, b, expected_union;
  std::uniform_int_distribution<std::uint64_t> dist(0, 50'000'000);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t va = dist(rng);
    const std::uint64_t vb = dist(rng);
    a.record(va);
    expected_union.record(va);
    b.record(vb);
    expected_union.record(vb);
  }

  HistogramSnapshot merged = a.snapshot();
  merged.merge_from(b.snapshot());
  const HistogramSnapshot want = expected_union.snapshot();
  EXPECT_EQ(merged.count, want.count);
  EXPECT_EQ(merged.sum, want.sum);
  EXPECT_EQ(merged.max, want.max);
  EXPECT_EQ(merged.buckets, want.buckets);
  EXPECT_EQ(merged.p50(), want.p50());
  EXPECT_EQ(merged.p95(), want.p95());
  EXPECT_EQ(merged.p99(), want.p99());
}

TEST(HistogramMerge, DeltaSinceInvertsMerge) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v * 1000);
  const HistogramSnapshot earlier = h.snapshot();
  for (std::uint64_t v = 1; v <= 50; ++v) h.record(v * 500'000);
  const HistogramSnapshot later = h.snapshot();

  const HistogramSnapshot delta = later.delta_since(earlier);
  EXPECT_EQ(delta.count, 50u);
  EXPECT_EQ(delta.sum, later.sum - earlier.sum);
  // Re-merging the delta onto the earlier snapshot restores the later
  // bucket state exactly.
  HistogramSnapshot restored = earlier;
  restored.merge_from(delta);
  EXPECT_EQ(restored.buckets, later.buckets);
  EXPECT_EQ(restored.count, later.count);
}

TEST(HistogramMerge, CloudHostMergesTenantPauseHistograms) {
  // Integration face of the property: after a multi-tenant run, each
  // tenant's accumulated histogram has one sample per epoch and its
  // percentiles are consistent with the accumulated max.
  CloudHost host(1u << 19);
  GuestConfig gc;
  gc.page_count = 2048;
  gc.task_slab_pages = 4;
  gc.canary_table_pages = 8;
  CrimesConfig cc;
  cc.checkpoint = CheckpointConfig::full(millis(50));
  cc.record_execution = false;
  Tenant& a = host.admit({"tenant-a", gc, cc});
  Tenant& b = host.admit({"tenant-b", gc, cc});

  ParsecProfile profile = ParsecProfile::by_name("raytrace");
  profile.working_set_pages = 256;
  profile.touches_per_ms = 5.0;
  profile.duration_ms = 400.0;
  ParsecWorkload wa(a.kernel(), profile, 1);
  ParsecWorkload wb(b.kernel(), profile, 2);
  a.set_workload(&wa);
  b.set_workload(&wb);
  host.initialize_all();
  (void)host.run(millis(400));

  for (const Tenant* t : {&a, &b}) {
    EXPECT_EQ(t->totals().pause_histogram.count, t->totals().epochs)
        << "the tenant's histogram must count every epoch";
    EXPECT_EQ(t->totals().pause_histogram.max,
              static_cast<std::uint64_t>(t->totals().max_pause.count()));
    EXPECT_LE(t->totals().pause_histogram.p50(),
              t->totals().pause_histogram.p99());
  }
  // Merging the two tenants' histograms equals recomputing the union.
  HistogramSnapshot merged = a.totals().pause_histogram;
  merged.merge_from(b.totals().pause_histogram);
  EXPECT_EQ(merged.count, a.totals().epochs + b.totals().epochs);
  EXPECT_EQ(merged.max, std::max(a.totals().pause_histogram.max,
                                 b.totals().pause_histogram.max));
}

// --- Time-series engine -----------------------------------------------------

TEST(TimeSeries, CounterRateAndEwma) {
  TimeSeriesConfig config;
  ScalarSeries s(ScalarSeries::Kind::Counter, config);
  // A counter climbing 5 per 100 ms epoch = 50/s.
  for (int i = 1; i <= 20; ++i) {
    s.observe(millis(100) * i, 5.0 * i);
  }
  EXPECT_EQ(s.samples_seen(), 20u);
  EXPECT_DOUBLE_EQ(s.last(), 100.0);
  EXPECT_NEAR(s.rate_per_sec(8), 50.0, 1e-9);
  // EWMA of the per-sample increment converges to the increment.
  EXPECT_NEAR(s.ewma(), 5.0, 0.5);
}

TEST(TimeSeries, TieredDownsamplingKeepsEnvelope) {
  TimeSeriesConfig config;
  config.raw_capacity = 16;
  config.fold_every = 4;
  config.tier_capacity = 8;
  config.tiers = 2;
  ScalarSeries s(ScalarSeries::Kind::Gauge, config);
  // 64 samples: raw keeps 16, tier 0 folds every 4, tier 1 every 16.
  for (int i = 0; i < 64; ++i) {
    s.observe(millis(10) * (i + 1), static_cast<double>(i % 7));
  }
  EXPECT_EQ(s.raw().size(), 16u);
  const std::vector<telemetry::AggPoint> t0 = s.tier(0);
  ASSERT_FALSE(t0.empty());
  EXPECT_LE(t0.size(), 8u);
  for (const auto& agg : t0) {
    EXPECT_EQ(agg.count, 4u);
    EXPECT_LE(agg.min, agg.max);
    EXPECT_GE(agg.sum, agg.min * static_cast<double>(agg.count));
    EXPECT_LE(agg.sum, agg.max * static_cast<double>(agg.count));
    EXPECT_LT(agg.start, agg.end);
  }
  const std::vector<telemetry::AggPoint> t1 = s.tier(1);
  ASSERT_FALSE(t1.empty());
  for (const auto& agg : t1) EXPECT_EQ(agg.count, 16u);
  // The envelope never exceeds the raw value range [0, 6].
  for (const auto& agg : t1) {
    EXPECT_GE(agg.min, 0.0);
    EXPECT_LE(agg.max, 6.0);
  }
}

TEST(TimeSeries, SlidingWindowP99MatchesBruteForce) {
  // The acceptance bar: windowed percentiles from cumulative-snapshot
  // deltas must equal the log2-bucket percentile a fresh histogram over
  // exactly the window's samples reports -- computed here by brute force
  // from the raw values -- and stay within the documented factor-of-2 of
  // the true rank statistic.
  std::mt19937_64 rng(7);
  TimeSeriesConfig config;
  config.raw_capacity = 64;
  HistogramSeries series(config);
  Histogram hist;
  std::vector<std::vector<std::uint64_t>> per_epoch;

  std::uniform_int_distribution<int> count_dist(1, 12);
  std::uniform_int_distribution<std::uint64_t> value_dist(1, 80'000'000);
  for (int epoch = 0; epoch < 200; ++epoch) {
    auto& values = per_epoch.emplace_back();
    const int n = count_dist(rng);
    for (int i = 0; i < n; ++i) {
      const std::uint64_t v = value_dist(rng);
      values.push_back(v);
      hist.record(v);
    }
    series.observe(millis(epoch), hist.snapshot());

    for (const std::size_t window : {std::size_t{1}, std::size_t{8},
                                     std::size_t{32}}) {
      // Windows are clamped to retained history: `window` epochs back, or
      // as far as the snapshot ring still reaches. window >= epochs seen
      // means "everything since the beginning".
      const std::size_t epochs_seen = per_epoch.size();
      std::vector<std::uint64_t> union_values;
      if (window >= epochs_seen) {
        for (const auto& vs : per_epoch) {
          union_values.insert(union_values.end(), vs.begin(), vs.end());
        }
      } else {
        const std::size_t back =
            std::min({window, epochs_seen - 1, config.raw_capacity - 1});
        for (std::size_t e = epochs_seen - back; e < epochs_seen; ++e) {
          union_values.insert(union_values.end(), per_epoch[e].begin(),
                              per_epoch[e].end());
        }
      }
      ASSERT_FALSE(union_values.empty());
      std::sort(union_values.begin(), union_values.end());
      for (const double q : {0.5, 0.95, 0.99}) {
        const auto rank = static_cast<std::size_t>(std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(
                   std::ceil(q * static_cast<double>(union_values.size())))));
        const std::uint64_t true_value = union_values[rank - 1];
        const std::uint64_t expected =
            Histogram::bucket_upper_bound(Histogram::bucket_of(true_value));
        const std::uint64_t got = [&] {
          if (q == 0.5) return series.window_p50(window);
          if (q == 0.95) return series.window_p95(window);
          return series.window_p99(window);
        }();
        ASSERT_EQ(got, expected)
            << "epoch " << epoch << " window " << window << " q " << q;
        // Factor-of-2 accuracy vs the true rank statistic.
        ASSERT_LT(got, 2 * true_value + 2);
        ASSERT_GE(got, true_value);
      }
    }
  }
}

TEST(TimeSeries, EngineAdoptsNewMetricsLazily) {
  MetricsRegistry registry;
  TimeSeriesEngine engine(registry, {});
  registry.counter("a.count").add(3);
  engine.sample(millis(1));
  EXPECT_EQ(engine.series_count(), 1u);
  ASSERT_NE(engine.find("a.count"), nullptr);
  EXPECT_EQ(engine.find("a.count")->kind(), ScalarSeries::Kind::Counter);

  registry.gauge("b.level").set(7.5);
  registry.histogram("c.hist").record(1234);
  engine.sample(millis(2));
  EXPECT_EQ(engine.series_count(), 3u);
  EXPECT_EQ(engine.samples_taken(), 2u);
  EXPECT_EQ(engine.last_sample_metrics(), 3u);
  ASSERT_NE(engine.find("b.level"), nullptr);
  EXPECT_DOUBLE_EQ(engine.find("b.level")->last(), 7.5);
  ASSERT_NE(engine.find_histogram("c.hist"), nullptr);
  EXPECT_EQ(engine.find_histogram("c.hist")->latest().count, 1u);
  // The late-arriving series only saw one sample.
  EXPECT_EQ(engine.find("b.level")->samples_seen(), 1u);
}

// --- Flight recorder --------------------------------------------------------

TEST(FlightRecorder, RecordsInOrderAndWraps) {
  FlightRecorder rec(8);
  for (int i = 0; i < 20; ++i) {
    rec.record(millis(i), static_cast<std::uint64_t>(i),
               FlightEventKind::Phase, "epoch", "committed",
               static_cast<double>(i));
  }
  EXPECT_EQ(rec.capacity(), 8u);
  EXPECT_EQ(rec.recorded(), 20u);
  EXPECT_EQ(rec.dropped(), 12u);
  const std::vector<FlightEvent> events = rec.snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].epoch, 12 + i) << "oldest-first, newest retained";
    EXPECT_STREQ(events[i].what, "epoch");
    EXPECT_STREQ(events[i].detail, "committed");
  }
}

TEST(FlightRecorder, TruncatesOversizedStringsSafely) {
  FlightRecorder rec(4);
  const std::string long_what(200, 'w');
  const std::string long_detail(300, 'd');
  rec.record(Nanos{1}, 1, FlightEventKind::Log, long_what, long_detail);
  const std::vector<FlightEvent> events = rec.snapshot();
  ASSERT_EQ(events.size(), 1u);
  // Truncated into the fixed buffers, still NUL-terminated.
  EXPECT_EQ(std::string(events[0].what).size(), sizeof(events[0].what) - 1);
  EXPECT_EQ(std::string(events[0].detail).size(),
            sizeof(events[0].detail) - 1);
}

TEST(FlightRecorderConcurrency, ParallelWritersLoseNothing) {
  FlightRecorder rec(256);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&rec, t] {
      for (int i = 0; i < kPerThread; ++i) {
        rec.record(Nanos{i}, static_cast<std::uint64_t>(i),
                   FlightEventKind::Fault, "writer", "burst",
                   static_cast<double>(t));
      }
    });
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(rec.recorded(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  const std::vector<FlightEvent> events = rec.snapshot();
  ASSERT_EQ(events.size(), rec.capacity());
  for (const FlightEvent& ev : events) {
    // Every retained slot is a complete, untorn record.
    EXPECT_STREQ(ev.what, "writer");
    EXPECT_STREQ(ev.detail, "burst");
    EXPECT_GE(ev.value, 0.0);
    EXPECT_LT(ev.value, static_cast<double>(kThreads));
  }
}

TEST(FlightRecorder, RecordDoesNotAllocate) {
  FlightRecorder rec(64);
  rec.record(Nanos{0}, 0, FlightEventKind::Phase, "warmup");
  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    rec.record(Nanos{i}, static_cast<std::uint64_t>(i),
               FlightEventKind::Governor, "downgrade",
               "Synchronous -> BestEffort", 1.0);
  }
  const std::uint64_t after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(before, after) << "the always-on record path must not allocate";
}

// --- SLO monitor ------------------------------------------------------------

SloConfig tight_config() {
  SloConfig config;
  config.budget.pause_ms = 5.0;
  config.error_budget = 0.25;
  config.fast_window = 4;
  config.slow_window = 8;
  config.warn_burn = 1.0;
  config.critical_burn = 2.0;
  config.clear_after = 2;
  return config;
}

SloInput pause_input(std::uint64_t epoch, double pause_ms) {
  SloInput in;
  in.epoch = epoch;
  in.pause_ms = pause_ms;
  return in;
}

TEST(SloMonitor, HealthyUnderBudget) {
  SloMonitor monitor(tight_config());
  for (std::uint64_t e = 0; e < 50; ++e) {
    EXPECT_EQ(monitor.observe(pause_input(e, 1.0)), SloState::Healthy);
  }
  EXPECT_EQ(monitor.warn_epochs(), 0u);
  EXPECT_EQ(monitor.critical_epochs(), 0u);
  EXPECT_DOUBLE_EQ(monitor.burn_fast(telemetry::SloDimension::Pause), 0.0);
}

TEST(SloMonitor, EscalatesWarnThenCriticalThenRecovers) {
  // fast burn per violation = 1/4/0.25 = 1.0; critical needs fast >= 2
  // (2 violations in the fast window) AND slow >= 2 (4 in the slow).
  SloMonitor monitor(tight_config());
  std::uint64_t e = 0;
  for (; e < 8; ++e) monitor.observe(pause_input(e, 1.0));
  EXPECT_EQ(monitor.state(), SloState::Healthy);

  EXPECT_EQ(monitor.observe(pause_input(e++, 9.0)), SloState::Warn)
      << "one hot epoch in the fast window burns at warn level";
  monitor.observe(pause_input(e++, 9.0));
  monitor.observe(pause_input(e++, 9.0));
  EXPECT_EQ(monitor.observe(pause_input(e++, 9.0)), SloState::Critical)
      << "sustained burn in both windows is critical";

  // Hysteresis: the violations stay in the slow window for 8 epochs, and
  // only clear_after consecutive clean-burn epochs step the state down --
  // Critical holds while the windows still burn, then Critical -> Warn ->
  // Healthy one step per clean streak.
  EXPECT_EQ(monitor.observe(pause_input(e++, 1.0)), SloState::Critical)
      << "fast window still burning";
  EXPECT_EQ(monitor.observe(pause_input(e++, 1.0)), SloState::Critical)
      << "slow window still at critical burn";
  EXPECT_EQ(monitor.observe(pause_input(e++, 1.0)), SloState::Critical)
      << "fast burn at warn level resets the clean streak";
  EXPECT_EQ(monitor.observe(pause_input(e++, 1.0)), SloState::Critical)
      << "first clean epoch; streak 1 < clear_after";
  EXPECT_EQ(monitor.observe(pause_input(e++, 1.0)), SloState::Warn)
      << "streak reached clear_after: step down one level";
  EXPECT_EQ(monitor.observe(pause_input(e++, 1.0)), SloState::Warn);
  EXPECT_EQ(monitor.observe(pause_input(e++, 1.0)), SloState::Healthy)
      << "second clean streak completes the recovery";
  EXPECT_GT(monitor.warn_epochs(), 0u);
  EXPECT_GT(monitor.critical_epochs(), 0u);
}

TEST(SloMonitor, EachDimensionTriggersIndependently) {
  SloConfig config = tight_config();
  SloMonitor monitor(config);
  SloInput in;
  in.replication_lag = config.budget.replication_lag + 1.0;
  EXPECT_EQ(monitor.observe(in), SloState::Warn);
  EXPECT_GT(monitor.burn_fast(telemetry::SloDimension::ReplicationLag), 0.0);
  EXPECT_DOUBLE_EQ(monitor.burn_fast(telemetry::SloDimension::Pause), 0.0);

  SloMonitor monitor2(config);
  SloInput vuln;
  vuln.vulnerability_ms = config.budget.vulnerability_ms + 0.5;
  EXPECT_EQ(monitor2.observe(vuln), SloState::Warn);
  EXPECT_GT(monitor2.burn_fast(telemetry::SloDimension::Vulnerability), 0.0);
}

TEST(SloMonitor, ReplayReproducesLiveVerdictsOnRandomInputs) {
  std::mt19937_64 rng(11);
  SloConfig config = tight_config();
  config.history_capacity = 512;
  SloMonitor monitor(config);
  std::uniform_real_distribution<double> pause(0.0, 10.0);
  std::uniform_real_distribution<double> lag(0.0, 12.0);
  for (std::uint64_t e = 0; e < 400; ++e) {
    SloInput in = pause_input(e, pause(rng));
    in.replication_lag = lag(rng);
    monitor.observe(in);
  }
  const std::vector<SloInput> history = monitor.history();
  ASSERT_EQ(history.size(), 400u);
  const std::vector<SloState> replayed =
      SloMonitor::replay(config, history);
  ASSERT_EQ(replayed.size(), history.size());
  for (std::size_t i = 0; i < history.size(); ++i) {
    ASSERT_EQ(replayed[i], history[i].verdict) << "diverged at " << i;
  }
  EXPECT_EQ(monitor.state(), history.back().verdict);
}

TEST(SloMonitor, HistoryRingKeepsNewestInputs) {
  SloConfig config = tight_config();
  config.history_capacity = 16;
  SloMonitor monitor(config);
  for (std::uint64_t e = 0; e < 40; ++e) {
    monitor.observe(pause_input(e, 1.0));
  }
  const std::vector<SloInput> history = monitor.history();
  ASSERT_EQ(history.size(), 16u);
  EXPECT_EQ(history.front().epoch, 24u);
  EXPECT_EQ(history.back().epoch, 39u);
}

TEST(SloMonitor, ObserveDoesNotAllocate) {
  SloMonitor monitor(tight_config());
  monitor.observe(pause_input(0, 1.0));  // warm-up
  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  for (std::uint64_t e = 1; e <= 1000; ++e) {
    monitor.observe(pause_input(e, e % 3 == 0 ? 9.0 : 1.0));
  }
  const std::uint64_t after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(before, after) << "the always-on observe path must not allocate";
}

TEST(SloMonitor, HealthTableListsTenantsAndStates) {
  SloMonitor hot(tight_config());
  for (std::uint64_t e = 0; e < 8; ++e) hot.observe(pause_input(e, 9.0));
  SloMonitor cool(tight_config());
  for (std::uint64_t e = 0; e < 8; ++e) cool.observe(pause_input(e, 1.0));
  const std::vector<telemetry::SloReport> reports = {
      hot.report("attacked"), cool.report("quiet")};
  const std::string table = telemetry::format_health_table(reports);
  EXPECT_NE(table.find("attacked"), std::string::npos);
  EXPECT_NE(table.find("quiet"), std::string::npos);
  EXPECT_NE(table.find("Critical"), std::string::npos);
  EXPECT_NE(table.find("Healthy"), std::string::npos);
  EXPECT_NE(table.find("pause"), std::string::npos);
}

// --- End-to-end: postmortems, SLO wiring, abnormal-exit flush ---------------

CrimesConfig failover_config() {
  CrimesConfig config;
  config.checkpoint = CheckpointConfig::full(millis(50));
  config.checkpoint.store.enabled = true;
  config.checkpoint.store.journal = true;
  config.record_execution = false;
  config.replication.enabled = true;
  config.replication.heartbeat.interval = millis(50);
  config.faults.scheduled.push_back(
      {.epoch = 6, .kind = fault::FaultKind::PrimaryKill, .module = ""});
  return config;
}

ParsecProfile small_profile() {
  ParsecProfile profile = ParsecProfile::by_name("raytrace");
  profile.working_set_pages = 256;
  profile.touches_per_ms = 5.0;
  profile.duration_ms = 600.0;
  return profile;
}

TEST(Observability, FailoverDumpsReplayablePostmortem) {
  testing::TestGuest guest;
  CrimesConfig config = failover_config();
  config.telemetry = true;
  Crimes crimes(guest.hypervisor, *guest.kernel, config);
  ParsecWorkload app(*guest.kernel, small_profile());
  crimes.set_workload(&app);
  crimes.initialize();
  const RunSummary summary = crimes.run(millis(600));

  EXPECT_TRUE(summary.failed_over);
  EXPECT_EQ(summary.postmortems_dumped, 1u);
  ASSERT_EQ(crimes.postmortems().size(), 1u);
  const Crimes::PostmortemRecord& pm = crimes.postmortems().front();
  EXPECT_EQ(pm.reason, "failover");
  EXPECT_NE(pm.json.find("\"schema\":\"crimes-postmortem-v1\""),
            std::string::npos);
  EXPECT_NE(pm.json.find("\"reason\":\"failover\""), std::string::npos);
  EXPECT_NE(pm.json.find("\"slo\""), std::string::npos);
  EXPECT_NE(pm.json.find("phase.pause_total"), std::string::npos)
      << "the dump embeds the sampled series";

  // The recorded SLO inputs replay to the live verdicts.
  ASSERT_NE(crimes.slo_monitor(), nullptr);
  const std::vector<SloInput> history = crimes.slo_monitor()->history();
  ASSERT_FALSE(history.empty());
  const std::vector<SloState> replayed =
      SloMonitor::replay(crimes.slo_monitor()->config(), history);
  for (std::size_t i = 0; i < history.size(); ++i) {
    EXPECT_EQ(replayed[i], history[i].verdict);
  }

  // The ring saw the failover and the dump trigger.
  ASSERT_NE(crimes.flight_recorder(), nullptr);
  bool saw_failover = false, saw_trigger = false;
  for (const FlightEvent& ev : crimes.flight_recorder()->snapshot()) {
    if (ev.kind == FlightEventKind::Failover) saw_failover = true;
    if (ev.kind == FlightEventKind::Postmortem) saw_trigger = true;
  }
  EXPECT_TRUE(saw_failover);
  EXPECT_TRUE(saw_trigger);
}

TEST(Observability, PostmortemWrittenToDirAndLimitEnforced) {
  testing::TestGuest guest;
  CrimesConfig config = failover_config();
  config.postmortem_dir = ::testing::TempDir();
  config.postmortem_limit = 1;
  Crimes crimes(guest.hypervisor, *guest.kernel, config);
  ParsecWorkload app(*guest.kernel, small_profile());
  crimes.set_workload(&app);
  crimes.initialize();
  (void)crimes.run(millis(600));

  ASSERT_EQ(crimes.postmortems().size(), 1u);
  const std::string path = config.postmortem_dir + "/test-vm-failover-" +
                           std::to_string(crimes.postmortems()[0].epoch) +
                           ".postmortem.json";
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr) << "postmortem file missing: " << path;
  std::fclose(f);
  std::remove(path.c_str());
}

TEST(Observability, DisabledKnobsMeanNoRecorderAndNoMonitor) {
  testing::TestGuest guest;
  CrimesConfig config;
  config.checkpoint = CheckpointConfig::full(millis(50));
  config.record_execution = false;
  config.flight_recorder = false;
  config.slo.enabled = false;
  Crimes crimes(guest.hypervisor, *guest.kernel, config);
  ParsecWorkload app(*guest.kernel, small_profile());
  crimes.set_workload(&app);
  crimes.initialize();
  const RunSummary summary = crimes.run(millis(300));
  EXPECT_EQ(crimes.flight_recorder(), nullptr);
  EXPECT_EQ(crimes.slo_monitor(), nullptr);
  EXPECT_EQ(summary.slo_warn_epochs, 0u);
  EXPECT_EQ(summary.postmortems_dumped, 0u);
  EXPECT_EQ(summary.total_costs.observe, Nanos{0});
}

TEST(Observability, SloSurfacesThroughCloudHostHealthTable) {
  CloudHost host(1u << 19);
  GuestConfig gc;
  gc.page_count = 2048;
  gc.task_slab_pages = 4;
  gc.canary_table_pages = 8;
  CrimesConfig cc;
  cc.checkpoint = CheckpointConfig::full(millis(50));
  cc.record_execution = false;
  // A pause budget this workload violates every epoch: the tenant must
  // show up hot in the provider's dashboard.
  CrimesConfig hot_cc = cc;
  hot_cc.slo.budget.pause_ms = 0.0001;
  Tenant& hot = host.admit({"hot-tenant", gc, hot_cc});
  Tenant& quiet = host.admit({"quiet-tenant", gc, cc});

  ParsecProfile profile = small_profile();
  profile.duration_ms = 400.0;
  ParsecWorkload wh(hot.kernel(), profile, 1);
  ParsecWorkload wq(quiet.kernel(), profile, 2);
  hot.set_workload(&wh);
  quiet.set_workload(&wq);
  host.initialize_all();
  (void)host.run(millis(400));

  EXPECT_GT(hot.totals().slo_warn_epochs + hot.totals().slo_critical_epochs,
            0u);
  EXPECT_EQ(quiet.totals().slo_warn_epochs, 0u);

  const std::vector<telemetry::SloReport> reports = host.slo_reports();
  ASSERT_EQ(reports.size(), 2u);
  const std::string table = host.health_table();
  EXPECT_NE(table.find("hot-tenant"), std::string::npos);
  EXPECT_NE(table.find("quiet-tenant"), std::string::npos);
  EXPECT_NE(table.find("Critical"), std::string::npos);
}

TEST(Observability, AbnormalExitFlushesRegisteredExports) {
  testing::TestGuest guest;
  CrimesConfig config = failover_config();
  config.telemetry = true;
  Crimes crimes(guest.hypervisor, *guest.kernel, config);
  ParsecWorkload app(*guest.kernel, small_profile());
  crimes.set_workload(&app);
  crimes.initialize();

  const std::string trace_path = ::testing::TempDir() + "/abnormal.trace.json";
  const std::string metrics_path =
      ::testing::TempDir() + "/abnormal.metrics.jsonl";
  crimes.telemetry()->set_export_paths(trace_path, metrics_path);

  // The failover dump must have flushed both exporters mid-run -- without
  // any explicit write call from the harness.
  const RunSummary summary = crimes.run(millis(600));
  ASSERT_TRUE(summary.failed_over);
  for (const std::string& path : {trace_path, metrics_path}) {
    std::FILE* f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr) << "abnormal exit did not flush " << path;
    std::fseek(f, 0, SEEK_END);
    EXPECT_GT(std::ftell(f), 0) << path << " is empty";
    std::fclose(f);
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace crimes
