// The incident workload: a sequence of fresh 32 MiB guests, each on its
// own single-tenant CloudHost. Of every three, two are Linux
// OverflowWorkload guests under the canary scan and one is a Windows
// MalwareWorkload guest under the blacklist scan. The malware guests'
// clean epochs do not depend on the seed, so a one-to-one mix would put
// the pause median on them and it would read the same for every seed.
// Each guest runs round by round until its attack is detected; the
// detecting slice carries the whole response (rollback, replay, forensics,
// memory dumps, persist) at the defaults. Only this workload exercises
// replay and forensics.
#include "common.h"
#include "host_probe.h"
#include "instrument.h"

#include "cloud/cloud_host.h"
#include "detect/canary_scan.h"
#include "detect/malware_scan.h"
#include "workload/malware.h"
#include "workload/overflow.h"

#include <cmath>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

namespace {

using crimes::millis;
using crimes::Nanos;

constexpr Nanos kInterval = millis(50);
constexpr std::size_t kGuestPages = 8192;
// Incidents behind every virtual metric (and per set-up): the first ones
// of the sequence, a fixed count so the same seed repeats them exactly.
constexpr std::size_t kWindowIncidents = 24;

struct Plan {
  bool malware = false;
  std::size_t attack_epoch = 0;  // epochs that run clean before it
  Nanos attack_at{0};            // guest work time of the attack
  std::uint64_t app_seed = 0;
  // Heap objects of an overflow guest (each canary-guarded): the seed
  // sizes the canary scan and the benign dirty set, within a band narrow
  // enough that the clean-round wall time barely follows the seed.
  std::size_t objects = 0;
};

// The seed picks each attack's epoch and the offset inside it. Offsets
// follow a golden-ratio sequence from a seeded start, so every run spreads
// its attacks evenly over the epoch and the detection-latency median does
// not hinge on a few draws.
Plan plan_for(std::uint64_t seed, std::size_t index) {
  Plan plan;
  plan.malware = index % 3 == 2;
  // Each kind cycles through epochs 2..5 from a seeded start, so every
  // window holds the same mix of clean slices per kind.
  plan.attack_epoch = 2 + (index / 3 + mix(seed, 498) % 4) % 4;
  const double start = unit_interval(mix(seed, 499));
  const double u = std::fmod(start + 0.6180339887498949 *
                                         static_cast<double>(index),
                             1.0);
  const double offset = 0.05 + 0.9 * u;
  plan.attack_at = Nanos{static_cast<std::int64_t>(
      (static_cast<double>(plan.attack_epoch) + offset) *
      static_cast<double>(kInterval.count()))};
  plan.app_seed = mix(seed, 600 + index);
  plan.objects = 704 + mix(seed, 496) % 129;
  return plan;
}

struct IncidentTotals {
  std::int64_t setup_ns = 0;
  std::vector<double> round_ms;     // clean (pre-detection) rounds
  std::vector<double> traced_round_ms;
  std::vector<double> response_ms;  // detecting rounds
  Nanos guest_work{0};
  std::int64_t wall_ns = 0;         // every round
  std::size_t traced_rounds = 0;
  std::uint64_t frames_in_use = 0;  // largest host footprint seen
  Outcome outcome;
  // Window (virtual) totals.
  Flow flow;
  std::vector<double> vdetect_ms;
  double ops_replayed = 0, events_delivered = 0, replays = 0;
  double replay_vms = 0, forensics_vms = 0, persist_vms = 0, persists = 0;
  double dumps = 0, report_kb = 0;
  std::vector<std::string> misses;
};

class IncidentRunner {
 public:
  IncidentRunner(std::uint64_t seed, SpanRecorder& spans, bool trace)
      : seed_(seed), spans_(&spans), trace_(trace) {}

  // Runs incident `index`; the first kWindowIncidents feed the window.
  void run(std::size_t index, IncidentTotals& totals) {
    const Plan plan = plan_for(seed_, index);
    const bool in_window = index < kWindowIncidents;
    const std::int64_t start = now_ns();
    crimes::CloudHost host(1u << 16);
    crimes::TenantPolicy policy;
    policy.name = "incident-" + std::to_string(index);
    policy.guest.page_count = kGuestPages;
    policy.guest.flavor =
        plan.malware ? crimes::OsFlavor::Windows : crimes::OsFlavor::Linux;
    policy.guest.boot_seed = mix(seed_, 1);
    policy.crimes.checkpoint = crimes::CheckpointConfig::full(kInterval);
    crimes::Tenant& tenant = host.admit(std::move(policy));

    TenantProbe probe;
    std::unique_ptr<crimes::Workload> app;
    crimes::OverflowWorkload* overflow = nullptr;
    crimes::MalwareWorkload* malware = nullptr;
    std::unique_ptr<crimes::ScanModule> module;
    if (plan.malware) {
      auto w = std::make_unique<crimes::MalwareWorkload>(
          tenant.kernel(), tenant.crimes().nic(), plan.attack_at,
          plan.app_seed);
      malware = w.get();
      app = std::move(w);
      module = std::make_unique<crimes::MalwareScanModule>(
          crimes::MalwareScanModule::default_blacklist());
    } else {
      crimes::OverflowScript script;
      script.attack_at = plan.attack_at;
      script.object_count = plan.objects;
      script.object_size = 1024;
      auto w = std::make_unique<crimes::OverflowWorkload>(
          tenant.kernel(), script, plan.app_seed);
      overflow = w.get();
      app = std::move(w);
      module = std::make_unique<crimes::CanaryScanModule>();
    }
    tenant.crimes().add_module(
        std::make_unique<TracedScanModule>(std::move(module), *spans_, probe));
    TracedWorkload traced(*app, tenant.kernel().vm(), *spans_, probe);
    traced.attach(tenant.crimes());
    tenant.set_workload(&traced);
    host.initialize_all();
    if (in_window) totals.setup_ns += now_ns() - start;

    Snapshot last = read_snapshot(tenant, probe, nullptr);
    const Snapshot first = last;
    bool detected = false;
    for (std::size_t r = 0; r < plan.attack_epoch + 3 && !detected; ++r) {
      const SpanRecorder::RoundMode mode =
          SpanRecorder::alternate(trace_, rounds_);
      const bool traced_round = mode == SpanRecorder::RoundMode::Traced;
      spans_->begin_round(static_cast<std::uint32_t>(rounds_), mode);
      const std::int64_t t0 = now_ns();
      const crimes::CloudRunReport report =
          host.run(kInterval * static_cast<std::int64_t>(r + 1));
      const std::int64_t wall = now_ns() - t0;
      spans_->end_round();
      ++rounds_;
      if (traced_round) ++totals.traced_rounds;
      totals.wall_ns += wall;
      const Snapshot now = read_snapshot(tenant, probe, nullptr);
      totals.guest_work += now.work - last.work;
      detected = report.tenants_attacked > 0;
      if (detected) {
        totals.response_ms.push_back(ns_to_ms(wall));
      } else {
        (traced_round ? totals.traced_round_ms : totals.round_ms)
            .push_back(ns_to_ms(wall));
        if (in_window) {
          totals.flow.add_slice(last, now,
                                now.clock - probe.checkpoint_done_at);
        }
        last = now;
      }
    }
    totals.frames_in_use = std::max<std::uint64_t>(
        totals.frames_in_use, host.memory_report().machine_frames_in_use);
    judge(index, plan, tenant, overflow, malware, detected, totals);
    if (in_window) {
      totals.flow.add_tenant(last.clock - first.clock, last.work - first.work);
      record_response(tenant, overflow, malware, totals);
    }
  }

 private:
  static void judge(std::size_t index, const Plan& plan, crimes::Tenant& tenant,
                    const crimes::OverflowWorkload* overflow,
                    const crimes::MalwareWorkload* malware, bool detected,
                    IncidentTotals& totals) {
    totals.outcome.attempt();
    const crimes::AttackReport* attack = tenant.crimes().attack();
    bool pinpointed = false;
    if (detected && attack != nullptr && overflow != nullptr) {
      pinpointed = attack->pinpoint && attack->pinpoint->found &&
                   attack->pinpoint->canary_va == overflow->victim_canary();
    } else if (detected && attack != nullptr && malware != nullptr) {
      bool pid_found = false;
      for (const crimes::Finding& f : attack->findings) {
        pid_found = pid_found || (f.pid && f.pid == malware->malware_pid());
      }
      pinpointed =
          pid_found && attack->forensic_text.find(
                           crimes::MalwareWorkload::kMalwareName) !=
                           std::string::npos;
    }
    if (!pinpointed) {
      totals.outcome.fail();
      totals.misses.push_back(
          "incident " + std::to_string(index) +
          (plan.malware ? " (malware)" : " (overflow)") +
          (detected ? " not pinpointed" : " missed"));
    }
  }

  static void record_response(crimes::Tenant& tenant,
                              const crimes::OverflowWorkload* overflow,
                              const crimes::MalwareWorkload* malware,
                              IncidentTotals& totals) {
    const crimes::AttackReport* attack = tenant.crimes().attack();
    if (attack == nullptr) return;
    const crimes::AttackTimeline& t = attack->timeline;
    const Nanos attack_time =
        overflow != nullptr ? overflow->attack_time() : malware->attack_time();
    totals.vdetect_ms.push_back(vms(t.detected_at - attack_time));
    if (attack->pinpoint) {
      totals.ops_replayed += static_cast<double>(attack->pinpoint->ops_replayed);
      totals.events_delivered +=
          static_cast<double>(attack->pinpoint->events_delivered);
    }
    const bool replayed = t.replay_done_at.count() != 0;
    if (replayed) {
      totals.replays += 1;
      totals.replay_vms += vms(t.replay_done_at - t.detected_at);
    }
    totals.forensics_vms +=
        vms(t.analysis_done_at - (replayed ? t.replay_done_at : t.detected_at));
    if (t.persisted_at.count() != 0) {
      totals.persists += 1;
      totals.persist_vms += vms(t.persisted_at - t.analysis_done_at);
    }
    totals.dumps += static_cast<double>(attack->dumps.size());
    totals.report_kb += static_cast<double>(attack->forensic_text.size()) / 1024;
  }

  std::uint64_t seed_;
  SpanRecorder* spans_;
  bool trace_;
  std::size_t rounds_ = 0;
};

double per(double total, double count) {
  return count == 0 ? 0.0 : total / count;
}

// The window's virtual metrics: v* end-to-end ones first, then the counts
// and virtual times of the per-layer set.
std::vector<Metric> window_metrics(const IncidentTotals& t) {
  std::vector<Metric> out;
  t.flow.end_to_end(out);
  t.flow.per_layer(out);
  const double n = static_cast<double>(kWindowIncidents);
  out.push_back({"vdetect_ms_p50", median(t.vdetect_ms), "ms",
                 "attack to detection, virtual"});
  out.push_back({"replay.ops_replayed", per(t.ops_replayed, t.replays),
                 "count", "per replayed incident"});
  out.push_back({"replay.events_delivered", per(t.events_delivered, t.replays),
                 "count", "per replayed incident"});
  out.push_back({"replay.vms", per(t.replay_vms, t.replays), "ms",
                 "per replayed incident"});
  out.push_back({"forensics.vms", per(t.forensics_vms, n), "ms",
                 "per incident"});
  out.push_back({"persist.vms", per(t.persist_vms, t.persists), "ms",
                 "per persisted incident"});
  out.push_back({"forensics.dumps", per(t.dumps, n), "count", "per incident"});
  out.push_back({"forensics.report_kb", per(t.report_kb, n), "KiB",
                 "per incident"});
  return out;
}

}  // namespace

Report run_incident(const Options& options) {
  SpanRecorder spans;
  Report report;
  constexpr int kSetups = 3;
  std::vector<double> setup_s;
  std::vector<std::vector<Metric>> replays;
  for (int i = 0; i + 1 < kSetups; ++i) {
    IncidentRunner runner(options.seed, spans, false);
    IncidentTotals totals;
    for (std::size_t k = 0; k < kWindowIncidents; ++k) runner.run(k, totals);
    setup_s.push_back(static_cast<double>(totals.setup_ns) / 1e9);
    replays.push_back(window_metrics(totals));
  }
  IncidentRunner runner(options.seed, spans, options.trace);
  IncidentTotals t;
  const std::int64_t start = now_ns();
  for (std::size_t k = 0;; ++k) {
    runner.run(k, t);
    if (k + 1 >= kWindowIncidents &&
        static_cast<double>(now_ns() - start) / 1e9 >= options.seconds) {
      break;
    }
  }
  const double rss_mb = peak_rss_mb();
  setup_s.push_back(static_cast<double>(t.setup_ns) / 1e9);
  const std::vector<Metric> virt = window_metrics(t);
  for (const auto& replay : replays) {
    report.gate(same_values(replay, virt),
                "virtual metrics repeat exactly for the same seed");
  }
  for (const std::string& miss : t.misses) report.gate(false, miss);
  report.outcome = t.outcome;

  std::vector<Metric>& e2e = report.end_to_end;
  e2e.push_back({"setup_s", median(setup_s), "s",
                 "median of 3 set-ups, each summed over " +
                     std::to_string(kWindowIncidents) + " guests"});
  e2e.push_back({"round_ms_p50", median(t.round_ms), "ms",
                 std::to_string(t.round_ms.size()) + " clean rounds"});
  add_tail(e2e, "round_ms_tail", t.round_ms, "ms");
  e2e.push_back({"guest_s_per_s",
                 crimes::to_sec(t.guest_work) /
                     (static_cast<double>(t.wall_ns) / 1e9),
                 "s/s", "guest-seconds protected per wall second"});
  e2e.push_back({"peak_rss_mb", rss_mb, "MiB",
                 "at the end of the timed phase"});
  file_virtual(virt, report);
  report.per_layer.push_back({"response_ms_p50", median(t.response_ms), "ms",
                              std::to_string(t.response_ms.size()) +
                                  " detecting slices"});
  add_tail(report.per_layer, "response_ms_tail", t.response_ms, "ms");
  report.per_layer.push_back({"hypervisor.frames_in_use",
                              static_cast<double>(t.frames_in_use), "count",
                              "largest single-guest host"});
  if (options.trace) {
    span_metrics(spans, t.traced_rounds, all_module_names(), report.per_layer);
    report.per_layer.push_back(
        {"trace.overhead_ms", median(t.traced_round_ms) - median(t.round_ms),
         "ms", "traced minus untraced round_ms_p50"});
    if (!options.trace_out.empty() && !spans.write(options.trace_out)) {
      report.gate(false, "span file written");
    }
  }
  return report;
}

}  // namespace perfbench
