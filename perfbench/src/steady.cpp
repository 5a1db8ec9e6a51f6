// The three steady workloads: tenants on one CloudHost, driven round by
// round (one epoch of every live tenant per CloudHost::run call) from a
// single thread, closed loop: the next round starts when the previous one
// returns.
//
//   copy_storm  1 x 1 GiB fluidanimate, full(100ms), canary scan. The
//               paper's testbed and worst-case dirty rate: the dirty-write
//               path, bitmap scan and stop-copy memcpy do nearly all work.
//   vault       4 x 32 MiB light writers, cow(50ms), sealed and attested
//               store (keep_last 8, delta) replicated with window 4. Store,
//               crypto and replication dominate; identical boot images
//               show what a host-global page store could share.
//   web_fleet   8 x 64 MiB nginx-like servers under closed-loop wrk, 20 ms
//               Synchronous epochs, seven scan modules. Small dirty sets,
//               so fixed per-epoch costs (detect, buffering, cloud
//               round-robin) dominate.
#include "common.h"
#include "host_probe.h"
#include "instrument.h"

#include "cloud/cloud_host.h"
#include "detect/canary_scan.h"
#include "detect/hidden_process_scan.h"
#include "detect/idt_integrity_scan.h"
#include "detect/kernel_text_scan.h"
#include "detect/malware_scan.h"
#include "detect/network_content_scan.h"
#include "detect/syscall_integrity_scan.h"
#include "store/checkpoint_store.h"
#include "workload/parsec.h"
#include "workload/web_server.h"
#include "workload/wrk_client.h"

#include <cstring>
#include <numeric>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

namespace {

using crimes::millis;
using crimes::Nanos;

enum class Kind { CopyStorm, Vault, WebFleet };

struct Spec {
  Kind kind;
  std::size_t tenants;
  std::size_t guest_pages;
  Nanos interval;
  std::size_t machine_frames;
  // Rounds behind every virtual metric: the first rounds after warm-up,
  // a fixed count so the same seed repeats them exactly.
  std::size_t window_rounds;
};

// Warm-up runs untimed rounds until the working set is backed on both
// sides and store GC has retired a generation, within these bounds.
constexpr std::size_t kMinWarmup = 10;
constexpr std::size_t kMaxWarmup = 60;

Spec spec_for(Kind kind) {
  switch (kind) {
    case Kind::CopyStorm:
      return {kind, 1, 262144, millis(100), 1u << 20, 40};
    case Kind::Vault:
      return {kind, 4, 8192, millis(50), 1u << 18, 20};
    case Kind::WebFleet:
      break;
  }
  return {kind, 8, 16384, millis(20), 1u << 20, 60};
}

constexpr double kEndless = 1e15;  // ParsecProfile::duration_ms: never ends

crimes::CrimesConfig config_for(Kind kind, std::uint64_t seed,
                                std::size_t tenant) {
  crimes::CrimesConfig cc;
  switch (kind) {
    case Kind::CopyStorm:
      cc.checkpoint = crimes::CheckpointConfig::full(millis(100));
      break;
    case Kind::Vault: {
      cc.checkpoint = crimes::CheckpointConfig::cow(millis(50));
      crimes::store::StoreConfig& store = cc.checkpoint.store;
      store.enabled = true;
      store.retention.keep_last = 8;
      store.delta_compress = true;
      store.crypto.seal = true;
      store.crypto.attest = true;
      store.crypto.tenant_key = mix(seed, 200 + tenant);
      // The journal stays off: its keyed fsck runs every slice over a
      // journal that only grows, so no steady run can arm it yet.
      store.journal = false;
      cc.replication.enabled = true;
      cc.replication.window = 4;
      cc.replication.heartbeat.interval = millis(50);
      break;
    }
    case Kind::WebFleet:
      cc.checkpoint = crimes::CheckpointConfig::full(millis(20));
      break;
  }
  return cc;
}

struct Rig {
  crimes::Tenant* tenant = nullptr;
  std::unique_ptr<crimes::Workload> app;
  std::unique_ptr<crimes::WrkClient> client;
  TenantProbe probe;
  std::unique_ptr<TracedWorkload> traced;
  Snapshot last;          // at the previous round boundary
  Snapshot window_start;
  std::size_t samples_at_window_start = 0;
};

// Everything one instance measures after its set-up.
struct Measured {
  std::vector<Metric> virtual_metrics;  // window: v* and per-layer counts
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  Nanos guest_work{0};
  std::int64_t round_wall_ns = 0;
  std::uint64_t dirty_committed = 0;
  Outcome outcome;
};

std::uint64_t fingerprint(const crimes::Vm& vm) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::size_t i = 0; i < vm.page_count(); ++i) {
    const crimes::Page& page = vm.page(crimes::Pfn{i});
    for (std::size_t off = 0; off < page.data.size(); off += 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, page.data.data() + off, sizeof word);
      h = (h ^ word) * 0x100000001B3ULL;
    }
  }
  return h;
}

class Instance {
 public:
  Instance(const Spec& spec, std::uint64_t seed, SpanRecorder& spans)
      : spec_(spec), spans_(&spans) {
    const std::int64_t start = now_ns();
    host_ = std::make_unique<crimes::CloudHost>(spec.machine_frames);
    const std::uint64_t boot_seed = mix(seed, 1);  // one image for all
    for (std::size_t i = 0; i < spec.tenants; ++i) {
      crimes::TenantPolicy policy;
      policy.name = "tenant-" + std::to_string(i);
      policy.guest.page_count = spec.guest_pages;
      policy.guest.boot_seed = boot_seed;
      policy.crimes = config_for(spec.kind, seed, i);
      crimes::Tenant& tenant = host_->admit(std::move(policy));
      auto rig = std::make_unique<Rig>();
      rig->tenant = &tenant;
      build_tenant(*rig, mix(seed, 100 + i));
      rigs_.push_back(std::move(rig));
      tenants_.push_back(&tenant);
    }
    host_->initialize_all();
    for (auto& rig : rigs_) {
      if (rig->client) rig->client->start(rig->tenant->crimes().clock().now());
      rig->last = snapshot(*rig);
    }
    warm_up();
    setup_ns_ = now_ns() - start;
  }

  [[nodiscard]] double setup_seconds() const {
    return static_cast<double>(setup_ns_) / 1e9;
  }

  // Runs the window rounds, then more rounds until `seconds` of wall time
  // have passed since the first. With `trace`, odd rounds record spans and
  // even rounds run untraced, so one process also measures the tracing
  // overhead.
  Measured measure(double seconds, bool trace) {
    Measured m;
    Flow flow;
    for (auto& rig : rigs_) {
      rig->window_start = rig->last;
      rig->samples_at_window_start =
          rig->client ? rig->client->stats().samples.size() : 0;
    }
    const std::int64_t start = now_ns();
    for (std::size_t r = 0;; ++r) {
      const SpanRecorder::RoundMode mode = SpanRecorder::alternate(trace, r);
      Flow* window = r < spec_.window_rounds ? &flow : nullptr;
      const std::int64_t wall = round(mode, window, m);
      (mode == SpanRecorder::RoundMode::Traced ? m.traced_ms : m.untraced_ms)
          .push_back(ns_to_ms(wall));
      if (r + 1 == spec_.window_rounds) close_window(flow, m);
      if (r + 1 >= spec_.window_rounds &&
          static_cast<double>(now_ns() - start) / 1e9 >= seconds) {
        break;
      }
    }
    return m;
  }

  [[nodiscard]] crimes::CloudHost& host() { return *host_; }
  [[nodiscard]] const std::vector<std::unique_ptr<Rig>>& rigs() const {
    return rigs_;
  }

 private:
  void build_tenant(Rig& rig, std::uint64_t app_seed) {
    crimes::Tenant& tenant = *rig.tenant;
    crimes::GuestKernel& kernel = tenant.kernel();
    std::vector<std::unique_ptr<crimes::ScanModule>> modules;
    modules.push_back(std::make_unique<crimes::CanaryScanModule>());
    switch (spec_.kind) {
      case Kind::CopyStorm: {
        crimes::ParsecProfile profile =
            crimes::ParsecProfile::by_name("fluidanimate");
        profile.duration_ms = kEndless;
        rig.app = std::make_unique<crimes::ParsecWorkload>(kernel, profile,
                                                           app_seed);
        break;
      }
      case Kind::Vault: {
        crimes::ParsecProfile profile =
            crimes::ParsecProfile::by_name("swaptions");
        profile.working_set_pages = 2048;
        profile.touches_per_ms = 25.0;
        profile.duration_ms = kEndless;
        rig.app = std::make_unique<crimes::ParsecWorkload>(kernel, profile,
                                                           app_seed);
        break;
      }
      case Kind::WebFleet: {
        auto server = std::make_unique<crimes::WebServerWorkload>(
            kernel, tenant.crimes().nic(), crimes::WebServerProfile::medium(),
            app_seed);
        rig.client = std::make_unique<crimes::WrkClient>(
            *server, tenant.crimes().network(), 48, 8);
        rig.app = std::move(server);
        add_fleet_modules(tenant, modules);
        break;
      }
    }
    for (auto& module : modules) {
      tenant.crimes().add_module(std::make_unique<TracedScanModule>(
          std::move(module), *spans_, rig.probe));
    }
    rig.traced = std::make_unique<TracedWorkload>(*rig.app, kernel.vm(),
                                                  *spans_, rig.probe);
    rig.traced->attach(tenant.crimes());
    tenant.set_workload(rig.traced.get());
  }

  // The six further modules of web_fleet. The integrity modules take their
  // baselines right after boot, while the guest is trusted.
  void add_fleet_modules(crimes::Tenant& tenant,
                         std::vector<std::unique_ptr<crimes::ScanModule>>& out) {
    crimes::GuestKernel& kernel = tenant.kernel();
    crimes::VmiSession vmi(host_->hypervisor(), kernel.vm().id(),
                           kernel.symbols(), kernel.flavor(),
                           crimes::CostModel::defaults());
    vmi.init();
    vmi.preprocess();
    auto syscall = std::make_unique<crimes::SyscallIntegrityModule>();
    syscall->capture_baseline(vmi);
    auto idt = std::make_unique<crimes::IdtIntegrityModule>();
    idt->capture_baseline(vmi);
    auto text = std::make_unique<crimes::KernelTextIntegrityModule>();
    text->capture_baseline(vmi);
    out.push_back(std::make_unique<crimes::HiddenProcessModule>());
    out.push_back(std::make_unique<crimes::NetworkContentModule>(
        std::vector<std::string>{"REGDUMP"},
        std::vector<std::uint32_t>{crimes::make_ipv4(104, 28, 18, 89)}));
    out.push_back(std::make_unique<crimes::MalwareScanModule>(
        crimes::MalwareScanModule::default_blacklist()));
    out.push_back(std::move(syscall));
    out.push_back(std::move(idt));
    out.push_back(std::move(text));
  }

  Snapshot snapshot(Rig& rig) {
    return read_snapshot(*rig.tenant, rig.probe, rig.client.get());
  }

  [[nodiscard]] bool store_gc_cycled() {
    for (auto& rig : rigs_) {
      crimes::Crimes& c = rig->tenant->crimes();
      const crimes::store::CheckpointStore* store = c.checkpointer().store();
      if (store != nullptr && store->stats().generations_dropped == 0) {
        return false;
      }
    }
    return true;
  }

  void warm_up() {
    Measured scratch;
    const crimes::MachineMemory& machine = host_->hypervisor().machine();
    std::size_t frames = machine.allocated_frames();
    for (std::size_t r = 0; r < kMaxWarmup; ++r) {
      (void)round(SpanRecorder::RoundMode::Off, nullptr, scratch);
      const std::size_t now = machine.allocated_frames();
      const bool growing = now - frames > now / 10000;
      frames = now;
      if (r + 1 >= kMinWarmup && !growing && store_gc_cycled()) break;
    }
  }

  // One round: every live tenant runs one epoch. Returns CloudHost::run's
  // wall time; per-slice differences go to `window` when given and to the
  // outcome and guest-time totals of `m`.
  std::int64_t round(SpanRecorder::RoundMode mode, Flow* window,
                     Measured& m) {
    spans_->begin_round(static_cast<std::uint32_t>(rounds_), mode);
    const std::int64_t start = now_ns();
    (void)host_->run(spec_.interval * static_cast<std::int64_t>(rounds_ + 1));
    const std::int64_t wall = now_ns() - start;
    spans_->end_round();
    ++rounds_;
    m.round_wall_ns += wall;
    for (auto& rig : rigs_) {
      const Snapshot now = snapshot(*rig);
      account_slice(m.outcome, rig->last, now);
      m.guest_work += now.work - rig->last.work;
      m.dirty_committed += now.dirty_committed - rig->last.dirty_committed;
      if (window != nullptr && now.epochs > rig->last.epochs) {
        window->add_slice(rig->last, now,
                          now.clock - rig->probe.checkpoint_done_at);
      }
      rig->last = now;
    }
    return wall;
  }

  void close_window(Flow& flow, Measured& m) {
    std::vector<double> req_ms;
    double req_per_s = 0.0;
    for (auto& rig : rigs_) {
      const Snapshot& now = rig->last;
      flow.add_tenant(now.clock - rig->window_start.clock,
                      now.work - rig->window_start.work);
      if (!rig->client) continue;
      const std::vector<Nanos>& samples = rig->client->stats().samples;
      for (std::size_t i = rig->samples_at_window_start; i < samples.size();
           ++i) {
        req_ms.push_back(vms(samples[i]));
      }
      const double elapsed_s =
          crimes::to_sec(now.clock - rig->window_start.clock);
      if (elapsed_s > 0.0) {
        req_per_s +=
            static_cast<double>(now.requests - rig->window_start.requests) /
            elapsed_s;
      }
    }
    flow.end_to_end(m.virtual_metrics);
    flow.per_layer(m.virtual_metrics);
    read_stocks(*host_, tenants_).per_layer(m.virtual_metrics);
    if (spec_.kind == Kind::WebFleet) {
      m.virtual_metrics.push_back({"req_ms_p50", median(req_ms), "ms", ""});
      add_tail(m.virtual_metrics, "req_ms_tail", req_ms, "ms");
      m.virtual_metrics.push_back({"vreq_per_s", req_per_s, "req/s", ""});
    }
  }

  Spec spec_;
  SpanRecorder* spans_;
  std::unique_ptr<crimes::CloudHost> host_;
  std::vector<std::unique_ptr<Rig>> rigs_;
  std::vector<crimes::Tenant*> tenants_;
  std::size_t rounds_ = 0;
  std::int64_t setup_ns_ = 0;
};

bool store_matches_backup(crimes::CloudHost& host, crimes::Tenant& tenant) {
  crimes::Checkpointer& cp = tenant.crimes().checkpointer();
  const crimes::store::CheckpointStore* store = cp.store();
  if (store == nullptr || store->chain().empty()) return false;
  const crimes::Vm& backup = cp.backup();
  crimes::Vm& scratch = host.hypervisor().create_domain(
      tenant.name() + "-materialized", backup.page_count());
  crimes::ForeignMapping dst = host.hypervisor().map_foreign(scratch.id());
  (void)store->materialize(store->chain().newest().epoch, dst);
  const crimes::Vm& image = scratch;
  bool same = true;
  for (std::size_t i = 0; same && i < backup.page_count(); ++i) {
    same = image.page(crimes::Pfn{i}) == backup.page(crimes::Pfn{i});
  }
  host.hypervisor().destroy_domain(scratch.id());
  return same;
}

// Wall time of the two store sweeps Crimes::run ends every sealed slice
// with, timed by repeating them (both are const) on each tenant after the
// run: the median of five calls, averaged over tenants.
void time_store_audits(Instance& inst, std::vector<Metric>& out) {
  std::vector<double> seal_ms;
  std::vector<double> chain_ms;
  for (const auto& rig : inst.rigs()) {
    const crimes::store::CheckpointStore* store =
        rig->tenant->crimes().checkpointer().store();
    if (store == nullptr || !store->config().crypto.enabled()) continue;
    std::vector<double> seal;
    std::vector<double> chain;
    for (int i = 0; i < 5; ++i) {
      const std::int64_t t0 = now_ns();
      (void)store->audit_seals();
      const std::int64_t t1 = now_ns();
      (void)store->verify_chain();
      seal.push_back(ns_to_ms(t1 - t0));
      chain.push_back(ns_to_ms(now_ns() - t1));
    }
    seal_ms.push_back(median(seal));
    chain_ms.push_back(median(chain));
  }
  const auto mean = [](const std::vector<double>& v) {
    return v.empty() ? 0.0
                     : std::accumulate(v.begin(), v.end(), 0.0) /
                           static_cast<double>(v.size());
  };
  out.push_back({"crypto.seal_audit_ms", mean(seal_ms), "ms",
                 "one audit_seals() per tenant"});
  out.push_back({"crypto.chain_verify_ms", mean(chain_ms), "ms",
                 "one verify_chain() per tenant"});
}

void check_gates(Kind kind, Instance& inst, Report& report) {
  crimes::CloudHost& host = inst.host();
  for (const auto& rig : inst.rigs()) {
    crimes::Tenant& tenant = *rig->tenant;
    crimes::Crimes& c = tenant.crimes();
    const std::string& name = tenant.name();
    report.gate(!tenant.frozen(), name + " stays live");
    switch (kind) {
      case Kind::CopyStorm:
        report.gate(fingerprint(c.checkpointer().backup()) ==
                        fingerprint(tenant.kernel().vm()),
                    name + " backup fingerprint equals primary");
        break;
      case Kind::Vault:
        report.gate(store_matches_backup(host, tenant),
                    name + " materialize(newest) equals the backup");
        report.gate(rig->last.tampers == 0, name + " detects no tamper");
        report.gate(rig->last.roots_verified > 0,
                    name + " verifies attestation roots");
        report.gate(rig->last.repl_dropped == 0,
                    name + " drops no replicated generation");
        break;
      case Kind::WebFleet:
        report.gate(rig->last.requests > 0, name + " completes requests");
        report.gate(c.buffer().total_dropped() == 0,
                    name + " drops no buffered output");
        break;
    }
  }
}

Report run_steady(Kind kind, const Options& options) {
  const Spec spec = spec_for(kind);
  SpanRecorder spans;
  Report report;
  // Three set-ups per run: setup_s is their median, and the first two
  // replay the measurement window to prove the virtual metrics repeat.
  constexpr int kSetups = 3;
  std::vector<double> setup_s;
  std::vector<std::vector<Metric>> replays;
  for (int i = 0; i + 1 < kSetups; ++i) {
    Instance replay(spec, options.seed, spans);
    setup_s.push_back(replay.setup_seconds());
    replays.push_back(replay.measure(0.0, false).virtual_metrics);
  }
  Instance inst(spec, options.seed, spans);
  setup_s.push_back(inst.setup_seconds());
  const Measured m = inst.measure(options.seconds, options.trace);
  const double rss_mb = peak_rss_mb();  // before the gates' scratch domains
  check_gates(kind, inst, report);
  for (const auto& replay : replays) {
    report.gate(same_values(replay, m.virtual_metrics),
                "virtual metrics repeat exactly for the same seed");
  }
  report.gate(m.outcome.failed() == 0, "no failed tenant-epochs");
  report.outcome = m.outcome;

  const std::vector<double>& rounds = m.untraced_ms;
  std::vector<Metric>& e2e = report.end_to_end;
  e2e.push_back({"setup_s", median(setup_s), "s", "median of 3 set-ups"});
  e2e.push_back({"round_ms_p50", median(rounds), "ms",
                 std::to_string(rounds.size()) + " rounds"});
  add_tail(e2e, "round_ms_tail", rounds, "ms");
  const double wall_s = static_cast<double>(m.round_wall_ns) / 1e9;
  e2e.push_back({"guest_s_per_s", crimes::to_sec(m.guest_work) / wall_s,
                 "s/s", "guest-seconds protected per wall second"});
  e2e.push_back({"peak_rss_mb", rss_mb, "MiB",
                 "at the end of the timed phase"});
  file_virtual(m.virtual_metrics, report);
  if (options.trace) {
    span_metrics(spans, m.traced_ms.size(), all_module_names(),
                 report.per_layer);
    report.per_layer.push_back(
        {"trace.overhead_ms", median(m.traced_ms) - median(m.untraced_ms),
         "ms", "traced minus untraced round_ms_p50"});
    report.per_layer.push_back(
        {"checkpoint.dirty_mb_per_s",
         static_cast<double>(m.dirty_committed) * crimes::kPageSize /
             (1 << 20) / wall_s,
         "MiB/s", "committed dirty bytes per wall second"});
    time_store_audits(inst, report.per_layer);
    if (!options.trace_out.empty() && !spans.write(options.trace_out)) {
      report.gate(false, "span file written");
    }
  }
  return report;
}

}  // namespace

Report run_copy_storm(const Options& options) {
  return run_steady(Kind::CopyStorm, options);
}
Report run_vault(const Options& options) {
  return run_steady(Kind::Vault, options);
}
Report run_web_fleet(const Options& options) {
  return run_steady(Kind::WebFleet, options);
}

}  // namespace perfbench
