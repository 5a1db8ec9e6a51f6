// Reads a tenant's layers through their public accessors between rounds
// and folds the per-slice differences into window totals, from which the
// virtual (`v*`) and per-layer count metrics are computed. Nothing here is
// timed: every value is virtual time or a count, so a given seed repeats
// it exactly.
#pragma once

#include "common.h"
#include "instrument.h"

#include "cloud/cloud_host.h"
#include "workload/wrk_client.h"

#include <cstdint>
#include <vector>

namespace perfbench {

// Cumulative counters of one tenant at a round boundary.
struct Snapshot {
  crimes::Nanos clock{0};
  crimes::Nanos work{0};
  crimes::Nanos pause{0};
  crimes::Nanos store{0};
  crimes::Nanos repl_stall{0};
  crimes::PhaseCosts costs;
  std::uint64_t epochs = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t dirty_committed = 0;
  std::uint64_t tampers = 0;
  std::uint64_t repl_dropped = 0;
  std::uint64_t roots_verified = 0;
  std::uint64_t generations_sent = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t vmi_cached = 0;
  std::uint64_t vmi_cold = 0;
  std::uint64_t pages_sealed = 0;
  std::uint64_t requests = 0;
  std::uint64_t probe_dirty = 0;
  std::uint64_t first_touches = 0;
  std::uint64_t findings = 0;
  std::uint64_t postmortems = 0;
};

[[nodiscard]] Snapshot read_snapshot(crimes::Tenant& tenant,
                                     const TenantProbe& probe,
                                     const crimes::WrkClient* client);

// One tenant-epoch of a clean workload: an attempt that fails unless it
// committed a checkpoint, with every tamper, replication drop, finding and
// postmortem between the snapshots counted as a further violation.
void account_slice(Outcome& outcome, const Snapshot& before,
                   const Snapshot& after);

// Sums of per-slice differences over a measurement window.
class Flow {
 public:
  // Adds one tenant's slice (the difference between two snapshots) and the
  // slice's tail: virtual time from the checkpoint's return to the slice
  // end.
  void add_slice(const Snapshot& before, const Snapshot& after,
                 crimes::Nanos tail);
  // Closes one tenant's share of the window: its virtual clock elapsed and
  // guest work time feed vslowdown (averaged over tenants).
  void add_tenant(crimes::Nanos elapsed, crimes::Nanos work);

  // vpause_ms_p50, vpause_ms_tail, vslowdown.
  void end_to_end(std::vector<Metric>& out) const;
  // checkpoint.v*_ms, cow.first_touch_ratio, core.vtail_ms, store.vstore_ms,
  // crypto.*, replication flow counters, net.requests_completed,
  // telemetry.vobserve_ms, workload.dirty_pages, detect.findings,
  // vmi.cache_hit_ratio.
  void per_layer(std::vector<Metric>& out) const;

 private:
  Snapshot sum_;
  crimes::Nanos tail_{0};
  std::vector<double> pause_ms_;
  std::vector<double> slowdown_;
};

// Stocks of a host's layers at one instant: store occupancy and sharing,
// replication window high-water mark, machine frames, buffer drops.
struct HostStocks {
  std::uint64_t pages_unique = 0;
  std::uint64_t bytes_physical = 0;
  std::uint64_t bytes_logical = 0;
  double cross_tenant_shared_frac = 0.0;
  std::uint64_t max_in_flight = 0;
  std::uint64_t frames_in_use = 0;
  std::uint64_t packets_dropped = 0;

  void per_layer(std::vector<Metric>& out) const;
};

[[nodiscard]] HostStocks read_stocks(crimes::CloudHost& host,
                                     const std::vector<crimes::Tenant*>& tenants);

// Wall-time per-layer metrics from the traced rounds' spans, per round:
// cloud.round_self_ms, core.pipeline_ms, workload.run_ms, detect.scan_ms
// and detect.<module>.scan_ms for every module `module_names` lists.
void span_metrics(const SpanRecorder& spans, std::size_t traced_rounds,
                  const std::vector<std::string>& module_names,
                  std::vector<Metric>& out);

// The scan modules any workload installs, by ScanModule::name().
[[nodiscard]] const std::vector<std::string>& all_module_names();

}  // namespace perfbench
