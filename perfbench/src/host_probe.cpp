#include "host_probe.h"

#include "checkpoint/transport.h"
#include "store/checkpoint_store.h"

#include <map>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

namespace perfbench {

namespace {

std::uint64_t wire_bytes(const crimes::Transport& transport) {
  if (const auto* socket =
          dynamic_cast<const crimes::SocketTransport*>(&transport)) {
    return socket->bytes_streamed();
  }
  if (const auto* compressed =
          dynamic_cast<const crimes::CompressedSocketTransport*>(
              &transport)) {
    return compressed->wire_bytes();
  }
  return 0;
}

void add_costs(crimes::PhaseCosts& into, const crimes::PhaseCosts& after,
               const crimes::PhaseCosts& before) {
  into.suspend += after.suspend - before.suspend;
  into.vmi += after.vmi - before.vmi;
  into.bitscan += after.bitscan - before.bitscan;
  into.map += after.map - before.map;
  into.copy += after.copy - before.copy;
  into.protect += after.protect - before.protect;
  into.resume += after.resume - before.resume;
  into.observe += after.observe - before.observe;
  into.control += after.control - before.control;
}

double per(double total, std::uint64_t count) {
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

}  // namespace

Snapshot read_snapshot(crimes::Tenant& tenant, const TenantProbe& probe,
                       const crimes::WrkClient* client) {
  crimes::Crimes& c = tenant.crimes();
  const crimes::RunSummary& t = tenant.totals();
  Snapshot s;
  s.clock = c.clock().now();
  s.work = t.work_time;
  s.pause = t.total_pause;
  s.store = t.store_time;
  s.repl_stall = t.replication_stall;
  s.costs = t.total_costs;
  s.epochs = t.epochs;
  s.checkpoints = t.checkpoints;
  s.dirty_committed = t.total_dirty_pages;
  s.repl_dropped = t.replication_dropped;
  // CloudHost folds slices into totals() without the attestation counters,
  // so those come from the replicator and the store directly.
  if (const crimes::replication::Replicator* rep = c.replicator()) {
    s.tampers += rep->tampers_detected();
    s.roots_verified = rep->roots_verified();
    s.generations_sent = rep->generations_sent();
    s.wire_bytes = wire_bytes(rep->transport());
  }
  if (c.config().mode != crimes::SafetyMode::Disabled) {
    if (const crimes::store::CheckpointStore* store =
            c.checkpointer().store()) {
      const crimes::store::StoreStats stats = store->stats();
      s.pages_sealed = stats.pages_sealed;
      s.tampers += stats.seal_failures;
    }
  }
  s.vmi_cached = c.vmi().cached_translations();
  s.vmi_cold = c.vmi().cold_translations();
  s.requests = client != nullptr ? client->stats().completed_requests : 0;
  s.probe_dirty = probe.dirty_pages;
  s.first_touches = probe.cow_first_touches;
  s.findings = probe.findings;
  s.postmortems = c.postmortems().size();
  return s;
}

void account_slice(Outcome& outcome, const Snapshot& before,
                   const Snapshot& after) {
  outcome.attempt();
  if (after.checkpoints == before.checkpoints) outcome.fail();
  outcome.fail((after.tampers - before.tampers) +
               (after.repl_dropped - before.repl_dropped) +
               (after.findings - before.findings) +
               (after.postmortems - before.postmortems));
}

void Flow::add_slice(const Snapshot& before, const Snapshot& after,
                     crimes::Nanos tail) {
  Snapshot& s = sum_;
  s.clock += after.clock - before.clock;
  s.work += after.work - before.work;
  s.pause += after.pause - before.pause;
  s.store += after.store - before.store;
  s.repl_stall += after.repl_stall - before.repl_stall;
  add_costs(s.costs, after.costs, before.costs);
  s.epochs += after.epochs - before.epochs;
  s.checkpoints += after.checkpoints - before.checkpoints;
  s.dirty_committed += after.dirty_committed - before.dirty_committed;
  s.tampers += after.tampers - before.tampers;
  s.repl_dropped += after.repl_dropped - before.repl_dropped;
  s.roots_verified += after.roots_verified - before.roots_verified;
  s.generations_sent += after.generations_sent - before.generations_sent;
  s.wire_bytes += after.wire_bytes - before.wire_bytes;
  s.vmi_cached += after.vmi_cached - before.vmi_cached;
  s.vmi_cold += after.vmi_cold - before.vmi_cold;
  s.pages_sealed += after.pages_sealed - before.pages_sealed;
  s.requests += after.requests - before.requests;
  s.probe_dirty += after.probe_dirty - before.probe_dirty;
  s.first_touches += after.first_touches - before.first_touches;
  s.findings += after.findings - before.findings;
  tail_ += tail;
  pause_ms_.push_back(vms(after.pause - before.pause));
}

void Flow::add_tenant(crimes::Nanos elapsed, crimes::Nanos work) {
  if (work.count() > 0) slowdown_.push_back(vms(elapsed) / vms(work));
}

void Flow::end_to_end(std::vector<Metric>& out) const {
  out.push_back({"vpause_ms_p50", median(pause_ms_), "ms", ""});
  add_tail(out, "vpause_ms_tail", pause_ms_, "ms");
  const double slowdown =
      slowdown_.empty()
          ? 0.0
          : std::accumulate(slowdown_.begin(), slowdown_.end(), 0.0) /
                static_cast<double>(slowdown_.size());
  out.push_back({"vslowdown", slowdown, "ratio", ""});
}

void Flow::per_layer(std::vector<Metric>& out) const {
  const Snapshot& s = sum_;
  const std::uint64_t n = s.epochs;
  const auto ms = [&](const char* name, crimes::Nanos total) {
    out.push_back({name, per(vms(total), n), "ms", "per epoch"});
  };
  const auto count = [&](const char* name, std::uint64_t total) {
    out.push_back({name, per(static_cast<double>(total), n), "1/epoch", ""});
  };
  ms("checkpoint.vsuspend_ms", s.costs.suspend);
  ms("checkpoint.vbitscan_ms", s.costs.bitscan);
  ms("checkpoint.vvmi_ms", s.costs.vmi);
  ms("checkpoint.vmap_ms", s.costs.map);
  ms("checkpoint.vcopy_ms", s.costs.copy);
  ms("checkpoint.vprotect_ms", s.costs.protect);
  ms("checkpoint.vresume_ms", s.costs.resume);
  out.push_back({"cow.first_touch_ratio",
                 per(static_cast<double>(s.first_touches), s.probe_dirty),
                 "ratio", "first touches / dirty pages"});
  ms("core.vtail_ms", tail_);
  ms("store.vstore_ms", s.store);
  count("crypto.pages_sealed", s.pages_sealed);
  count("crypto.roots_verified", s.roots_verified);
  count("replication.generations_sent", s.generations_sent);
  ms("replication.vstall_ms", s.repl_stall);
  out.push_back({"replication.wire_mb",
                 per(static_cast<double>(s.wire_bytes) / (1 << 20), n),
                 "MiB/epoch", ""});
  count("net.requests_completed", s.requests);
  ms("telemetry.vobserve_ms", s.costs.observe);
  count("workload.dirty_pages", s.probe_dirty);
  count("detect.findings", s.findings);
  out.push_back({"vmi.cache_hit_ratio",
                 per(static_cast<double>(s.vmi_cached),
                     s.vmi_cached + s.vmi_cold),
                 "ratio", "cached / (cached + cold) translations"});
}

void HostStocks::per_layer(std::vector<Metric>& out) const {
  out.push_back({"store.pages_unique", static_cast<double>(pages_unique),
                 "count", "summed over tenants"});
  out.push_back({"store.bytes_physical_mb",
                 static_cast<double>(bytes_physical) / (1 << 20), "MiB", ""});
  out.push_back({"store.dedup_ratio",
                 per(static_cast<double>(bytes_logical), bytes_physical),
                 "ratio", "logical / physical bytes"});
  out.push_back({"store.cross_tenant_shared_frac", cross_tenant_shared_frac,
                 "ratio", "digests held by >= 2 tenants"});
  out.push_back({"replication.max_in_flight",
                 static_cast<double>(max_in_flight), "count", ""});
  out.push_back({"hypervisor.frames_in_use",
                 static_cast<double>(frames_in_use), "count", ""});
  out.push_back({"net.packets_dropped", static_cast<double>(packets_dropped),
                 "count", ""});
}

HostStocks read_stocks(crimes::CloudHost& host,
                       const std::vector<crimes::Tenant*>& tenants) {
  HostStocks out;
  // PageStore keeps its digest list private; the generation manifests name
  // every digest a retained generation references, which is the same set
  // minus delta bases held only as bases.
  std::unordered_map<std::uint64_t, std::uint32_t> holders;
  for (crimes::Tenant* tenant : tenants) {
    crimes::Crimes& c = tenant->crimes();
    if (c.config().mode == crimes::SafetyMode::Disabled) continue;
    out.packets_dropped += c.buffer().total_dropped();
    if (const crimes::replication::Replicator* rep = c.replicator()) {
      out.max_in_flight = std::max<std::uint64_t>(out.max_in_flight,
                                                  rep->max_in_flight());
    }
    const crimes::store::CheckpointStore* store = c.checkpointer().store();
    if (store == nullptr) continue;
    const crimes::store::StoreStats stats = store->stats();
    out.pages_unique += stats.pages_unique;
    out.bytes_physical += stats.bytes_physical;
    out.bytes_logical += stats.bytes_logical;
    std::unordered_set<std::uint64_t> mine;
    const crimes::store::GenerationChain& chain = store->chain();
    for (std::size_t i = 0; i < chain.size(); ++i) {
      for (const auto& [pfn, digest] : chain.at(i).changed) {
        if (digest != crimes::store::kZeroDigest) mine.insert(digest);
      }
    }
    for (const std::uint64_t digest : mine) ++holders[digest];
  }
  std::uint64_t shared = 0;
  for (const auto& [digest, count] : holders) shared += count >= 2 ? 1 : 0;
  out.cross_tenant_shared_frac =
      per(static_cast<double>(shared), holders.size());
  out.frames_in_use = host.memory_report().machine_frames_in_use;
  return out;
}

const std::vector<std::string>& all_module_names() {
  static const std::vector<std::string> names{
      "canary-scan",       "hidden-process", "net-content",
      "malware-scan",      "syscall-integrity", "idt-integrity",
      "kernel-text"};
  return names;
}

void span_metrics(const SpanRecorder& spans, std::size_t traced_rounds,
                  const std::vector<std::string>& module_names,
                  std::vector<Metric>& out) {
  const std::map<std::string, std::int64_t> self = spans.self_ns_by_name();
  const auto per_round = [&](const std::string& name) {
    const auto it = self.find(name);
    const std::int64_t ns = it == self.end() ? 0 : it->second;
    return per(ns_to_ms(ns), traced_rounds);
  };
  out.push_back({"cloud.round_self_ms", per_round("cloud.round"), "ms",
                 "per round"});
  out.push_back({"core.pipeline_ms", per_round("core.slice"), "ms",
                 "per round"});
  out.push_back({"workload.run_ms", per_round("workload.run"), "ms",
                 "per round"});
  double detect = 0.0;
  std::vector<Metric> modules;
  for (const std::string& name : module_names) {
    const double ms = per_round("detect." + name);
    detect += ms;
    modules.push_back({"detect." + name + ".scan_ms", ms, "ms", "per round"});
  }
  out.push_back({"detect.scan_ms", detect, "ms", "per round"});
  out.insert(out.end(), modules.begin(), modules.end());
}

}  // namespace perfbench
