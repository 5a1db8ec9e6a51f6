// crimes_perfbench: wall-clock benchmark of the CRIMES host path.
//
//   crimes_perfbench --workload <copy_storm|vault|web_fleet|incident>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-out <span file>]
//
// Prints one line per metric ("metric <name> <value> <unit> [note]"), one
// line per failed correctness gate, and as its last line a JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exits 1 when a gate
// fails, 2 on bad arguments.
#include "common.h"

#include <malloc.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

namespace perfbench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void add_tail(std::vector<Metric>& out, const std::string& name,
              const std::vector<double>& samples, const std::string& unit) {
  const Tail t = tail(samples);
  char note[96];
  std::snprintf(note, sizeof note, "p%.2f of %zu samples%s", t.percentile,
                t.samples, t.resolved ? "" : " (fewer than 11: maximum)");
  out.push_back({name, t.value, unit, note});
}

bool same_values(const std::vector<Metric>& a, const std::vector<Metric>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name || a[i].value != b[i].value) return false;
  }
  return true;
}

void file_virtual(const std::vector<Metric>& metrics, Report& report) {
  for (const Metric& m : metrics) {
    const bool e2e = m.name == "vpause_ms_p50" || m.name == "vpause_ms_tail" ||
                     m.name == "vslowdown";
    (e2e ? report.end_to_end : report.per_layer).push_back(m);
  }
}

namespace {

// Per-layer metrics a workload leaves out do not apply to it (no store on
// copy_storm, no replay outside incident); the result line still carries
// every name, at zero.
const std::vector<std::pair<const char*, const char*>>& per_layer_names() {
  static const std::vector<std::pair<const char*, const char*>> names{
      {"cloud.round_self_ms", "ms"},
      {"core.pipeline_ms", "ms"},
      {"workload.run_ms", "ms"},
      {"detect.scan_ms", "ms"},
      {"detect.canary-scan.scan_ms", "ms"},
      {"detect.hidden-process.scan_ms", "ms"},
      {"detect.net-content.scan_ms", "ms"},
      {"detect.malware-scan.scan_ms", "ms"},
      {"detect.syscall-integrity.scan_ms", "ms"},
      {"detect.idt-integrity.scan_ms", "ms"},
      {"detect.kernel-text.scan_ms", "ms"},
      {"trace.overhead_ms", "ms"},
      {"checkpoint.dirty_mb_per_s", "MiB/s"},
      {"workload.dirty_pages", "1/epoch"},
      {"detect.findings", "1/epoch"},
      {"vmi.cache_hit_ratio", "ratio"},
      {"checkpoint.vsuspend_ms", "ms"},
      {"checkpoint.vbitscan_ms", "ms"},
      {"checkpoint.vvmi_ms", "ms"},
      {"checkpoint.vmap_ms", "ms"},
      {"checkpoint.vcopy_ms", "ms"},
      {"checkpoint.vprotect_ms", "ms"},
      {"checkpoint.vresume_ms", "ms"},
      {"cow.first_touch_ratio", "ratio"},
      {"core.vtail_ms", "ms"},
      {"store.vstore_ms", "ms"},
      {"store.pages_unique", "count"},
      {"store.bytes_physical_mb", "MiB"},
      {"store.dedup_ratio", "ratio"},
      {"store.cross_tenant_shared_frac", "ratio"},
      {"crypto.pages_sealed", "1/epoch"},
      {"crypto.roots_verified", "1/epoch"},
      {"crypto.seal_audit_ms", "ms"},
      {"crypto.chain_verify_ms", "ms"},
      {"replication.generations_sent", "1/epoch"},
      {"replication.vstall_ms", "ms"},
      {"replication.max_in_flight", "count"},
      {"replication.wire_mb", "MiB/epoch"},
      {"net.requests_completed", "1/epoch"},
      {"net.packets_dropped", "count"},
      {"telemetry.vobserve_ms", "ms"},
      {"hypervisor.frames_in_use", "count"},
      {"replay.ops_replayed", "count"},
      {"replay.events_delivered", "count"},
      {"replay.vms", "ms"},
      {"forensics.vms", "ms"},
      {"persist.vms", "ms"},
      {"forensics.dumps", "count"},
      {"forensics.report_kb", "KiB"},
      {"req_ms_p50", "ms"},
      {"req_ms_tail", "ms"},
      {"vreq_per_s", "req/s"},
      {"response_ms_p50", "ms"},
      {"response_ms_tail", "ms"},
      {"vdetect_ms_p50", "ms"},
  };
  return names;
}

const Metric* find(const std::vector<Metric>& metrics, const char* name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void print_metric(const Metric& m) {
  std::printf("metric %-36s %.6g %s%s%s\n", m.name.c_str(), m.value,
              m.unit.c_str(), m.note.empty() ? "" : "  # ", m.note.c_str());
}

// %.17g keeps every digit of the measurement.
void append_json(std::string& out, const Metric& m) {
  char buf[160];
  const double v = std::isfinite(m.value) ? m.value : 0.0;
  std::snprintf(buf, sizeof buf, "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                m.name.c_str(), v, m.unit.c_str());
  out += buf;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "crimes_perfbench: %s\nusage: crimes_perfbench --workload "
               "<copy_storm|vault|web_fleet|incident> --seed <n> --seconds "
               "<s> --trace <0|1> [--trace-out <file>]\n",
               why);
  return 2;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // A fixed mmap threshold: guest frame chunks, memory dumps and other
  // large buffers always come fresh from the kernel and go back on free.
  // glibc's dynamic threshold otherwise decides run by run whether they are
  // mapped or carved from freed heap, which makes set-up time and peak RSS
  // bimodal across runs.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return usage("--seed: not a number");
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(options.seconds > 0.0) ||
          options.seconds > 600.0) {
        return usage("--seconds: want a number in (0, 600]");
      }
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage("--trace: want 0 or 1");
      }
      options.trace = value[0] == '1';
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else {
      return usage(("unknown option " + arg).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");

  Report report;
  try {
    if (options.workload == "copy_storm") {
      report = run_copy_storm(options);
    } else if (options.workload == "vault") {
      report = run_vault(options);
    } else if (options.workload == "web_fleet") {
      report = run_web_fleet(options);
    } else if (options.workload == "incident") {
      report = run_incident(options);
    } else {
      return usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "crimes_perfbench: %s\n", e.what());
    return 1;
  }

  std::printf("workload %s seed %llu trace %d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0);
  for (const Metric& m : report.end_to_end) print_metric(m);
  print_metric({"failed_frac", report.outcome.failed_frac(), "ratio",
                std::to_string(report.outcome.failed()) + " of " +
                    std::to_string(report.outcome.attempted)});
  std::vector<Metric> layers;
  for (const auto& [name, unit] : per_layer_names()) {
    const Metric* m = find(report.per_layer, name);
    layers.push_back(m != nullptr ? *m : Metric{name, 0.0, unit, "n/a"});
  }
  for (const Metric& m : layers) {
    if (options.trace || m.note != "n/a") print_metric(m);
  }
  for (const std::string& v : report.violations) {
    std::printf("gate FAIL: %s\n", v.c_str());
  }

  const std::vector<Metric>& result =
      options.trace ? layers : report.end_to_end;
  std::string json = "{\"correct\": ";
  json += report.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.outcome.attempted);
  json += ", \"failed\": " + std::to_string(report.outcome.failed());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.size(); ++i) {
    if (i > 0) json += ", ";
    append_json(json, result[i]);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return report.correct() ? 0 : 1;
}
