// Shared types of the benchmark driver: options, metric records, the
// run report, and seed derivation.
#pragma once

#include "stats.h"

#include "common/sim_clock.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // span dump path (traced run only)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // printed with the human-readable line only
};

// Everything one invocation reports. The result line carries the
// end-to-end metrics with --trace 0 and the per-layer ones with --trace 1;
// both lists are printed either way.
struct Report {
  std::vector<std::string> violations;
  Outcome outcome;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  // Records a correctness gate; a failed gate fails the run.
  void gate(bool ok, const std::string& what) {
    if (!ok) violations.push_back(what);
  }
  [[nodiscard]] bool correct() const { return violations.empty(); }
};

// splitmix64: derives independent streams (workload RNG seeds, attack
// times, tenant keys) from the one --seed.
[[nodiscard]] inline std::uint64_t mix(std::uint64_t seed,
                                       std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Uniform double in [0, 1) from a mixed stream.
[[nodiscard]] inline double unit_interval(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

[[nodiscard]] inline double ns_to_ms(std::int64_t ns) {
  return static_cast<double>(ns) / 1e6;
}
[[nodiscard]] inline double vms(crimes::Nanos t) { return crimes::to_ms(t); }

// Process peak resident set size, MiB.
[[nodiscard]] double peak_rss_mb();

// Adds the tail of `samples` as metric `name` (with its percentile and
// sample count in the note).
void add_tail(std::vector<Metric>& out, const std::string& name,
              const std::vector<double>& samples, const std::string& unit);

// True when both lists hold the same metrics with bit-identical values.
[[nodiscard]] bool same_values(const std::vector<Metric>& a,
                               const std::vector<Metric>& b);

// Files a window's virtual metrics: vpause_ms_p50, vpause_ms_tail and
// vslowdown are end-to-end, the rest per-layer.
void file_virtual(const std::vector<Metric>& metrics, Report& report);

Report run_copy_storm(const Options& options);
Report run_vault(const Options& options);
Report run_web_fleet(const Options& options);
Report run_incident(const Options& options);

}  // namespace perfbench
