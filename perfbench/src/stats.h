// Order statistics and failure accounting for the benchmark's reports.
// Header-only so tests/stats_test.cpp checks exactly what the driver uses.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// Median; the mean of the two middle values for an even count, 0 when
// empty.
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

// Tail of a latency distribution: the highest percentile that still has at
// least ten samples beyond it. With n sorted samples that is the 11th
// largest, at percentile 100 * (n - 10) / n. Below 11 samples no such
// percentile exists; the maximum is reported, flagged `resolved == false`.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t samples = 0;
  bool resolved = false;
};

inline constexpr std::size_t kTailBeyond = 10;

inline Tail tail(std::vector<double> values) {
  Tail t;
  t.samples = values.size();
  if (values.empty()) return t;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n <= kTailBeyond) {
    t.value = values.back();
    return t;
  }
  t.value = values[n - kTailBeyond - 1];
  t.percentile = 100.0 * static_cast<double>(n - kTailBeyond) /
                 static_cast<double>(n);
  t.resolved = true;
  return t;
}

// failed / attempted bookkeeping. Attempts are tenant-epochs on the steady
// workloads and incidents on `incident`. Failures are the violations the
// benchmark counts: tenant-epochs not committed, tenants frozen or
// flagged on clean workloads, tampers or replication drops on untampered
// runs, and incidents missed or not pinpointed. Several violations can
// land on one attempt (a frozen tenant also stops committing), so the
// failure count is capped at the attempt count and the fraction stays a
// ratio.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t violations = 0;

  void attempt(std::uint64_t n = 1) { attempted += n; }
  void fail(std::uint64_t n = 1) { violations += n; }

  [[nodiscard]] std::uint64_t failed() const {
    return std::min(violations, attempted);
  }
  [[nodiscard]] double failed_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed()) /
                                static_cast<double>(attempted);
  }
};

}  // namespace perfbench
