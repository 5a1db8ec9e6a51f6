// Bench-side span recorder for the traced run. Spans are taken around the
// public calls the benchmark makes into each layer (CloudHost::run, the
// tenant's Crimes::run slice, Workload::run_epoch, ScanModule::scan) and
// kept in memory; write() dumps them once the run ends. Single-threaded,
// like the host loop it observes.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using SteadyClock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t parent = 0;  // index into spans(), kNoParent for a root
  std::uint32_t round = 0;
  std::uint16_t name = 0;    // interned name id
};

inline constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

class SpanRecorder {
 public:
  SpanRecorder();

  // Name ids are stable for the recorder's lifetime. The layer of a span
  // is its name up to the first '.'.
  std::uint16_t intern(std::string_view name);

  // True while a traced round is open: the wrappers record spans only
  // then.
  [[nodiscard]] bool enabled() const { return enabled_; }

  // Opens a span under the innermost open one; returns its index.
  std::uint32_t open(std::uint16_t name);
  // Closes the innermost open span, which must be `index`.
  void close(std::uint32_t index);

  // Round root span around one CloudHost::run call. The traced run
  // alternates Traced rounds ("cloud.round", with every span beneath it)
  // and Untraced ones ("cloud.round.untraced", the root alone), so the
  // span file also carries the untraced round times the overhead is
  // measured against. Off records nothing (warm-up, replays, the untraced
  // run).
  enum class RoundMode { Off, Untraced, Traced };
  void begin_round(std::uint32_t round, RoundMode mode);
  void end_round();

  // The mode of timed round `index`: Off without tracing, else odd rounds
  // Traced and even ones Untraced.
  [[nodiscard]] static RoundMode alternate(bool trace, std::size_t index) {
    if (!trace) return RoundMode::Off;
    return index % 2 == 1 ? RoundMode::Traced : RoundMode::Untraced;
  }

  // Tenant slices. CloudHost gives no callback at a slice's edges, so a
  // slice is opened at the tenant's first Workload callback in the round
  // and closed when the next tenant's slice opens or the round ends.
  void enter_tenant(const void* tenant);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  // Per-layer self time over the recorded spans: a span's duration minus
  // the durations of its children. Keys are span names.
  [[nodiscard]] std::map<std::string, std::int64_t> self_ns_by_name() const;

  // Writes one line per span: round, id, parent (-1 for roots), name,
  // start, end (nanoseconds). Returns false on an I/O error.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
  bool enabled_ = false;
  std::uint32_t round_ = 0;
  std::uint32_t round_span_ = kNoParent;
  std::uint16_t round_name_ = 0;
  std::uint16_t untraced_round_name_ = 0;
  std::uint16_t slice_name_ = 0;
  const void* slice_tenant_ = nullptr;
  std::uint32_t slice_span_ = kNoParent;
};

}  // namespace perfbench
