#include "telemetry/flight_recorder.h"

#include <algorithm>
#include <cinttypes>
#include <cstring>

namespace crimes::telemetry {

const char* to_string(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::Phase: return "phase";
    case FlightEventKind::Fault: return "fault";
    case FlightEventKind::Governor: return "governor";
    case FlightEventKind::Failover: return "failover";
    case FlightEventKind::Slo: return "slo";
    case FlightEventKind::Log: return "log";
    case FlightEventKind::Postmortem: return "postmortem";
    case FlightEventKind::Control: return "control";
    case FlightEventKind::Tamper: return "tamper";
    case FlightEventKind::Host: return "host";
  }
  return "?";
}

namespace {

void copy_field(char* dst, std::size_t cap, std::string_view src) {
  const std::size_t n = std::min(cap - 1, src.size());
  // An empty view may carry a null data(), which memcpy must never see.
  if (n != 0) std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

void appendf(std::string& out, const char* fmt, auto... args) {
  char buf[512];
  std::snprintf(buf, sizeof buf, fmt, args...);
  out += buf;
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity)
    : ring_(std::max<std::size_t>(1, capacity)) {}

void FlightRecorder::record(Nanos at, std::uint64_t epoch,
                            FlightEventKind kind, std::string_view what,
                            std::string_view detail, double value) noexcept {
  const std::uint64_t ticket =
      head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = ring_[ticket % ring_.size()];
  // Tickets are unique, so two writers only meet here when one laps the
  // other by a full ring -- the guard makes that case lose cleanly instead
  // of tearing the slot.
  while (slot.busy.test_and_set(std::memory_order_acquire)) {
  }
  slot.event.at = at;
  slot.event.epoch = epoch;
  slot.event.kind = kind;
  slot.event.value = value;
  copy_field(slot.event.what, sizeof slot.event.what, what);
  copy_field(slot.event.detail, sizeof slot.event.detail, detail);
  slot.busy.clear(std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t n =
      std::min<std::uint64_t>(head, ring_.size());
  std::vector<FlightEvent> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t ticket = head - n; ticket < head; ++ticket) {
    // The guard pairs with record(): a slot is copied only between writes.
    Slot& slot = ring_[ticket % ring_.size()];
    while (slot.busy.test_and_set(std::memory_order_acquire)) {
    }
    out.push_back(slot.event);
    slot.busy.clear(std::memory_order_release);
  }
  return out;
}

std::string render_postmortem(const PostmortemContext& ctx) {
  std::string out;
  out += "{\n";
  appendf(out, "\"schema\":\"crimes-postmortem-v1\",\n");
  appendf(out, "\"reason\":\"%s\",\n", json_escape(ctx.reason).c_str());
  appendf(out, "\"tenant\":\"%s\",\n", json_escape(ctx.tenant).c_str());
  appendf(out, "\"at_ms\":%.6f,\n", to_ms(ctx.at));
  appendf(out, "\"epoch\":%" PRIu64 ",\n", ctx.epoch);
  appendf(out, "\"config\":\"%s\",\n",
          json_escape(ctx.config_summary).c_str());

  // --- Flight ring ------------------------------------------------------
  out += "\"flight\":";
  if (ctx.flight == nullptr) {
    out += "null";
  } else {
    const std::vector<FlightEvent> events = ctx.flight->snapshot();
    appendf(out,
            "{\"capacity\":%zu,\"recorded\":%" PRIu64 ",\"dropped\":%" PRIu64
            ",\"events\":[\n",
            ctx.flight->capacity(), ctx.flight->recorded(),
            ctx.flight->dropped());
    bool first = true;
    for (const FlightEvent& e : events) {
      if (!first) out += ",\n";
      first = false;
      appendf(out,
              "{\"at_ms\":%.6f,\"epoch\":%" PRIu64
              ",\"kind\":\"%s\",\"what\":\"%s\",\"detail\":\"%s\","
              "\"value\":%.6f}",
              to_ms(e.at), e.epoch, to_string(e.kind),
              json_escape(e.what).c_str(), json_escape(e.detail).c_str(),
              e.value);
    }
    out += "\n]}";
  }
  out += ",\n";

  // --- Time series (last-N raw samples per metric) ----------------------
  out += "\"series\":";
  if (ctx.series == nullptr) {
    out += "null";
  } else {
    appendf(out, "{\"samples_taken\":%zu,\"scalars\":{\n",
            ctx.series->samples_taken());
    bool first = true;
    for (const auto& [name, series] : ctx.series->scalars()) {
      if (!first) out += ",\n";
      first = false;
      std::vector<SamplePoint> raw = series.raw();
      if (raw.size() > ctx.series_last_n) {
        raw.erase(raw.begin(),
                  raw.end() - static_cast<std::ptrdiff_t>(ctx.series_last_n));
      }
      appendf(out, "\"%s\":{\"kind\":\"%s\",\"ewma\":%.6f,\"rate\":%.6f,"
              "\"samples\":[",
              json_escape(name).c_str(),
              series.kind() == ScalarSeries::Kind::Counter ? "counter"
                                                           : "gauge",
              series.ewma(), series.rate_per_sec(ctx.series_last_n));
      for (std::size_t i = 0; i < raw.size(); ++i) {
        appendf(out, "%s[%.6f,%.6f]", i == 0 ? "" : ",", to_ms(raw[i].at),
                raw[i].value);
      }
      out += "]}";
    }
    out += "\n},\"histograms\":{\n";
    first = true;
    const std::size_t window = ctx.series_last_n;
    for (const auto& [name, series] : ctx.series->histograms()) {
      if (!first) out += ",\n";
      first = false;
      const HistogramSnapshot& latest = series.latest();
      appendf(out,
              "\"%s\":{\"count\":%" PRIu64 ",\"p50\":%" PRIu64
              ",\"p95\":%" PRIu64 ",\"p99\":%" PRIu64
              ",\"window_p99\":%" PRIu64 "}",
              json_escape(name).c_str(), latest.count, latest.p50(),
              latest.p95(), latest.p99(), series.window_p99(window));
    }
    out += "\n}}";
  }
  out += ",\n";

  // --- SLO monitor: verdicts plus the replayable inputs -----------------
  out += "\"slo\":";
  if (ctx.slo == nullptr) {
    out += "null";
  } else {
    const SloConfig& cfg = ctx.slo->config();
    appendf(out,
            "{\"state\":\"%s\",\"epochs\":%zu,\"warn_epochs\":%zu,"
            "\"critical_epochs\":%zu,\n",
            to_string(ctx.slo->state()), ctx.slo->epochs(),
            ctx.slo->warn_epochs(), ctx.slo->critical_epochs());
    appendf(out,
            "\"config\":{\"error_budget\":%.6f,\"fast_window\":%zu,"
            "\"slow_window\":%zu,\"warn_burn\":%.6f,\"critical_burn\":%.6f,"
            "\"clear_after\":%zu,\"budget\":{\"pause_ms\":%.6f,"
            "\"replication_lag\":%.6f,\"vulnerability_ms\":%.6f,"
            "\"audit_ms\":%.6f}},\n",
            cfg.error_budget, cfg.fast_window, cfg.slow_window, cfg.warn_burn,
            cfg.critical_burn, cfg.clear_after, cfg.budget.pause_ms,
            cfg.budget.replication_lag, cfg.budget.vulnerability_ms,
            cfg.budget.audit_ms);
    out += "\"inputs\":[\n";
    const std::vector<SloInput> inputs = ctx.slo->history();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const SloInput& in = inputs[i];
      appendf(out,
              "%s{\"epoch\":%" PRIu64 ",\"pause_ms\":%.6f,"
              "\"replication_lag\":%.6f,\"vulnerability_ms\":%.6f,"
              "\"audit_ms\":%.6f,\"verdict\":\"%s\"}",
              i == 0 ? "" : ",\n", in.epoch, in.pause_ms, in.replication_lag,
              in.vulnerability_ms, in.audit_ms, to_string(in.verdict));
    }
    out += "\n]}";
  }
  out += "\n}\n";
  return out;
}

void export_postmortem(const PostmortemContext& ctx, TelemetrySink& sink) {
  sink.write(render_postmortem(ctx));
}

bool write_postmortem(const PostmortemContext& ctx, const std::string& path) {
  FileSink sink(path);
  if (!sink.ok()) return false;
  export_postmortem(ctx, sink);
  return true;
}

}  // namespace crimes::telemetry
