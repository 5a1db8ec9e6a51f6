// Forwarding wrappers the benchmark installs at the library's extension
// points. They add spans (when the recorder is on) and read public
// counters; the wrapped object does all the work, so the untraced run
// executes the same program.
#pragma once

#include "span_recorder.h"

#include "core/crimes.h"
#include "detect/detector.h"
#include "workload/workload.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

namespace perfbench {

// Counters the wrappers accumulate for one tenant.
struct TenantProbe {
  std::uint64_t dirty_pages = 0;      // dirty_count() after each run_epoch
  std::uint64_t cow_first_touches = 0;
  std::uint64_t findings = 0;
  // Virtual clock when the epoch's checkpoint returned (the first
  // finished() poll after run_epoch); the rest of the slice is its tail.
  crimes::Nanos checkpoint_done_at{0};
};

class TracedWorkload final : public crimes::Workload {
 public:
  TracedWorkload(crimes::Workload& inner, crimes::Vm& vm, SpanRecorder& spans,
                 TenantProbe& probe)
      : inner_(&inner),
        vm_(&vm),
        spans_(&spans),
        probe_(&probe),
        run_name_(spans.intern("workload.run")) {}

  // The tenant's pipeline, for the virtual clock. Set once admitted.
  void attach(crimes::Crimes& crimes) { crimes_ = &crimes; }

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  void run_epoch(crimes::Nanos start, crimes::Nanos duration) override {
    // CoW pages still write-protected when the epoch starts are the ones a
    // guest write can first-touch; each first touch unprotects one.
    const std::size_t protected_before = vm_->monitor().cow_pending();
    if (spans_->enabled()) {
      const std::uint32_t span = spans_->open(run_name_);
      inner_->run_epoch(start, duration);
      spans_->close(span);
    } else {
      inner_->run_epoch(start, duration);
    }
    probe_->cow_first_touches +=
        protected_before - std::min(protected_before,
                                    vm_->monitor().cow_pending());
    probe_->dirty_pages += vm_->dirty_bitmap().dirty_count();
    epoch_ran_ = true;
  }

  // CloudHost polls finished() right before it calls the tenant's
  // Crimes::run, and Crimes::run polls it around each epoch: the first
  // poll opens the tenant's slice span, the first poll after run_epoch
  // marks the end of the epoch's checkpoint.
  [[nodiscard]] bool finished() const override {
    spans_->enter_tenant(this);
    if (epoch_ran_ && crimes_ != nullptr) {
      probe_->checkpoint_done_at = crimes_->clock().now();
      epoch_ran_ = false;
    }
    return inner_->finished();
  }

  [[nodiscard]] std::uint64_t total_accesses() const override {
    return inner_->total_accesses();
  }
  void set_intensity(double factor) override { inner_->set_intensity(factor); }

 private:
  crimes::Workload* inner_;
  crimes::Vm* vm_;
  SpanRecorder* spans_;
  TenantProbe* probe_;
  crimes::Crimes* crimes_ = nullptr;
  std::uint16_t run_name_;
  mutable bool epoch_ran_ = false;
};

class TracedScanModule final : public crimes::ScanModule {
 public:
  TracedScanModule(std::unique_ptr<crimes::ScanModule> inner,
                   SpanRecorder& spans, TenantProbe& probe)
      : inner_(std::move(inner)),
        name_(inner_->name()),
        spans_(&spans),
        probe_(&probe),
        span_name_(spans.intern("detect." + name_)) {}

  [[nodiscard]] std::string name() const override { return name_; }

  [[nodiscard]] crimes::ScanResult scan(crimes::ScanContext& ctx) override {
    crimes::ScanResult result;
    if (spans_->enabled()) {
      const std::uint32_t span = spans_->open(span_name_);
      result = inner_->scan(ctx);
      spans_->close(span);
    } else {
      result = inner_->scan(ctx);
    }
    probe_->findings += result.findings.size();
    return result;
  }

 private:
  std::unique_ptr<crimes::ScanModule> inner_;
  std::string name_;
  SpanRecorder* spans_;
  TenantProbe* probe_;
  std::uint16_t span_name_;
};

}  // namespace perfbench
