// Unaided kernel-text integrity check: hash every page of the kernel text
// region at a trusted baseline, then re-hash only the text pages the epoch
// dirtied (kernel code never legitimately changes at runtime in this
// guest, mirroring a pagetable-protected production kernel). Catches
// inline-hook rootkits that patch handler code rather than pointer tables.
#pragma once

#include "common/hash.h"
#include "detect/detector.h"

#include <cstdint>
#include <vector>

namespace crimes {

class KernelTextIntegrityModule final : public ScanModule {
 public:
  [[nodiscard]] std::string name() const override { return "kernel-text"; }

  // Hashes the text region while the guest is still trusted.
  void capture_baseline(VmiSession& vmi);
  [[nodiscard]] bool has_baseline() const { return !baseline_.empty(); }

  [[nodiscard]] ScanResult scan(ScanContext& ctx) override;

  [[nodiscard]] std::uint64_t pages_rehashed() const { return rehashed_; }

 private:
  std::vector<Hash128> baseline_;  // one hash per text page
  std::vector<Pfn> text_pfns_;
  Vaddr text_base_{0};
  std::uint64_t rehashed_ = 0;
};

}  // namespace crimes
