// Full-system memory dump: the input to the Volatility-style plugins.
//
// A dump copies the frames a VM has backed (written at least once) plus its
// vCPU state, labelled and timestamped. Never-written frames are not
// copied: they read as the shared zero frame, exactly as they do in the
// live VM, so a guest that has touched 250 of its 8192 frames dumps to
// ~1 MiB rather than 32 MiB. CRIMES snapshots three of these around an
// attack: the last clean checkpoint, the end of the failed epoch, and
// (after replay) the precise attack instant (section 5.5).
//
// It is a copy rather than a view of the VM because the VM moves on while
// the dump is still needed: replay rolls the primary back and rewrites it
// right after the audit-fail dump is taken, and run_honeypot() resumes it
// later.
#pragma once

#include "common/sim_clock.h"
#include "common/types.h"
#include "guestos/kernel_layout.h"
#include "hypervisor/vm.h"

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace crimes {

class MemoryDump {
 public:
  // Captures `vm` in whatever state it is in (dom0 can dump suspended and
  // paused domains alike).
  static MemoryDump capture(const Vm& vm, const SymbolTable& symbols,
                            OsFlavor flavor, std::string label,
                            Nanos captured_at);

  [[nodiscard]] const std::string& label() const { return label_; }
  [[nodiscard]] Nanos captured_at() const { return captured_at_; }
  [[nodiscard]] OsFlavor flavor() const { return flavor_; }
  [[nodiscard]] const SymbolTable& symbols() const { return symbols_; }
  [[nodiscard]] const VcpuState& vcpu() const { return vcpu_; }

  // Guest-physical frames, copied or not.
  [[nodiscard]] std::size_t page_count() const { return slot_.size(); }
  // Whether the VM had backed `pfn` at capture (so the dump copied it).
  [[nodiscard]] bool is_backed(Pfn pfn) const;
  // Frames that were not backed read as zero_page().
  [[nodiscard]] const Page& page(Pfn pfn) const;

  // Calls fn(pfn, page) for every backed frame, in ascending PFN order.
  // Raw sweeps use it to skip frames that can only read as zeroes.
  template <typename Fn>
  void for_each_backed(Fn&& fn) const {
    for (std::size_t p = 0; p < slot_.size(); ++p) {
      if (slot_[p] != kUnbacked) fn(Pfn{p}, frames_[slot_[p]]);
    }
  }

  // VA-space reads through the dumped page table (rooted at the dumped
  // CR3). Return nullopt on translation faults -- forensics tools must
  // survive corrupted page tables.
  [[nodiscard]] std::optional<Paddr> translate(Vaddr va) const;
  [[nodiscard]] bool read_bytes(Vaddr va, std::span<std::byte> out) const;
  [[nodiscard]] std::optional<std::uint64_t> read_u64(Vaddr va) const;
  [[nodiscard]] std::optional<std::uint32_t> read_u32(Vaddr va) const;
  [[nodiscard]] std::optional<std::string> read_str(Vaddr va,
                                                    std::size_t max_len) const;

 private:
  static constexpr std::uint32_t kUnbacked = UINT32_MAX;

  MemoryDump() = default;

  std::string label_;
  Nanos captured_at_{0};
  OsFlavor flavor_ = OsFlavor::Linux;
  SymbolTable symbols_;
  VcpuState vcpu_;
  std::vector<std::uint32_t> slot_;  // per PFN: index into frames_
  std::vector<Page> frames_;         // the backed frames, by ascending PFN
};

}  // namespace crimes
