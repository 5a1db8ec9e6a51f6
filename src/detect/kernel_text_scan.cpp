#include "detect/kernel_text_scan.h"

#include "common/bytes.h"
#include "guestos/kernel_layout.h"

#include <stdexcept>
#include <unordered_map>

namespace crimes {

namespace {

// The text region spans 64 pages (GuestLayout::kernel_text_pages); walk it
// page by page through VMI.
Hash128 hash_text_page(VmiSession& vmi, Vaddr page_va) {
  std::vector<std::byte> buf(kPageSize);
  vmi.read_bytes(page_va, buf);
  return hash128(buf);
}

}  // namespace

void KernelTextIntegrityModule::capture_baseline(VmiSession& vmi) {
  const Vaddr text = vmi.symbols().lookup(
      SymbolNames::for_flavor(vmi.flavor()).kernel_text);
  text_base_ = text;
  baseline_.clear();
  text_pfns_.clear();
  for (std::size_t page = 0;; ++page) {
    const Vaddr va = text + page * kPageSize;
    const auto pfn = vmi.pfn_of(va);
    if (!pfn) break;
    // Heuristic region end: the text symbol's region is contiguous; stop
    // at 64 pages (the image's text size).
    if (page >= 64) break;
    baseline_.push_back(hash_text_page(vmi, va));
    text_pfns_.push_back(*pfn);
  }
  (void)vmi.take_cost();  // startup cost, not scan cost
}

ScanResult KernelTextIntegrityModule::scan(ScanContext& ctx) {
  if (baseline_.empty()) {
    throw std::logic_error(
        "KernelTextIntegrityModule: capture_baseline() not called");
  }
  ScanResult result;

  std::unordered_map<std::uint64_t, std::size_t> text_index;
  text_index.reserve(text_pfns_.size());
  for (std::size_t i = 0; i < text_pfns_.size(); ++i) {
    text_index.emplace(text_pfns_[i].value(), i);
  }

  for (const Pfn dirty : ctx.dirty) {
    const auto it = text_index.find(dirty.value());
    if (it == text_index.end()) continue;
    const std::size_t page = it->second;
    ++rehashed_;
    const Vaddr va = text_base_ + page * kPageSize;
    if (hash_text_page(ctx.vmi, va) != baseline_[page]) {
      result.findings.push_back(Finding{
          .module = name(),
          .severity = Severity::Critical,
          .description = "kernel text page " + std::to_string(page) +
                         " modified (inline hook?) at VA " +
                         to_hex(va.value()),
          .location = va,
          .pid = std::nullopt,
          .object = std::nullopt,
      });
    }
  }
  result.cost = ctx.vmi.take_cost();
  return result;
}

}  // namespace crimes
