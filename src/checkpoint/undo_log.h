// The undo log behind every atomic write into a backup image.
//
// CRIMES only ever exposes a complete checkpoint: a backup is applied all
// or nothing, as in Remus. Stop-copy's copy loop, the CoW drain (its
// first-touch copies included) and every in-flight replication generation
// therefore save a page's current bytes before overwriting it, and undo a
// write that cannot complete by putting them back.
//
// A PFN list plus a page arena. capture() reads through peek(), so it never
// materializes a frame: a never-backed frame is saved as the shared zero
// page and restores as zeroes. restore() runs newest first, so a PFN
// captured twice ends at its oldest bytes. clear() keeps the capacity, so a
// log reused epoch after epoch allocates only when it outgrows its
// high-water mark.
#pragma once

#include "hypervisor/foreign_mapping.h"

#include <cstring>
#include <vector>

namespace crimes {

class UndoLog {
 public:
  void capture(const ForeignMapping& image, Pfn pfn) {
    pfns_.push_back(pfn);
    pages_.push_back(image.peek(pfn));
  }

  void restore(ForeignMapping& image) const {
    for (std::size_t i = pfns_.size(); i-- > 0;) {
      std::memcpy(image.page(pfns_[i]).data.data(), pages_[i].data.data(),
                  kPageSize);
    }
  }

  void clear() {
    pfns_.clear();
    pages_.clear();
  }

  [[nodiscard]] std::size_t size() const { return pfns_.size(); }

 private:
  std::vector<Pfn> pfns_;
  std::vector<Page> pages_;  // pages_[i] holds pfns_[i]'s captured bytes
};

}  // namespace crimes
