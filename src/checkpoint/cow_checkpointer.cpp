#include "checkpoint/cow_checkpointer.h"

#include "common/log.h"
#include "store/page_store.h"

#include <cstring>
#include <stdexcept>

namespace crimes {

CowCheckpointer::CowCheckpointer(Hypervisor& hypervisor, Vm& primary,
                                 Vm& backup, const CostModel& costs)
    : hypervisor_(&hypervisor),
      primary_(&primary),
      backup_(&backup),
      costs_(&costs) {}

Nanos CowCheckpointer::protect(std::vector<Pfn> dirty, const VcpuState& vcpu,
                               bool want_digests) {
  if (active_) {
    throw std::logic_error("CowCheckpointer::protect: drain already pending");
  }
  active_ = true;
  dirty_ = std::move(dirty);
  slot_of_.clear();
  slot_of_.reserve(dirty_.size());
  for (std::size_t i = 0; i < dirty_.size(); ++i) slot_of_[dirty_[i]] = i;
  digests_.assign(want_digests ? dirty_.size() : 0, Hash128{});
  touched_.assign(dirty_.size(), false);
  undo_.clear();
  first_touches_ = 0;
  first_touch_cost_ = Nanos{0};
  vcpu_ = vcpu;

  primary_->monitor().cow_protect(
      dirty_, [this](Pfn pfn) { on_first_touch(pfn); });
  return costs_->cow_protect_cost(dirty_.size());
}

std::size_t CowCheckpointer::pending_pages() const {
  return active_ ? dirty_.size() - first_touches_ : 0;
}

void CowCheckpointer::on_first_touch(Pfn pfn) {
  // Synchronous dom0 handler: the guest's write is held until the page's
  // pre-write bytes -- the checkpointed content, since this is the first
  // touch -- are safe in the backup. The protection was already dropped
  // by the monitor, so the copy below cannot re-trap.
  const auto it = slot_of_.find(pfn);
  if (it == slot_of_.end() || touched_[it->second]) return;
  const std::size_t slot = it->second;
  ForeignMapping src = hypervisor_->map_foreign(primary_->id());
  ForeignMapping dst = hypervisor_->map_foreign(backup_->id());
  // The backup still holds the last committed checkpoint's bytes of this
  // page; save them first, so a drain that fails -- or is abandoned when
  // the primary dies -- can put them back.
  undo_.capture(dst, pfn);
  Page& to = dst.page(pfn);
  const Page& from = src.peek(pfn);
  const bool fused = !digests_.empty();
  if (fused) {
    digests_[slot] = store::copy_page_digest(to, from);
  } else {
    std::memcpy(to.data.data(), from.data.data(), kPageSize);
  }
  touched_[slot] = true;
  ++first_touches_;
  first_touch_cost_ +=
      costs_->cow_first_touch_per_page +
      (fused ? costs_->cow_fused_hash_per_page : Nanos{0});
}

std::span<const Pfn> CowCheckpointer::untouched() {
  untouched_.clear();
  for (std::size_t i = 0; i < dirty_.size(); ++i) {
    if (!touched_[i]) untouched_.push_back(dirty_[i]);
  }
  return untouched_;
}

void CowCheckpointer::settle(bool committed) {
  if (!active_) {
    throw std::logic_error("CowCheckpointer::settle: no drain pending");
  }
  if (!committed) {
    for (const Pfn pfn : dirty_) primary_->dirty_bitmap().mark(pfn);
  }
  primary_->monitor().cow_unprotect_all();
  active_ = false;
}

void CowCheckpointer::abandon() {
  if (!active_) return;
  const std::size_t never_drained = pending_pages();
  ForeignMapping dst = hypervisor_->map_foreign(backup_->id());
  undo_.restore(dst);
  // No cow_unprotect_all() here: abandon() runs only when the primary
  // domain has been destroyed, and its monitor (and protections) died
  // with it -- the Vm behind primary_ is already freed.
  active_ = false;
  CRIMES_LOG(Warn, "cow") << "drain abandoned (" << never_drained
                          << " pages never drained); backup restored to the "
                             "last committed checkpoint";
}

}  // namespace crimes
