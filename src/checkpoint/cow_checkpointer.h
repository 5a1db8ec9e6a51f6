// The speculative copy-on-write drain engine (DESIGN.md section 12).
//
// Stop-copy checkpointing pays the whole dirty-page copy inside the pause;
// this engine moves it off-pause: at checkpoint time the dirty set is
// write-protected through the mem-event machinery (the same Xen mem_access
// path replay uses, but with a synchronous dom0 handler and no ring), the
// VM resumes, and the copy drains in the background while the next epoch
// executes. Two sources feed the backup:
//
//   first-touch   the guest writes a still-protected page; the handler
//                 copies the page's pre-write bytes -- exactly the
//                 checkpointed content, since this is the first touch --
//                 into the backup before the write proceeds, then drops
//                 the protection.
//   drain         every page the guest never touched is copied at the
//                 commit barrier; its content is still the checkpointed
//                 content precisely *because* it was never touched.
//
// Either way the committed backup is byte-identical to what stop-copy
// would have produced -- the property the test suite and the
// ablation_cow_pause bench assert run by run.
//
// The per-page 128-bit digest (store::copy_page_digest) is fused into both
// copies (one pass over the bytes instead of copy-then-digest), so the
// checkpoint store's append skips its hash pass and backup verification
// reuses the captured digests.
//
// Fault discipline: the drain runs through the Checkpointer's one
// copy/verify/retry loop, the same loop stop-copy uses, so an aborted drain
// attempt really copies a prefix and retries with backoff, and a torn write
// can only strike a page the drain copied (a first-touched page's
// primary-side source is gone the moment the guest's write lands, so its
// copy must never need a retry -- the handler path is the synchronous,
// cannot-abort hypervisor path). Every page is saved into the undo log
// before its first overwrite: the first-touch handler does so in every
// config, the loop whenever an attempt can fail. On retry exhaustion -- or
// on abandon() -- the undo log restores every backup page the drain wrote
// and, for a failed drain, the dirty set is re-marked, exactly like the
// stop-copy failure path: the backup is never left torn.
#pragma once

#include "checkpoint/undo_log.h"
#include "common/cost_model.h"
#include "common/hash.h"
#include "common/sim_clock.h"
#include "hypervisor/hypervisor.h"

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

namespace crimes {

class CowCheckpointer {
 public:
  CowCheckpointer(Hypervisor& hypervisor, Vm& primary, Vm& backup,
                  const CostModel& costs);

  // Arms the drain for this epoch's dirty set: registers the first-touch
  // handler, write-protects the pages and records the checkpoint vCPU.
  // Returns the protect-phase pause cost. `want_digests` turns on the fused
  // digest (store enabled or verify_backup; a plain memcpy drain
  // otherwise).
  Nanos protect(std::vector<Pfn> dirty, const VcpuState& vcpu,
                bool want_digests);

  [[nodiscard]] bool pending() const { return active_; }
  [[nodiscard]] std::size_t pending_pages() const;
  [[nodiscard]] std::size_t first_touches() const { return first_touches_; }
  [[nodiscard]] Nanos first_touch_cost() const { return first_touch_cost_; }

  // What the commit barrier's copy loop still has to copy: the dirty pages
  // the guest never touched, in dirty() order.
  [[nodiscard]] std::span<const Pfn> untouched();

  // Ends the drain once the copy loop has run: drops the remaining
  // protections and, when the drain failed (the loop already restored the
  // backup from undo()), hands the dirty set back to the primary's bitmap
  // so the next checkpoint carries this epoch's pages too.
  void settle(bool committed);

  // Failover with a dead primary: the drain can never complete (its page
  // sources are gone with the domain). Restores the backup from the undo
  // log, so the promoted image is the last *committed* checkpoint, and
  // disarms the drain.
  void abandon();

  // Parallel arrays for the copy loop and the store's append_with_digests,
  // valid until the next protect(). digests() is empty without
  // want_digests; the first-touch handler fills its slots, the copy loop
  // the rest.
  [[nodiscard]] const std::vector<Pfn>& dirty() const { return dirty_; }
  [[nodiscard]] std::span<Hash128> digests() { return digests_; }
  [[nodiscard]] UndoLog& undo() { return undo_; }
  [[nodiscard]] const VcpuState& vcpu_at_checkpoint() const { return vcpu_; }

 private:
  void on_first_touch(Pfn pfn);

  Hypervisor* hypervisor_;
  Vm* primary_;
  Vm* backup_;
  const CostModel* costs_;

  bool active_ = false;
  std::vector<Pfn> dirty_;
  std::unordered_map<Pfn, std::size_t> slot_of_;  // pfn -> index in dirty_
  std::vector<Hash128> digests_;                  // parallel to dirty_
  std::vector<bool> touched_;                     // parallel to dirty_
  std::vector<Pfn> untouched_;
  UndoLog undo_;  // backup bytes this drain overwrote, before it did
  VcpuState vcpu_;
  std::size_t first_touches_ = 0;
  Nanos first_touch_cost_{0};
};

}  // namespace crimes
