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
// The per-page 128-bit digest (common/hash.h's copy_and_hash) is fused into
// both copy loops (one pass over the bytes instead of copy-then-digest), so
// the checkpoint store's append skips its hash pass and backup
// verification reuses the captured digests.
//
// Fault discipline: an aborted drain attempt really copies a prefix and
// retries with backoff; a torn write can only strike a *background-drained*
// page (a first-touched page's primary-side source is gone the moment the
// guest's write lands, so its copy must never need a retry -- the handler
// path is the synchronous, cannot-abort hypervisor path). On retry
// exhaustion the undo log restores every touched backup page and the dirty
// set is re-marked, exactly like the stop-copy failure path: the backup is
// never left torn.
#pragma once

#include "checkpoint/checkpointer.h"
#include "common/cost_model.h"
#include "common/hash.h"
#include "common/sim_clock.h"
#include "hypervisor/hypervisor.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace crimes::fault {
class FaultInjector;
}  // namespace crimes::fault

namespace crimes {

class CowCheckpointer {
 public:
  CowCheckpointer(Hypervisor& hypervisor, Vm& primary, Vm& backup,
                  const CostModel& costs, const CheckpointConfig& config,
                  ThreadPool* pool);

  // Arms the drain for this epoch's dirty set: captures the undo log (only
  // when a failure path exists -- fault injection or verification),
  // registers the first-touch handler, write-protects the pages and
  // records the checkpoint vCPU. Returns the protect-phase pause cost.
  // `want_digests` turns on the fused digest (store enabled or
  // verify_backup; a plain memcpy drain otherwise).
  Nanos protect(std::vector<Pfn> dirty, const VcpuState& vcpu,
                bool capture_undo, bool want_digests);

  [[nodiscard]] bool pending() const { return active_; }
  [[nodiscard]] std::size_t pending_pages() const;
  [[nodiscard]] std::size_t first_touches() const { return first_touches_; }

  // Drains the untouched remainder, verifies/retries under faults, and
  // either leaves the backup holding the full checkpoint (returns
  // committed) or restores it untorn from the undo log and re-marks the
  // primary's dirty bitmap. Fills everything except `stall` and
  // `store_cost` (the Checkpointer's concern). The fused digests and the
  // dirty list remain readable via digests()/dirty() until the next
  // protect().
  CowCommit complete(fault::FaultInjector* faults);

  // Failover with a dead primary: the drain can never complete (its page
  // sources are gone with the domain). Restores the backup from the undo
  // log when one was captured, so the promoted image is the last
  // *committed* checkpoint, and disarms the drain.
  void abandon();

  // Valid after a committed complete(): parallel arrays for the store's
  // append_with_digests.
  [[nodiscard]] const std::vector<Pfn>& dirty() const { return dirty_; }
  [[nodiscard]] const std::vector<Hash128>& digests() const {
    return digests_;
  }
  [[nodiscard]] const VcpuState& vcpu_at_checkpoint() const { return vcpu_; }

 private:
  void on_first_touch(Pfn pfn);

  Hypervisor* hypervisor_;
  Vm* primary_;
  Vm* backup_;
  const CostModel* costs_;
  const CheckpointConfig* config_;
  ThreadPool* pool_;

  bool active_ = false;
  bool want_digests_ = false;
  std::vector<Pfn> dirty_;
  std::unordered_map<Pfn, std::size_t> slot_of_;  // pfn -> index in dirty_
  std::vector<Hash128> digests_;                  // parallel to dirty_
  std::vector<bool> touched_;                     // parallel to dirty_
  std::vector<Page> undo_;  // backup bytes before this drain (may be empty)
  VcpuState vcpu_;
  std::size_t first_touches_ = 0;
  Nanos first_touch_cost_{0};
};

}  // namespace crimes
