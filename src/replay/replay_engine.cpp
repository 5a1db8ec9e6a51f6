#include "replay/replay_engine.h"

#include "common/log.h"

#include <vector>

namespace crimes {

namespace {

struct PhysRange {
  Pfn pfn{0};
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
};

bool overlaps(const PhysRange& a, const MemEvent& ev) {
  if (a.pfn != ev.pfn) return false;
  const std::uint64_t a_end = a.offset + a.length;
  const std::uint64_t e_end = ev.offset + ev.length;
  return a.offset < e_end && ev.offset < a_end;
}

}  // namespace

PinpointResult ReplayEngine::pinpoint_canary_corruption(
    std::span<const WriteOp> ops, Vaddr canary_va, std::uint64_t expected,
    std::optional<std::uint64_t> from_generation) {
  // Copy the records: replay re-enters the guest, and the caller's span may
  // alias the live recorder's op vector, which a recording replay would
  // grow. Their payloads stay put in the recorder's arena until its next
  // begin_epoch(), so the fixed-size records are all that is copied.
  const std::vector<WriteOp> log(ops.begin(), ops.end());

  PinpointResult result;
  result.canary_va = canary_va;
  result.expected_value = expected;

  if (from_generation) {
    checkpointer_->rollback_to(*from_generation);
  } else {
    checkpointer_->rollback();
  }
  Vm& vm = kernel_->vm();
  vm.unpause();

  // Resolve the canary's physical location(s); an 8-byte canary can
  // straddle a page boundary.
  std::vector<PhysRange> targets;
  {
    std::size_t done = 0;
    while (done < kCanaryBytes) {
      const Vaddr cur = canary_va + done;
      const auto pa = kernel_->page_table().translate(cur);
      if (!pa) throw GuestFault(cur);
      const std::uint64_t chunk =
          std::min<std::uint64_t>(kCanaryBytes - done,
                                  kPageSize - pa->page_offset());
      targets.push_back(PhysRange{pa->pfn(), pa->page_offset(), chunk});
      done += chunk;
    }
  }

  // Arm the expensive mem_access machinery -- only ever during replay.
  MemoryEventMonitor& monitor = vm.monitor();
  monitor.clear_watches();
  for (const auto& t : targets) monitor.watch_page(t.pfn);
  monitor.enable();

  for (std::size_t i = 0; i < log.size(); ++i) {
    const WriteOp& op = log[i];
    // Align the vCPU's instruction counter with the recording so trapped
    // events carry the original instruction index.
    vm.vcpu().instr_retired = op.instr_index - 1;
    kernel_->write_virt(op.va, op.data);
    ++result.ops_replayed;

    bool hit_canary_page = false;
    while (auto ev = monitor.poll()) {
      ++result.events_delivered;
      for (const auto& t : targets) {
        if (overlaps(t, *ev)) hit_canary_page = true;
      }
    }
    if (!hit_canary_page) continue;

    // A write landed on the canary bytes; is the canary now wrong? (The
    // allocator's own canary-placing store also lands here but leaves the
    // correct value -- section 5.5's verification step.)
    const auto value = kernel_->read_value<std::uint64_t>(canary_va);
    if (value != expected) {
      result.found = true;
      result.instr_index = op.instr_index;
      result.op_index = i;
      result.write_va = op.va;
      result.write_len = op.data.size();
      result.corrupt_value = value;
      break;
    }
  }

  monitor.disable();
  monitor.clear_watches();
  vm.pause();  // frozen at the attack instant (or epoch end if not found)

  result.replay_cost =
      Nanos{static_cast<std::int64_t>(
          static_cast<double>((costs_->replay_per_op * result.ops_replayed)
                                  .count()) *
          costs_->replay_slowdown)} +
      costs_->mem_event_deliver * result.events_delivered;
  clock_->advance(result.replay_cost);

  if (result.found) {
    CRIMES_LOG(Info, "replay") << "pinpointed corrupting write: instr "
                               << result.instr_index << ", op "
                               << result.op_index;
  } else {
    CRIMES_LOG(Warn, "replay") << "replayed " << result.ops_replayed
                               << " ops without reproducing the corruption";
  }
  return result;
}

}  // namespace crimes
