// Execution recorder: logs every guest virtual-memory write during the
// current epoch so the ReplayEngine can re-execute the epoch after a
// rollback.
//
// The paper notes CRIMES "does not guarantee deterministic replay"
// (section 6); like the prototype, we replay the *memory write log*, which
// is exactly enough to re-trigger and pinpoint evidence-producing writes
// such as a canary corruption.
//
// Payloads are copied into arena blocks that the recorder keeps from epoch
// to epoch, so once the blocks exist an epoch logs without allocating.
#pragma once

#include "common/types.h"

#include <cstdint>
#include <span>
#include <vector>

namespace crimes {

struct WriteOp {
  std::uint64_t instr_index = 0;
  Vaddr va;
  // The written bytes, in the recorder's arena. Valid and unchanged until
  // the recorder's next begin_epoch(): later records never move them.
  std::span<const std::byte> data;
};

class ExecutionRecorder {
 public:
  // Payload bytes per arena block; a larger write gets a block of its own.
  static constexpr std::size_t kBlockBytes = 64 * 1024;

  void enable() { enabled_ = true; }
  void disable() { enabled_ = false; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  // Called at each epoch boundary: the previous epoch was committed, so its
  // log can never be needed again. Ends the lifetime of every WriteOp::data
  // handed out so far; the arena is reused from its first block.
  void begin_epoch() {
    ops_.clear();
    block_ = 0;
    used_ = 0;
  }

  void record(Vaddr va, std::span<const std::byte> data,
              std::uint64_t instr_index);

  [[nodiscard]] const std::vector<WriteOp>& ops() const { return ops_; }
  [[nodiscard]] std::size_t op_count() const { return ops_.size(); }
  [[nodiscard]] std::uint64_t bytes_logged() const { return bytes_logged_; }

 private:
  // Copies `data` into the arena and returns the copy.
  std::span<const std::byte> store(std::span<const std::byte> data);

  bool enabled_ = false;
  std::vector<WriteOp> ops_;
  std::vector<std::vector<std::byte>> blocks_;  // kept across epochs
  std::size_t block_ = 0;  // the block being filled this epoch
  std::size_t used_ = 0;   // bytes of it filled
  std::uint64_t bytes_logged_ = 0;
};

}  // namespace crimes
