#include "replay/recorder.h"

#include <algorithm>
#include <cstring>

namespace crimes {

void ExecutionRecorder::record(Vaddr va, std::span<const std::byte> data,
                               std::uint64_t instr_index) {
  if (!enabled_) return;
  ops_.push_back(WriteOp{
      .instr_index = instr_index,
      .va = va,
      .data = store(data),
  });
  bytes_logged_ += data.size();
}

std::span<const std::byte> ExecutionRecorder::store(
    std::span<const std::byte> data) {
  if (data.empty()) return {};
  // Skip to the first block with room; blocks too small for this write
  // stay unused until the next epoch.
  while (block_ < blocks_.size() &&
         used_ + data.size() > blocks_[block_].size()) {
    ++block_;
    used_ = 0;
  }
  if (block_ == blocks_.size()) {
    blocks_.emplace_back(std::max(kBlockBytes, data.size()));
  }
  std::byte* dst = blocks_[block_].data() + used_;
  std::memcpy(dst, data.data(), data.size());
  used_ += data.size();
  return {dst, data.size()};
}

}  // namespace crimes
