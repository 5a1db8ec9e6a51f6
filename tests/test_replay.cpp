// Unit tests: execution recording and rollback-and-replay pinpointing.
#include "checkpoint/checkpointer.h"
#include "common/rng.h"
#include "replay/recorder.h"
#include "replay/replay_engine.h"
#include "store/checkpoint_store.h"
#include "test_helpers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>

// Every heap allocation in the test binary (test_telemetry.cpp).
extern std::atomic<std::uint64_t> g_heap_allocs;

namespace crimes {
namespace {

using testing::TestGuest;

struct ReplayFixture {
  ReplayFixture()
      : guest(),
        cp(guest.hypervisor, *guest.vm, clock, CostModel::defaults(),
           CheckpointConfig::full()),
        engine(*guest.kernel, cp, clock, CostModel::defaults()) {
    cp.initialize();
    guest.kernel->set_write_observer(
        [this](Vaddr va, std::span<const std::byte> data,
               std::uint64_t instr) { recorder.record(va, data, instr); });
    recorder.enable();
  }

  void fail_epoch() {
    (void)cp.run_checkpoint([](std::span<const Pfn>, Nanos) {
      return AuditResult{.passed = false, .cost = Nanos{0}};
    });
  }

  TestGuest guest;
  SimClock clock;
  Checkpointer cp;
  ExecutionRecorder recorder;
  ReplayEngine engine;
};

TEST(Recorder, CapturesWritesWithInstructionIndices) {
  ReplayFixture f;
  f.recorder.begin_epoch();
  const Vaddr heap = f.guest.kernel->layout().va_of(
      f.guest.kernel->layout().heap_base);
  f.guest.kernel->write_value<std::uint64_t>(heap, 1ULL);
  f.guest.kernel->write_value<std::uint64_t>(heap + 8, 2ULL);
  ASSERT_EQ(f.recorder.op_count(), 2u);
  EXPECT_EQ(f.recorder.ops()[0].va, heap);
  EXPECT_EQ(f.recorder.ops()[1].instr_index,
            f.recorder.ops()[0].instr_index + 1);
  EXPECT_EQ(f.recorder.bytes_logged(), 16u);

  f.recorder.begin_epoch();
  EXPECT_EQ(f.recorder.op_count(), 0u);
}

TEST(Recorder, DisabledRecordsNothing) {
  ReplayFixture f;
  f.recorder.disable();
  f.recorder.begin_epoch();
  const Vaddr heap = f.guest.kernel->layout().va_of(
      f.guest.kernel->layout().heap_base);
  f.guest.kernel->write_value<std::uint64_t>(heap, 1ULL);
  EXPECT_EQ(f.recorder.op_count(), 0u);
}

TEST(Recorder, SteadyEpochAllocatesNothing) {
  ReplayFixture f;
  const Vaddr heap = f.guest.kernel->layout().va_of(
      f.guest.kernel->layout().heap_base);
  // More small writes than one arena block holds, then one write larger
  // than a block.
  const std::vector<std::byte> big(ExecutionRecorder::kBlockBytes * 3 / 2,
                                   std::byte{0x5A});
  const auto epoch = [&] {
    f.recorder.begin_epoch();
    for (std::uint64_t i = 0; i < 10'000; ++i) {
      f.guest.kernel->write_value<std::uint64_t>(heap + 8 * i, i);
    }
    f.guest.kernel->write_virt(heap + 0x20000, big);
  };
  epoch();  // sizes the arena and the op vector
  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  epoch();
  const std::uint64_t after = g_heap_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
  ASSERT_EQ(f.recorder.op_count(), 10'001u);
  EXPECT_TRUE(std::ranges::equal(f.recorder.ops().back().data, big));
}

TEST(Recorder, SpansStayIntactAcrossBlocksAndOversizeWrites) {
  ExecutionRecorder recorder;
  recorder.enable();
  Rng rng(7);
  for (int epoch = 0; epoch < 2; ++epoch) {
    recorder.begin_epoch();
    std::vector<std::vector<std::byte>> written;
    const auto write = [&](std::size_t n) {
      std::vector<std::byte> bytes(n);
      for (auto& b : bytes) b = std::byte(rng.next_below(256));
      recorder.record(Vaddr{kVaBase + 8 * written.size()}, bytes,
                      written.size());
      written.push_back(std::move(bytes));
    };
    std::size_t total = 0;
    while (total < 2 * ExecutionRecorder::kBlockBytes) {
      write(1 + rng.next_below(1000));
      total += written.back().size();
    }
    write(ExecutionRecorder::kBlockBytes + 123);
    for (int i = 0; i < 50; ++i) write(1 + rng.next_below(1000));
    write(0);

    // Every span still holds its bytes after everything recorded later,
    // and at least one write moved on to a fresh block.
    ASSERT_EQ(recorder.op_count(), written.size());
    bool crossed = false;
    for (std::size_t i = 0; i < written.size(); ++i) {
      const WriteOp& op = recorder.ops()[i];
      EXPECT_EQ(op.instr_index, i);
      EXPECT_TRUE(std::ranges::equal(op.data, written[i])) << "op " << i;
      if (i > 0 && !op.data.empty() &&
          recorder.ops()[i - 1].data.data() +
                  recorder.ops()[i - 1].data.size() !=
              op.data.data()) {
        crossed = true;
      }
    }
    EXPECT_TRUE(crossed);
  }
}

TEST(Replay, PinpointsTheExactCorruptingWrite) {
  ReplayFixture f;
  HeapAllocator& heap = f.guest.kernel->heap();
  const Vaddr victim = heap.malloc(128);
  const Vaddr canary = victim + 128;
  (void)f.cp.run_checkpoint({});  // clean checkpoint after allocation

  f.recorder.begin_epoch();
  // Benign traffic before and after the attack.
  f.guest.kernel->write_value<std::uint64_t>(victim, 1ULL);
  f.guest.kernel->write_value<std::uint64_t>(victim + 64, 2ULL);
  const std::uint64_t attack_instr =
      f.guest.kernel->attack_heap_overflow(victim, 128, 24);
  f.guest.kernel->write_value<std::uint64_t>(victim + 8, 3ULL);
  f.fail_epoch();

  f.recorder.disable();
  const std::uint64_t expected = heap.expected_canary(canary);
  const PinpointResult result = f.engine.pinpoint_canary_corruption(
      f.recorder.ops(), canary, expected);

  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.instr_index, attack_instr);
  EXPECT_EQ(result.write_va, victim + 128);  // the overflowing tail write
  EXPECT_NE(result.corrupt_value, expected);
  EXPECT_EQ(f.guest.vm->state(), VmState::Paused);
  // Stopped AT the attack: the later benign write was never replayed.
  EXPECT_LT(result.ops_replayed, f.recorder.op_count());
  EXPECT_GT(result.replay_cost.count(), 0);
}

TEST(Replay, AllocatorCanaryStoreIsNotMisattributed) {
  // If the victim is allocated *inside* the failed epoch, the allocator's
  // own canary-placing store hits the watched page first -- with the
  // correct value. Replay must keep going to the real corruption.
  ReplayFixture f;
  (void)f.cp.run_checkpoint({});

  f.recorder.begin_epoch();
  HeapAllocator& heap = f.guest.kernel->heap();
  const Vaddr victim = heap.malloc(64);
  const Vaddr canary = victim + 64;
  const std::uint64_t attack_instr =
      f.guest.kernel->attack_heap_overflow(victim, 64, 8);
  f.fail_epoch();

  f.recorder.disable();
  const PinpointResult result = f.engine.pinpoint_canary_corruption(
      f.recorder.ops(), canary, heap.expected_canary(canary));
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.instr_index, attack_instr);
  EXPECT_GT(result.events_delivered, 1u);  // saw the benign store too
}

TEST(Replay, NoCorruptionMeansNotFound) {
  ReplayFixture f;
  HeapAllocator& heap = f.guest.kernel->heap();
  const Vaddr obj = heap.malloc(64);
  const Vaddr canary = obj + 64;
  (void)f.cp.run_checkpoint({});

  f.recorder.begin_epoch();
  f.guest.kernel->write_value<std::uint64_t>(obj, 42ULL);  // benign only
  f.fail_epoch();  // spurious audit failure

  f.recorder.disable();
  const PinpointResult result = f.engine.pinpoint_canary_corruption(
      f.recorder.ops(), canary, heap.expected_canary(canary));
  EXPECT_FALSE(result.found);
  EXPECT_EQ(result.ops_replayed, f.recorder.op_count());
  EXPECT_EQ(f.guest.vm->state(), VmState::Paused);
}

TEST(Replay, MonitorDisabledAfterReplay) {
  ReplayFixture f;
  HeapAllocator& heap = f.guest.kernel->heap();
  const Vaddr victim = heap.malloc(32);
  (void)f.cp.run_checkpoint({});
  f.recorder.begin_epoch();
  (void)f.guest.kernel->attack_heap_overflow(victim, 32, 8);
  f.fail_epoch();
  f.recorder.disable();
  (void)f.engine.pinpoint_canary_corruption(
      f.recorder.ops(), victim + 32, heap.expected_canary(victim + 32));
  EXPECT_FALSE(f.guest.vm->monitor().enabled())
      << "expensive event monitoring must not stay on (section 4.2)";
}

TEST(Replay, PinpointsFromAnOlderStoredGeneration) {
  // With the checkpoint store enabled, replay can rebase on *any* retained
  // generation, not just the newest backup: record across two epochs,
  // rewind two generations back, and replay the whole log from there.
  TestGuest guest;
  SimClock clock;
  CheckpointConfig config = CheckpointConfig::full();
  config.store.enabled = true;
  Checkpointer cp(guest.hypervisor, *guest.vm, clock, CostModel::defaults(),
                  config);
  ExecutionRecorder recorder;
  ReplayEngine engine(*guest.kernel, cp, clock, CostModel::defaults());
  cp.initialize();
  guest.kernel->set_write_observer(
      [&recorder](Vaddr va, std::span<const std::byte> data,
                  std::uint64_t instr) { recorder.record(va, data, instr); });
  recorder.enable();

  HeapAllocator& heap = guest.kernel->heap();
  const Vaddr victim = heap.malloc(128);
  const Vaddr canary = victim + 128;
  ASSERT_TRUE(cp.run_checkpoint({}).checkpoint_committed);  // generation 1

  // Record across TWO epochs without resetting: the log spans everything
  // since generation 1 committed.
  recorder.begin_epoch();
  guest.kernel->write_value<std::uint64_t>(victim, 1ULL);
  ASSERT_TRUE(cp.run_checkpoint({}).checkpoint_committed);  // generation 2
  guest.kernel->write_value<std::uint64_t>(victim + 8, 2ULL);
  const std::uint64_t attack_instr =
      guest.kernel->attack_heap_overflow(victim, 128, 16);
  (void)cp.run_checkpoint([](std::span<const Pfn>, Nanos) {
    return AuditResult{.passed = false, .cost = Nanos{0}};
  });

  recorder.disable();
  const PinpointResult result = engine.pinpoint_canary_corruption(
      recorder.ops(), canary, heap.expected_canary(canary),
      /*from_generation=*/1);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.instr_index, attack_instr);
  // The rewind rewrote the timeline: generation 2 is gone from the store.
  ASSERT_NE(cp.store(), nullptr);
  EXPECT_TRUE(cp.store()->has_generation(1));
  EXPECT_FALSE(cp.store()->has_generation(2));
}

TEST(Replay, ReplayedStateMatchesFailedEpochState) {
  // Replaying the full write log after rollback reproduces the same final
  // memory contents the failed epoch left behind.
  ReplayFixture f;
  HeapAllocator& heap = f.guest.kernel->heap();
  const Vaddr victim = heap.malloc(64);
  const Vaddr canary = victim + 64;
  (void)f.cp.run_checkpoint({});

  f.recorder.begin_epoch();
  f.guest.kernel->write_value<std::uint64_t>(victim, 0x11ULL);
  (void)f.guest.kernel->attack_heap_overflow(victim, 64, 16);
  f.fail_epoch();

  // Snapshot "bad" state.
  const auto corrupt_value = [&] {
    std::uint64_t v;
    std::vector<std::byte> buf(8);
    const auto pa = f.guest.kernel->page_table().translate(canary);
    f.guest.vm->read_phys(*pa, buf);
    std::memcpy(&v, buf.data(), 8);
    return v;
  }();

  f.recorder.disable();
  const PinpointResult result = f.engine.pinpoint_canary_corruption(
      f.recorder.ops(), canary, heap.expected_canary(canary));
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.corrupt_value, corrupt_value);
}

}  // namespace
}  // namespace crimes
