// Unit + property tests: the Checkpointer. Core invariant (DESIGN.md #1):
// after every committed epoch the backup image is byte-identical to the
// primary at suspend time, for every transport/optimization combination.
#include "checkpoint/checkpointer.h"
#include "checkpoint/undo_log.h"
#include "common/rng.h"
#include "test_helpers.h"

#include <gtest/gtest.h>

namespace crimes {
namespace {

using testing::TestGuest;

bool images_identical(Vm& a, Vm& b) {
  if (a.page_count() != b.page_count()) return false;
  for (std::size_t i = 0; i < a.page_count(); ++i) {
    if (!(a.page(Pfn{i}) == b.page(Pfn{i}))) return false;
  }
  return true;
}

void scribble(GuestKernel& kernel, Rng& rng, int writes) {
  const GuestLayout& layout = kernel.layout();
  const Vaddr heap = layout.va_of(layout.heap_base);
  for (int i = 0; i < writes; ++i) {
    const std::uint64_t off =
        rng.next_below(layout.heap_pages * kPageSize / 8 - 1) * 8;
    kernel.write_value<std::uint64_t>(heap + off, rng.next_u64());
  }
}

// All four optimization stacks the paper evaluates (Figure 4).
std::vector<CheckpointConfig> all_schemes() {
  return {CheckpointConfig::no_opt(), CheckpointConfig::memcpy_only(),
          CheckpointConfig::premap(), CheckpointConfig::full()};
}

class CheckpointFidelity : public ::testing::TestWithParam<int> {};

TEST_P(CheckpointFidelity, BackupIdenticalAfterEveryEpoch) {
  const CheckpointConfig config = all_schemes()[GetParam()];
  TestGuest guest;
  SimClock clock;
  Checkpointer cp(guest.hypervisor, *guest.vm, clock,
                  CostModel::defaults(), config);
  cp.initialize();
  EXPECT_TRUE(images_identical(*guest.vm, cp.backup()));

  Rng rng(GetParam() * 101 + 1);
  for (int epoch = 0; epoch < 5; ++epoch) {
    scribble(*guest.kernel, rng, 200);
    guest.vm->vcpu().gpr[3] = rng.next_u64();
    const EpochResult result = cp.run_checkpoint({});
    EXPECT_TRUE(result.audit_passed);
    EXPECT_GT(result.dirty.size(), 0u);
    EXPECT_TRUE(images_identical(*guest.vm, cp.backup()))
        << config.label() << " epoch " << epoch;
    EXPECT_EQ(cp.backup_vcpu(), guest.vm->vcpu());
  }
  EXPECT_EQ(cp.checkpoints_taken(), 5u);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, CheckpointFidelity,
                         ::testing::Range(0, 4));

TEST(Checkpointer, DirtyBitmapClearedAfterCommit) {
  TestGuest guest;
  SimClock clock;
  Checkpointer cp(guest.hypervisor, *guest.vm, clock, CostModel::defaults(),
                  CheckpointConfig::full());
  cp.initialize();
  Rng rng(7);
  scribble(*guest.kernel, rng, 50);
  EXPECT_GT(guest.vm->dirty_bitmap().dirty_count(), 0u);
  (void)cp.run_checkpoint({});
  EXPECT_EQ(guest.vm->dirty_bitmap().dirty_count(), 0u);
}

TEST(Checkpointer, AuditFailureLeavesBackupCleanAndVmPaused) {
  TestGuest guest;
  SimClock clock;
  Checkpointer cp(guest.hypervisor, *guest.vm, clock, CostModel::defaults(),
                  CheckpointConfig::full());
  cp.initialize();

  Rng rng(11);
  scribble(*guest.kernel, rng, 50);
  (void)cp.run_checkpoint({});  // commit a clean epoch

  // Capture the backup state, then dirty the primary and fail the audit.
  std::vector<Page> backup_before(cp.backup().page_count());
  for (std::size_t i = 0; i < cp.backup().page_count(); ++i) {
    backup_before[i] = cp.backup().page(Pfn{i});
  }
  scribble(*guest.kernel, rng, 80);
  const EpochResult result = cp.run_checkpoint(
      [](std::span<const Pfn>, Nanos) {
        return AuditResult{.passed = false, .cost = micros(100)};
      });
  EXPECT_FALSE(result.audit_passed);
  EXPECT_EQ(guest.vm->state(), VmState::Paused);
  // Backup untouched by the poisoned epoch.
  for (std::size_t i = 0; i < cp.backup().page_count(); ++i) {
    ASSERT_EQ(cp.backup().page(Pfn{i}), backup_before[i]);
  }
  // Dirty bitmap retained for rollback.
  EXPECT_GT(guest.vm->dirty_bitmap().dirty_count(), 0u);
}

TEST(Checkpointer, RollbackRestoresExactState) {
  TestGuest guest;
  SimClock clock;
  Checkpointer cp(guest.hypervisor, *guest.vm, clock, CostModel::defaults(),
                  CheckpointConfig::full());
  cp.initialize();

  Rng rng(13);
  scribble(*guest.kernel, rng, 60);
  guest.vm->vcpu().gpr[5] = 0xAAAA;
  (void)cp.run_checkpoint({});

  std::vector<Page> clean(guest.vm->page_count());
  for (std::size_t i = 0; i < guest.vm->page_count(); ++i) {
    clean[i] = guest.vm->page(Pfn{i});
  }
  const VcpuState clean_vcpu = guest.vm->vcpu();

  scribble(*guest.kernel, rng, 120);
  guest.vm->vcpu().gpr[5] = 0xBBBB;
  (void)cp.run_checkpoint([](std::span<const Pfn>, Nanos) {
    return AuditResult{.passed = false, .cost = Nanos{0}};
  });

  cp.rollback();
  for (std::size_t i = 0; i < guest.vm->page_count(); ++i) {
    ASSERT_EQ(guest.vm->page(Pfn{i}), clean[i]) << "page " << i;
  }
  EXPECT_EQ(guest.vm->vcpu(), clean_vcpu);
  EXPECT_EQ(guest.vm->state(), VmState::Paused);
  EXPECT_EQ(guest.vm->dirty_bitmap().dirty_count(), 0u);
}

TEST(Checkpointer, RollbackRequiresPausedVm) {
  TestGuest guest;
  SimClock clock;
  Checkpointer cp(guest.hypervisor, *guest.vm, clock, CostModel::defaults(),
                  CheckpointConfig::full());
  cp.initialize();
  EXPECT_THROW((void)cp.rollback(), std::logic_error);
}

TEST(Checkpointer, CostShapesMatchFigure4) {
  // For the same dirty set: No-opt pause >> Full pause; copy dominates
  // No-opt; bitscan collapses with Optimization 3; map collapses with
  // Optimization 2.
  std::vector<PhaseCosts> costs;
  for (const auto& config : all_schemes()) {
    TestGuest guest;
    SimClock clock;
    Checkpointer cp(guest.hypervisor, *guest.vm, clock,
                    CostModel::defaults(), config);
    cp.initialize();
    Rng rng(99);
    scribble(*guest.kernel, rng, 2000);
    costs.push_back(cp.run_checkpoint({}).costs);
  }
  const PhaseCosts& no_opt = costs[0];
  const PhaseCosts& memcpy_only = costs[1];
  const PhaseCosts& premap = costs[2];
  const PhaseCosts& full = costs[3];

  EXPECT_GT(no_opt.pause_total(), full.pause_total() * 2);
  EXPECT_GT(no_opt.copy, memcpy_only.copy * 5);
  EXPECT_GT(memcpy_only.map, no_opt.map);  // maps both sides
  EXPECT_LT(premap.map, memcpy_only.map / 10);
  // The 8 MiB test guest has a dense bitmap, so the chunked-scan win is
  // modest here; the paper-scale ~20x win on a sparse 1 GiB guest is
  // exercised by bench/fig6b_bitmap_scan.
  EXPECT_LT(full.bitscan, premap.bitscan / 2);
  // Copy is the dominant share of No-opt (paper: ~70%).
  EXPECT_GT(to_ms(no_opt.copy) / to_ms(no_opt.pause_total()), 0.5);
}

TEST(Checkpointer, PremapShiftsCostToStartup) {
  TestGuest guest1, guest2;
  SimClock c1, c2;
  Checkpointer without(guest1.hypervisor, *guest1.vm, c1,
                       CostModel::defaults(), CheckpointConfig::memcpy_only());
  Checkpointer with(guest2.hypervisor, *guest2.vm, c2, CostModel::defaults(),
                    CheckpointConfig::premap());
  without.initialize();
  with.initialize();
  EXPECT_GT(with.startup_cost(), without.startup_cost());
}

TEST(Checkpointer, PremapWithoutMemcpyRejected) {
  TestGuest guest;
  SimClock clock;
  CheckpointConfig bad;
  bad.opt_premap = true;
  EXPECT_THROW(Checkpointer(guest.hypervisor, *guest.vm, clock,
                            CostModel::defaults(), bad),
               std::invalid_argument);
}

TEST(Checkpointer, ClockAdvancesByPauseTime) {
  TestGuest guest;
  SimClock clock;
  Checkpointer cp(guest.hypervisor, *guest.vm, clock, CostModel::defaults(),
                  CheckpointConfig::full());
  cp.initialize();
  const Nanos before = clock.now();
  Rng rng(3);
  scribble(*guest.kernel, rng, 100);
  const EpochResult result = cp.run_checkpoint({});
  EXPECT_EQ(clock.now() - before, result.costs.pause_total());
}

// A small image for the UndoLog tests; never-written frames stay unbacked.
struct UndoImage {
  Hypervisor hypervisor{1u << 12};
  Vm& vm = hypervisor.create_domain("undo-image", 16);
  ForeignMapping map{vm};

  void fill(Pfn pfn, std::uint8_t value) {
    map.page(pfn).data.fill(std::byte{value});
  }
  static Page filled(std::uint8_t value) {
    Page page;
    page.data.fill(std::byte{value});
    return page;
  }
};

TEST(UndoLog, RoundTripRestoresCapturedBytesAndZeroesNeverBackedFrames) {
  UndoImage image;
  image.fill(Pfn{1}, 0x11);
  image.fill(Pfn{2}, 0x22);
  UndoLog undo;
  for (const Pfn pfn : {Pfn{1}, Pfn{2}, Pfn{3}}) undo.capture(image.map, pfn);
  EXPECT_EQ(undo.size(), 3u);
  EXPECT_FALSE(image.map.is_backed(Pfn{3}));  // capture never materializes

  for (const Pfn pfn : {Pfn{1}, Pfn{2}, Pfn{3}, Pfn{4}}) image.fill(pfn, 0xFF);
  undo.restore(image.map);
  EXPECT_EQ(image.map.peek(Pfn{1}), UndoImage::filled(0x11));
  EXPECT_EQ(image.map.peek(Pfn{2}), UndoImage::filled(0x22));
  EXPECT_EQ(image.map.peek(Pfn{3}), Page{});  // never backed: zeroes
  EXPECT_EQ(image.map.peek(Pfn{4}), UndoImage::filled(0xFF));  // not captured
}

TEST(UndoLog, PfnCapturedTwiceRestoresToItsOldestBytes) {
  UndoImage image;
  UndoLog undo;
  image.fill(Pfn{5}, 0xA1);
  undo.capture(image.map, Pfn{5});
  image.fill(Pfn{5}, 0xA2);
  undo.capture(image.map, Pfn{5});
  image.fill(Pfn{5}, 0xA3);
  undo.restore(image.map);
  EXPECT_EQ(image.map.peek(Pfn{5}), UndoImage::filled(0xA1));
}

TEST(UndoLog, ReusedAfterClearRestoresOnlyItsOwnPages) {
  UndoImage image;
  UndoLog undo;
  for (std::size_t i = 0; i < 8; ++i) {
    image.fill(Pfn{i}, static_cast<std::uint8_t>(0x10 + i));
    undo.capture(image.map, Pfn{i});
  }
  undo.clear();
  EXPECT_EQ(undo.size(), 0u);

  // The second use is smaller than the first: only its own two pages may
  // come back, never the stale captures still sitting in the arena.
  image.fill(Pfn{2}, 0x52);
  image.fill(Pfn{3}, 0x53);
  undo.capture(image.map, Pfn{2});
  undo.capture(image.map, Pfn{3});
  for (std::size_t i = 0; i < 8; ++i) image.fill(Pfn{i}, 0xEE);
  undo.restore(image.map);
  EXPECT_EQ(undo.size(), 2u);
  for (std::size_t i = 0; i < 8; ++i) {
    const std::uint8_t want = i == 2 ? 0x52 : i == 3 ? 0x53 : 0xEE;
    EXPECT_EQ(image.map.peek(Pfn{i}), UndoImage::filled(want)) << "pfn " << i;
  }
}

TEST(Checkpointer, UninitializedUseRejected) {
  TestGuest guest;
  SimClock clock;
  Checkpointer cp(guest.hypervisor, *guest.vm, clock, CostModel::defaults(),
                  CheckpointConfig::full());
  EXPECT_THROW((void)cp.run_checkpoint({}), std::logic_error);
  EXPECT_THROW((void)cp.backup(), std::logic_error);
  cp.initialize();
  EXPECT_THROW(cp.initialize(), std::logic_error);
}

TEST(Checkpointer, RollbackAfterMultipleCommittedEpochs) {
  TestGuest guest;
  SimClock clock;
  Checkpointer cp(guest.hypervisor, *guest.vm, clock, CostModel::defaults(),
                  CheckpointConfig::full());
  cp.initialize();

  // Three committed epochs; rollback must land on the *third*, not the
  // first.
  Rng rng(23);
  for (int epoch = 0; epoch < 3; ++epoch) {
    scribble(*guest.kernel, rng, 80);
    guest.vm->vcpu().gpr[5] = 0x100 + static_cast<std::uint64_t>(epoch);
    ASSERT_TRUE(cp.run_checkpoint({}).checkpoint_committed);
  }
  std::vector<Page> clean(guest.vm->page_count());
  const Vm& view = *guest.vm;
  for (std::size_t i = 0; i < view.page_count(); ++i) {
    clean[i] = view.page(Pfn{i});
  }
  const VcpuState clean_vcpu = guest.vm->vcpu();

  scribble(*guest.kernel, rng, 150);
  guest.vm->vcpu().gpr[5] = 0xBAD;
  (void)cp.run_checkpoint([](std::span<const Pfn>, Nanos) {
    return AuditResult{.passed = false, .cost = Nanos{0}};
  });

  (void)cp.rollback();
  for (std::size_t i = 0; i < view.page_count(); ++i) {
    ASSERT_EQ(view.page(Pfn{i}), clean[i]) << "page " << i;
  }
  EXPECT_EQ(guest.vm->vcpu(), clean_vcpu);
  EXPECT_EQ(guest.vm->vcpu().gpr[5], 0x102u);

  // The rolled-back VM checkpoints cleanly again and epochs stay
  // monotonic.
  guest.vm->unpause();
  scribble(*guest.kernel, rng, 40);
  ASSERT_TRUE(cp.run_checkpoint({}).checkpoint_committed);
  EXPECT_EQ(cp.checkpoints_taken(), 4u);
  EXPECT_TRUE(images_identical(*guest.vm, cp.backup()));
}

TEST(Checkpointer, FailoverPromotesLastCommittedCheckpoint) {
  TestGuest guest;
  SimClock clock;
  Checkpointer cp(guest.hypervisor, *guest.vm, clock, CostModel::defaults(),
                  CheckpointConfig::full());
  cp.initialize();

  Rng rng(29);
  scribble(*guest.kernel, rng, 80);
  guest.vm->vcpu().gpr[2] = 0x5EED;
  ASSERT_TRUE(cp.run_checkpoint({}).checkpoint_committed);

  // The committed image, captured from the backup before the "crash".
  std::vector<Page> committed(cp.backup().page_count());
  const Vm& backup_view = cp.backup();
  for (std::size_t i = 0; i < backup_view.page_count(); ++i) {
    committed[i] = backup_view.page(Pfn{i});
  }
  const VcpuState committed_vcpu = cp.backup_vcpu();

  // Speculative work since the last checkpoint is lost by design.
  scribble(*guest.kernel, rng, 100);
  const DomainId primary_id = guest.vm->id();

  Vm& promoted = cp.failover();
  EXPECT_FALSE(guest.hypervisor.has_domain(primary_id));
  EXPECT_EQ(promoted.state(), VmState::Running);
  EXPECT_EQ(promoted.vcpu(), committed_vcpu);
  const Vm& promoted_view = promoted;
  for (std::size_t i = 0; i < promoted_view.page_count(); ++i) {
    ASSERT_EQ(promoted_view.page(Pfn{i}), committed[i]) << "page " << i;
  }

  // The Checkpointer surrendered its backup: further epochs are rejected
  // until a new pair is initialized.
  EXPECT_THROW((void)cp.backup(), std::logic_error);
  EXPECT_THROW((void)cp.run_checkpoint({}), std::logic_error);
}

TEST(Checkpointer, FailoverBeforeInitializeRejected) {
  TestGuest guest;
  SimClock clock;
  Checkpointer cp(guest.hypervisor, *guest.vm, clock, CostModel::defaults(),
                  CheckpointConfig::full());
  EXPECT_THROW((void)cp.failover(), std::logic_error);
}

TEST(SocketTransport, StreamsBytesAndStillProducesIdenticalImage) {
  TestGuest guest;
  SimClock clock;
  Checkpointer cp(guest.hypervisor, *guest.vm, clock, CostModel::defaults(),
                  CheckpointConfig::no_opt());
  cp.initialize();
  Rng rng(21);
  scribble(*guest.kernel, rng, 100);
  const EpochResult result = cp.run_checkpoint({});
  EXPECT_TRUE(images_identical(*guest.vm, cp.backup()));
  // The checkpointer pays Remus's socket price (~10 us/page vs memcpy's
  // sub-microsecond) for every dirty page, each sent as one pfn + page
  // record.
  ASSERT_GT(result.dirty.size(), 0u);
  EXPECT_EQ(result.costs.copy,
            CostModel::defaults().copy_socket_per_page * result.dirty.size());
  const auto& socket = dynamic_cast<const SocketTransport&>(cp.transport());
  EXPECT_EQ(socket.bytes_streamed(),
            result.dirty.size() * (sizeof(std::uint64_t) + kPageSize));
}

}  // namespace
}  // namespace crimes
