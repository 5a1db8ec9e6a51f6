// Unit + property tests: speculative copy-on-write checkpointing
// (DESIGN.md section 12). Core invariant: every committed CoW checkpoint
// is byte-identical to what the stop-copy path would have produced for
// the same write stream -- under first-touch storms, injected transport
// faults and torn writes, defensive barriers, and failover mid-drain.
#include "checkpoint/checkpointer.h"
#include "checkpoint/cow_checkpointer.h"
#include "common/rng.h"
#include "fault/fault_injector.h"
#include "store/checkpoint_store.h"
#include "store/page_store.h"
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

std::vector<Page> snapshot(Vm& vm) {
  std::vector<Page> pages(vm.page_count());
  for (std::size_t i = 0; i < vm.page_count(); ++i) {
    pages[i] = vm.page(Pfn{i});
  }
  return pages;
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

// The stop-copy/CoW twin harness: two identical guests fed the identical
// write stream (separate Rng instances, same seed), one checkpointed by
// the Full stop-copy scheme, the other by the speculative CoW scheme.
struct Twins {
  explicit Twins(CheckpointConfig cow_config = CheckpointConfig::cow())
      : stop_cp(stop.hypervisor, *stop.vm, stop_clock, CostModel::defaults(),
                CheckpointConfig::full()),
        cow_cp(cow.hypervisor, *cow.vm, cow_clock, CostModel::defaults(),
               cow_config) {
    stop_cp.initialize();
    cow_cp.initialize();
  }

  TestGuest stop;
  TestGuest cow;
  SimClock stop_clock;
  SimClock cow_clock;
  Checkpointer stop_cp;
  Checkpointer cow_cp;
};

TEST(CowCheckpoint, CowLabelAndValidation) {
  EXPECT_STREQ(CheckpointConfig::cow().label(), "CoW");
  CheckpointConfig bad = CheckpointConfig::no_opt();
  bad.speculative_cow = true;
  TestGuest guest;
  SimClock clock;
  EXPECT_THROW(Checkpointer(guest.hypervisor, *guest.vm, clock,
                            CostModel::defaults(), bad),
               std::invalid_argument);
}

TEST(CowCheckpoint, ByteIdenticalToStopCopyAcrossEpochs) {
  Twins twins;
  Rng stop_rng(42), cow_rng(42);
  for (int epoch = 0; epoch < 5; ++epoch) {
    scribble(*twins.stop.kernel, stop_rng, 200);
    scribble(*twins.cow.kernel, cow_rng, 200);

    const EpochResult stop_result = twins.stop_cp.run_checkpoint({});
    EXPECT_FALSE(stop_result.cow_pending);

    const EpochResult cow_result = twins.cow_cp.run_checkpoint({});
    EXPECT_TRUE(cow_result.cow_pending);
    EXPECT_TRUE(twins.cow_cp.cow_drain_pending());
    EXPECT_EQ(cow_result.dirty, stop_result.dirty);
    // The resume-first pause carries no map/copy phase.
    EXPECT_EQ(cow_result.costs.map, Nanos{0});
    EXPECT_EQ(cow_result.costs.copy, Nanos{0});
    EXPECT_GT(cow_result.costs.protect, Nanos{0});
    EXPECT_LT(cow_result.costs.pause_total(),
              stop_result.costs.pause_total());

    const CowCommit commit = twins.cow_cp.complete_cow_drain();
    EXPECT_TRUE(commit.committed);
    EXPECT_FALSE(twins.cow_cp.cow_drain_pending());
    EXPECT_EQ(commit.drained_pages, cow_result.dirty.size());
    EXPECT_TRUE(images_identical(twins.stop_cp.backup(),
                                 twins.cow_cp.backup()))
        << "epoch " << epoch;
    EXPECT_EQ(twins.stop_cp.backup_vcpu(), twins.cow_cp.backup_vcpu());
  }
  EXPECT_EQ(twins.cow_cp.checkpoints_taken(), 5u);
}

TEST(CowCheckpoint, FirstTouchStormStaysByteIdentical) {
  Twins twins;
  Rng stop_rng(7), cow_rng(7);
  Rng stop_storm(99), cow_storm(99);
  for (int epoch = 0; epoch < 5; ++epoch) {
    scribble(*twins.stop.kernel, stop_rng, 300);
    scribble(*twins.cow.kernel, cow_rng, 300);

    (void)twins.stop_cp.run_checkpoint({});
    (void)twins.cow_cp.run_checkpoint({});

    // The storm: the next epoch's writes land while the drain is pending,
    // re-writing many still-protected pages. Each first touch must copy
    // the *pre-write* bytes out before the write proceeds.
    scribble(*twins.cow.kernel, cow_storm, 400);
    const CowCommit commit = twins.cow_cp.complete_cow_drain();
    ASSERT_TRUE(commit.committed);
    EXPECT_GT(commit.first_touches, 0u);
    EXPECT_GT(commit.first_touch_cost, Nanos{0});
    EXPECT_TRUE(images_identical(twins.stop_cp.backup(),
                                 twins.cow_cp.backup()))
        << "epoch " << epoch;

    // Keep the twins in lockstep: the stop-copy guest receives the same
    // storm writes as part of its next epoch.
    scribble(*twins.stop.kernel, stop_storm, 400);
  }
}

TEST(CowCheckpoint, FirstTouchedPagesRemarkDirtyForNextEpoch) {
  TestGuest guest;
  SimClock clock;
  Checkpointer cp(guest.hypervisor, *guest.vm, clock, CostModel::defaults(),
                  CheckpointConfig::cow());
  cp.initialize();
  Rng rng(3);
  scribble(*guest.kernel, rng, 100);
  (void)cp.run_checkpoint({});
  EXPECT_EQ(guest.vm->dirty_bitmap().dirty_count(), 0u);
  // Writes during the drain mark the bitmap (they belong to the next
  // epoch) *and* force first-touch copies.
  scribble(*guest.kernel, rng, 100);
  EXPECT_GT(guest.vm->dirty_bitmap().dirty_count(), 0u);
  const CowCommit commit = cp.complete_cow_drain();
  EXPECT_TRUE(commit.committed);
  EXPECT_GT(guest.vm->dirty_bitmap().dirty_count(), 0u);
}

TEST(CowCheckpoint, DefensiveBarrierCompletesPendingDrain) {
  Twins twins;
  Rng stop_rng(11), cow_rng(11);
  for (int epoch = 0; epoch < 3; ++epoch) {
    scribble(*twins.stop.kernel, stop_rng, 150);
    scribble(*twins.cow.kernel, cow_rng, 150);
    (void)twins.stop_cp.run_checkpoint({});
    // Never call complete_cow_drain: the next run_checkpoint must settle
    // the previous drain itself before scanning.
    (void)twins.cow_cp.run_checkpoint({});
  }
  const CowCommit last = twins.cow_cp.complete_cow_drain();
  EXPECT_TRUE(last.committed);
  EXPECT_EQ(twins.cow_cp.checkpoints_taken(), 3u);
  EXPECT_TRUE(images_identical(twins.stop_cp.backup(),
                               twins.cow_cp.backup()));
}

TEST(CowCheckpoint, RollbackBarriersOnPendingDrain) {
  TestGuest guest;
  SimClock clock;
  Checkpointer cp(guest.hypervisor, *guest.vm, clock, CostModel::defaults(),
                  CheckpointConfig::cow());
  cp.initialize();
  Rng rng(17);
  scribble(*guest.kernel, rng, 100);
  (void)cp.run_checkpoint({});  // drain pending
  const std::vector<Page> at_checkpoint = snapshot(*guest.vm);
  const VcpuState vcpu_at_checkpoint = guest.vm->vcpu();

  scribble(*guest.kernel, rng, 100);  // speculative writes + first touches
  guest.vm->pause();
  (void)cp.rollback();  // must first commit the drain, then restore
  EXPECT_FALSE(cp.cow_drain_pending());
  for (std::size_t i = 0; i < guest.vm->page_count(); ++i) {
    ASSERT_EQ(guest.vm->page(Pfn{i}), at_checkpoint[i]) << "pfn " << i;
  }
  EXPECT_EQ(guest.vm->vcpu(), vcpu_at_checkpoint);
}

TEST(CowCheckpoint, FaultStormStaysByteIdenticalOrRestoresUntorn) {
  // Both twins run under the same deterministic fault plan: transport
  // aborts and torn writes confined to epochs [1, 5). The CoW drain must
  // retry through them exactly like stop-copy's copy loop -- drawing the
  // same faults, idle epochs included -- and when the epoch commits, the
  // images must still match bit for bit.
  for (const int idle_every : {0, 3}) {
    SCOPED_TRACE(idle_every == 0 ? "every epoch writes"
                                 : "every third epoch idle");
    fault::FaultPlan plan;
    plan.seed = 21;
    plan.transport_copy_fail = 0.4;
    plan.torn_write = 0.3;
    plan.from_epoch = 1;
    plan.until_epoch = 5;
    fault::FaultInjector stop_faults(plan);
    fault::FaultInjector cow_faults(plan);

    Twins twins;
    twins.stop_cp.set_fault_injector(&stop_faults);
    twins.cow_cp.set_fault_injector(&cow_faults);

    Rng stop_rng(23), cow_rng(23);
    std::size_t commits = 0;
    for (int epoch = 0; epoch < 7; ++epoch) {
      stop_faults.begin_epoch(epoch);
      cow_faults.begin_epoch(epoch);
      const bool idle = idle_every != 0 && epoch % idle_every == 2;
      if (!idle) {
        scribble(*twins.stop.kernel, stop_rng, 200);
        scribble(*twins.cow.kernel, cow_rng, 200);
      }

      const std::vector<Page> clean = snapshot(twins.cow_cp.backup());
      const EpochResult stop_result = twins.stop_cp.run_checkpoint({});
      (void)twins.cow_cp.run_checkpoint({});
      const CowCommit commit = twins.cow_cp.complete_cow_drain();

      // Identical fault decisions, identical outcome.
      for (const fault::FaultKind kind :
           {fault::FaultKind::TransportCopy, fault::FaultKind::TornWrite}) {
        EXPECT_EQ(cow_faults.injected(kind), stop_faults.injected(kind))
            << fault::to_string(kind) << ", epoch " << epoch;
      }
      EXPECT_EQ(commit.committed, stop_result.checkpoint_committed)
          << "epoch " << epoch;
      if (commit.committed) {
        ++commits;
        EXPECT_TRUE(images_identical(twins.stop_cp.backup(),
                                     twins.cow_cp.backup()))
            << "epoch " << epoch;
      } else {
        // Retries exhausted: the backup must be restored untorn to the
        // previous clean checkpoint, and the dirty set re-marked.
        const std::vector<Page> after = snapshot(twins.cow_cp.backup());
        for (std::size_t i = 0; i < after.size(); ++i) {
          ASSERT_EQ(after[i], clean[i]) << "pfn " << i;
        }
        EXPECT_EQ(twins.cow.vm->dirty_bitmap().dirty_count(),
                  stop_result.dirty.size());
      }
    }
    // The window closes at epoch 5; the tail epochs must commit and
    // reconverge the images.
    EXPECT_GT(commits, 0u);
    EXPECT_TRUE(images_identical(twins.stop_cp.backup(),
                                 twins.cow_cp.backup()));
    EXPECT_TRUE(images_identical(*twins.stop.vm, *twins.cow.vm));
  }
}

TEST(CowCheckpoint, MidDrainFaultWithFirstTouchesRestoresUntorn) {
  // Worst case for the undo discipline: the guest first-touches pages
  // (their primary sources are consumed), then every drain attempt fails.
  // The restore must put back the first-touched copies too.
  fault::FaultPlan plan;
  plan.seed = 5;
  plan.transport_copy_fail = 1.0;  // every attempt aborts
  fault::FaultInjector faults(plan);

  TestGuest guest;
  SimClock clock;
  Checkpointer cp(guest.hypervisor, *guest.vm, clock, CostModel::defaults(),
                  CheckpointConfig::cow());
  cp.initialize();
  cp.set_fault_injector(&faults);

  Rng rng(29);
  scribble(*guest.kernel, rng, 100);
  faults.begin_epoch(0);
  // Fault-free first epoch (probabilities only bite copy attempts, which
  // all abort -- so run it without the injector consulted: temporarily
  // detach).
  cp.set_fault_injector(nullptr);
  (void)cp.run_checkpoint({});
  (void)cp.complete_cow_drain();
  cp.set_fault_injector(&faults);
  const std::vector<Page> clean = snapshot(cp.backup());

  scribble(*guest.kernel, rng, 100);
  faults.begin_epoch(1);
  const EpochResult result = cp.run_checkpoint({});
  ASSERT_TRUE(result.cow_pending);
  scribble(*guest.kernel, rng, 200);  // force first touches mid-drain
  const CowCommit commit = cp.complete_cow_drain();
  EXPECT_FALSE(commit.committed);
  EXPECT_GT(commit.first_touches, 0u);
  EXPECT_GT(commit.copy_retries, 0u);
  const std::vector<Page> after = snapshot(cp.backup());
  for (std::size_t i = 0; i < after.size(); ++i) {
    ASSERT_EQ(after[i], clean[i]) << "pfn " << i;
  }
  EXPECT_GT(guest.vm->dirty_bitmap().dirty_count(), 0u);
}

TEST(CowCheckpoint, FailoverMidDrainPromotesLastCommittedCheckpoint) {
  // The first-touch handler saves every page it overwrites into the undo
  // log whatever the config, so abandon() restores the committed image
  // with or without a failure path (fault injection or verify_backup).
  for (const bool verify : {false, true}) {
    SCOPED_TRACE(verify ? "verify_backup" : "default cow()");
    TestGuest guest;
    SimClock clock;
    CheckpointConfig config = CheckpointConfig::cow();
    config.verify_backup = verify;
    Checkpointer cp(guest.hypervisor, *guest.vm, clock,
                    CostModel::defaults(), config);
    cp.initialize();

    Rng rng(31);
    scribble(*guest.kernel, rng, 100);
    (void)cp.run_checkpoint({});
    (void)cp.complete_cow_drain();
    const std::vector<Page> committed = snapshot(cp.backup());

    scribble(*guest.kernel, rng, 100);
    (void)cp.run_checkpoint({});  // drain pending
    scribble(*guest.kernel, rng, 150);  // first touches pollute the backup

    // The primary host dies mid-drain: the drain can never finish.
    guest.hypervisor.destroy_domain(guest.vm->id());
    Vm& promoted = cp.failover();
    EXPECT_EQ(promoted.state(), VmState::Running);
    for (std::size_t i = 0; i < promoted.page_count(); ++i) {
      ASSERT_EQ(promoted.page(Pfn{i}), committed[i]) << "pfn " << i;
    }
  }
}

TEST(CowCheckpoint, FusedDigestsMatchStoreDigests) {
  // The fused copy+hash must reproduce store::page_digest exactly -- the
  // store's dedup keys on it -- on the serial and the sharded drain.
  for (const std::size_t threads : {0, 4}) {
    SCOPED_TRACE(threads);
    TestGuest guest;
    SimClock clock;
    CheckpointConfig config = CheckpointConfig::cow();
    config.copy_threads = threads;
    config.store.enabled = true;
    Checkpointer cp(guest.hypervisor, *guest.vm, clock,
                    CostModel::defaults(), config);
    cp.initialize();

    Rng rng(37);
    for (int epoch = 0; epoch < 3; ++epoch) {
      scribble(*guest.kernel, rng, 150);
      const EpochResult result = cp.run_checkpoint({});
      (void)cp.complete_cow_drain();
      ASSERT_NE(cp.store(), nullptr);
      const auto& chain = cp.store()->chain();
      for (const Pfn pfn : result.dirty) {
        EXPECT_EQ(chain.digest_at(chain.size() - 1, pfn),
                  store::page_digest(cp.backup().page(pfn)).lo)
            << "pfn " << pfn.value();
      }
      EXPECT_TRUE(images_identical(*guest.vm, cp.backup()));
    }
  }
}

}  // namespace
}  // namespace crimes
