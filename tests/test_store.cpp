// Unit + property tests: the content-addressed checkpoint store
// (DESIGN.md section 10). Central invariant: every retained generation
// materializes byte-identical to the primary's state when that epoch
// committed -- across dedup, delta compression, GC merges and time-travel
// rollback, under serial and parallel hashing.
#include "checkpoint/checkpointer.h"
#include "common/rng.h"
#include "forensics/store_timeline.h"
#include "store/checkpoint_store.h"
#include "store/generation_chain.h"
#include "store/page_store.h"
#include "test_helpers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

namespace crimes {
namespace {

using store::CheckpointStore;
using store::Generation;
using store::GenerationChain;
using store::kZeroDigest;
using store::page_digest;
using store::PageStore;
using store::RetentionPolicy;
using testing::TestGuest;

Page random_page(Rng& rng) {
  Page page;
  for (std::size_t off = 0; off < kPageSize; off += 8) {
    const std::uint64_t word = rng.next_u64();
    std::memcpy(page.data.data() + off, &word, 8);
  }
  return page;
}

// A compressible page: mostly zero, a few words of payload.
Page sparse_page(std::uint64_t tag) {
  Page page;
  page.zero();
  std::memcpy(page.data.data() + 64, &tag, 8);
  return page;
}

// --- page_digest -------------------------------------------------------------

TEST(PageDigest, ContentAddressedAndNeverTheSentinel) {
  Page zero;
  zero.zero();
  EXPECT_NE(page_digest(zero).lo, kZeroDigest)
      << "the all-zero page must not collide with the reserved sentinel";

  Rng rng(1);
  const Page a = random_page(rng);
  Page b = a;
  EXPECT_EQ(page_digest(a), page_digest(b));
  b.data[17] ^= std::byte{1};
  EXPECT_NE(page_digest(a), page_digest(b));
}

// --- PageStore ---------------------------------------------------------------

TEST(PageStoreTest, InternDedupsAndRefcounts) {
  PageStore pages(/*delta_compress=*/false);
  Rng rng(2);
  const Page page = random_page(rng);
  const Hash128 digest = page_digest(page);
  const std::uint64_t key = digest.lo;

  EXPECT_EQ(pages.intern(page, digest), key);
  EXPECT_EQ(pages.intern(page, digest), key);
  EXPECT_EQ(pages.refs(key), 2u);
  EXPECT_EQ(pages.stats().pages_unique, 1u);
  EXPECT_EQ(pages.stats().interns, 2u);
  EXPECT_EQ(pages.stats().dedup_hits, 1u);

  pages.release(key);
  EXPECT_TRUE(pages.contains(key));
  pages.release(key);
  EXPECT_FALSE(pages.contains(key));
  EXPECT_EQ(pages.stats().pages_unique, 0u);
  EXPECT_EQ(pages.stats().bytes_physical, 0u);
}

TEST(PageStoreTest, MaterializeRoundTripsExactBytes) {
  PageStore pages(/*delta_compress=*/false);
  Rng rng(3);
  const Page original = random_page(rng);
  const std::uint64_t digest = pages.intern(original, page_digest(original));

  Page out;
  pages.materialize(digest, out);
  EXPECT_EQ(out, original);

  // The sentinel zeroes the destination; releasing it is a no-op.
  pages.materialize(kZeroDigest, out);
  Page zero;
  zero.zero();
  EXPECT_EQ(out, zero);
  pages.release(kZeroDigest);

  EXPECT_THROW(pages.materialize(0xDEAD, out), std::logic_error);
}

TEST(PageStoreTest, KeyCollisionThrowsAndChangesNothing) {
  // A second page arriving under a live entry's key (digest.lo) with a
  // different check half (digest.hi) is a genuine 64-bit collision: the
  // store must refuse it rather than dedup two different pages into one.
  PageStore pages(/*delta_compress=*/true);
  Rng rng(4);
  const Page first = random_page(rng);
  const Page second = random_page(rng);
  const Hash128 digest = page_digest(first);
  const std::uint64_t key = pages.intern(first, digest);
  const store::PageStoreStats before = pages.stats();

  const Hash128 forged{key, page_digest(second).hi};
  ASSERT_NE(forged.hi, digest.hi);
  EXPECT_THROW((void)pages.intern(second, forged), std::runtime_error);
  EXPECT_THROW((void)pages.intern(second, forged, key), std::runtime_error);

  EXPECT_EQ(pages.refs(key), 1u);
  EXPECT_EQ(pages.stats(), before);
  Page out;
  pages.materialize(key, out);
  EXPECT_EQ(out, first) << "the resident entry must be untouched";
}

TEST(PageStoreTest, DeltaEntryRoundTripsAndPinsItsBase) {
  PageStore pages(/*delta_compress=*/true);
  const Page base = sparse_page(0x1111111111111111ULL);
  Page next = base;
  next.data[64] ^= std::byte{0xFF};  // one byte differs from base

  const std::uint64_t base_digest = pages.intern(base, page_digest(base));
  const std::uint64_t next_digest =
      pages.intern(next, page_digest(next), base_digest);
  ASSERT_NE(next_digest, base_digest);
  EXPECT_EQ(pages.stats().delta_entries, 1u);

  // Caller drops its ref on the base; the delta entry keeps it alive.
  pages.release(base_digest);
  EXPECT_TRUE(pages.contains(base_digest));

  Page out;
  pages.materialize(next_digest, out);
  EXPECT_EQ(out, next);
  pages.materialize(base_digest, out);
  EXPECT_EQ(out, base);

  // Releasing the delta cascades to the base.
  pages.release(next_digest);
  EXPECT_FALSE(pages.contains(next_digest));
  EXPECT_FALSE(pages.contains(base_digest));
}

TEST(PageStoreTest, DeltaChainsCapAtDepthOne) {
  PageStore pages(/*delta_compress=*/true);
  const Page v0 = sparse_page(0x1111111111111111ULL);
  Page v1 = v0;
  v1.data[1000] = std::byte{0xFF};  // one extra byte: delta beats raw
  Page v2 = v1;
  v2.data[2000] = std::byte{0xEE};

  const std::uint64_t d0 = pages.intern(v0, page_digest(v0));
  const std::uint64_t d1 = pages.intern(v1, page_digest(v1), d0);
  const std::uint64_t d2 = pages.intern(v2, page_digest(v2), d1);

  // v1 is a delta (base v0 is raw); v2's candidate base v1 is itself a
  // delta, so v2 must have been stored raw -- depth stays at one.
  EXPECT_EQ(pages.stats().delta_entries, 1u);
  Page out;
  pages.materialize(d2, out);
  EXPECT_EQ(out, v2);
  pages.materialize(d1, out);
  EXPECT_EQ(out, v1);
}

// --- GenerationChain ---------------------------------------------------------

struct ChainFixture {
  ChainFixture() : pages(/*delta_compress=*/false) {}

  // Appends a generation whose changed-list stores pages filled from
  // `tags` (pfn -> tag); tag 0 means "became zero" (kZeroDigest).
  void commit(std::uint64_t epoch,
              std::vector<std::pair<std::size_t, std::uint64_t>> tags) {
    Generation gen;
    gen.epoch = epoch;
    for (const auto& [pfn, tag] : tags) {
      std::uint64_t digest = kZeroDigest;
      if (tag != 0) {
        const Page page = sparse_page(tag);
        digest = pages.intern(page, page_digest(page));
      }
      gen.changed.emplace_back(Pfn{pfn}, digest);
    }
    chain.append(std::move(gen));
  }

  // digest_at over a fixed pfn window, for before/after comparisons.
  std::vector<std::uint64_t> view(std::size_t index, std::size_t pfns = 4) {
    std::vector<std::uint64_t> out;
    for (std::size_t i = 0; i < pfns; ++i) {
      out.push_back(chain.digest_at(index, Pfn{i}));
    }
    return out;
  }

  PageStore pages;
  GenerationChain chain;
};

TEST(GenerationChainTest, DigestAtWalksBackwardToTheNewestEntry) {
  ChainFixture f;
  f.commit(0, {{0, 10}, {1, 11}, {2, 12}});
  f.commit(1, {{1, 21}});
  f.commit(2, {{2, 32}});

  EXPECT_EQ(f.chain.index_of(1), 1u);
  EXPECT_EQ(f.chain.index_of(99), GenerationChain::npos);

  const Page p11 = sparse_page(11);
  const Page p21 = sparse_page(21);
  EXPECT_EQ(f.chain.digest_at(0, Pfn{1}), page_digest(p11).lo);
  EXPECT_EQ(f.chain.digest_at(2, Pfn{1}), page_digest(p21).lo);
  EXPECT_EQ(f.chain.digest_at(2, Pfn{3}), kZeroDigest) << "never written";

  // diff(oldest, newest) = pfns 1 and 2 changed across the window.
  const auto changed = f.chain.diff(0, 2);
  ASSERT_EQ(changed.size(), 2u);
  EXPECT_EQ(changed[0].first, Pfn{1});
  EXPECT_EQ(changed[1].first, Pfn{2});
  EXPECT_TRUE(f.chain.diff(1, 1).empty());
}

TEST(GenerationChainTest, DropMergesForwardAndPreservesSurvivingViews) {
  ChainFixture f;
  f.commit(0, {{0, 10}, {1, 11}, {2, 12}});
  f.commit(1, {{1, 21}, {3, 23}});
  f.commit(2, {{2, 32}});

  const auto view0 = f.view(0);
  const auto view2 = f.view(2);

  // Drop the middle generation: its entries merge into generation 2
  // (which overrides pfn 2 but inherits pfns 1 and 3).
  const std::size_t processed = f.chain.drop(1, f.pages);
  EXPECT_EQ(processed, 2u);
  ASSERT_EQ(f.chain.size(), 2u);
  EXPECT_EQ(f.view(0), view0);
  EXPECT_EQ(f.view(1), view2);

  // Now drop the (full-coverage) oldest: the survivor still resolves
  // every page it ever saw.
  (void)f.chain.drop(0, f.pages);
  ASSERT_EQ(f.chain.size(), 1u);
  EXPECT_EQ(f.view(0), view2);
}

TEST(GenerationChainTest, DropReleasesSupersededEntries) {
  ChainFixture f;
  f.commit(0, {{0, 10}});
  f.commit(1, {{0, 20}});  // overrides pfn 0
  const std::uint64_t old_digest = page_digest(sparse_page(10)).lo;
  ASSERT_TRUE(f.pages.contains(old_digest));
  (void)f.chain.drop(0, f.pages);
  EXPECT_FALSE(f.pages.contains(old_digest))
      << "the heir overrides pfn 0, so the dropped entry must be freed";
  EXPECT_TRUE(f.pages.contains(page_digest(sparse_page(20)).lo));
}

TEST(GenerationChainTest, TruncateAfterReleasesNewerGenerations) {
  ChainFixture f;
  f.commit(0, {{0, 10}});
  f.commit(1, {{0, 20}});
  f.commit(2, {{0, 30}});
  const std::size_t released = f.chain.truncate_after(0, f.pages);
  EXPECT_EQ(released, 2u);
  ASSERT_EQ(f.chain.size(), 1u);
  EXPECT_EQ(f.chain.newest().epoch, 0u);
  EXPECT_TRUE(f.pages.contains(page_digest(sparse_page(10)).lo));
  EXPECT_FALSE(f.pages.contains(page_digest(sparse_page(20)).lo));
  EXPECT_FALSE(f.pages.contains(page_digest(sparse_page(30)).lo));
}

TEST(GenerationChainTest, AppendRequiresAscendingEpochs) {
  ChainFixture f;
  f.commit(0, {});
  f.commit(2, {});
  Generation stale;
  stale.epoch = 1;
  EXPECT_THROW(f.chain.append(std::move(stale)), std::logic_error);
}

// --- RetentionPolicy ---------------------------------------------------------

TEST(RetentionPolicyTest, RulesComposeAsAnyOf) {
  RetentionPolicy policy;
  policy.keep_last = 2;
  policy.keep_every = 4;
  EXPECT_TRUE(policy.retains(10, 10));  // the newest, always
  EXPECT_TRUE(policy.retains(9, 10));   // within keep_last
  EXPECT_TRUE(policy.retains(8, 10));   // lattice: multiple of 4
  EXPECT_FALSE(policy.retains(7, 10));
  EXPECT_TRUE(policy.retains(0, 10));  // 0 is on the lattice too

  policy.keep_last = 0;
  policy.keep_every = 0;
  EXPECT_TRUE(policy.retains(5, 5));
  EXPECT_FALSE(policy.retains(4, 5));
}

// --- CheckpointStore behind the Checkpointer --------------------------------

CheckpointConfig store_config(std::size_t keep_last = 64) {
  CheckpointConfig config = CheckpointConfig::full();
  config.store.enabled = true;
  config.store.retention.keep_last = keep_last;
  return config;
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

struct ImageSnapshot {
  std::uint64_t epoch = 0;
  std::vector<Page> pages;
  VcpuState vcpu;
};

ImageSnapshot snapshot_primary(const Checkpointer& cp, const Vm& vm) {
  ImageSnapshot snap;
  snap.epoch = cp.checkpoints_taken();
  snap.pages.resize(vm.page_count());
  for (std::size_t i = 0; i < vm.page_count(); ++i) {
    snap.pages[i] = vm.page(Pfn{i});  // const: unbacked reads as zero
  }
  snap.vcpu = vm.vcpu();
  return snap;
}

// The property test: every retained generation restores byte-identical,
// with serial and pool-sharded hashing (GetParam() = parallel_hash).
class StoreFidelity : public ::testing::TestWithParam<bool> {};

TEST_P(StoreFidelity, EveryRetainedGenerationRestoresByteIdentical) {
  CheckpointConfig config = store_config(64);
  config.store.parallel_hash = GetParam();
  TestGuest guest;
  SimClock clock;
  Checkpointer cp(guest.hypervisor, *guest.vm, clock, CostModel::defaults(),
                  config);
  cp.initialize();
  ASSERT_NE(cp.store(), nullptr);

  std::vector<ImageSnapshot> snaps;
  snaps.push_back(snapshot_primary(cp, *guest.vm));  // seed generation

  Rng rng(GetParam() ? 31 : 37);
  for (int epoch = 0; epoch < 6; ++epoch) {
    scribble(*guest.kernel, rng, 150);
    guest.vm->vcpu().gpr[7] = rng.next_u64();
    const EpochResult result = cp.run_checkpoint({});
    ASSERT_TRUE(result.checkpoint_committed);
    EXPECT_GT(result.store_cost.count(), 0);
    snaps.push_back(snapshot_primary(cp, *guest.vm));
  }

  Vm& scratch =
      guest.hypervisor.create_domain("scratch", guest.vm->page_count());
  ForeignMapping dst = guest.hypervisor.map_foreign(scratch.id());
  for (const ImageSnapshot& snap : snaps) {
    ASSERT_TRUE(cp.store()->has_generation(snap.epoch));
    const CheckpointStore::Restored restored =
        cp.store()->materialize(snap.epoch, dst);
    EXPECT_EQ(restored.vcpu, snap.vcpu);
    EXPECT_GT(restored.cost.count(), 0);
    const Vm& view = scratch;
    for (std::size_t i = 0; i < scratch.page_count(); ++i) {
      ASSERT_EQ(view.page(Pfn{i}), snap.pages[i])
          << "generation " << snap.epoch << " page " << i
          << (GetParam() ? " (parallel hash)" : " (serial hash)");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SerialAndParallel, StoreFidelity, ::testing::Bool());

TEST(CheckpointStoreIntegration, StoreCostLengthensEpochNotPause) {
  TestGuest guest;
  SimClock clock;
  Checkpointer cp(guest.hypervisor, *guest.vm, clock, CostModel::defaults(),
                  store_config());
  cp.initialize();
  Rng rng(41);
  scribble(*guest.kernel, rng, 100);
  const Nanos before = clock.now();
  const EpochResult result = cp.run_checkpoint({});
  EXPECT_GT(result.store_cost.count(), 0);
  // Pause semantics are untouched; append + GC are charged after resume.
  EXPECT_EQ(clock.now() - before,
            result.costs.pause_total() + result.store_cost);
}

TEST(CheckpointStoreIntegration, DisabledStoreHasNoFootprint) {
  TestGuest guest;
  SimClock clock;
  Checkpointer cp(guest.hypervisor, *guest.vm, clock, CostModel::defaults(),
                  CheckpointConfig::full());
  cp.initialize();
  EXPECT_EQ(cp.store(), nullptr);
  Rng rng(43);
  scribble(*guest.kernel, rng, 50);
  const EpochResult result = cp.run_checkpoint({});
  EXPECT_EQ(result.store_cost, Nanos{0});
  guest.vm->pause();
  EXPECT_THROW((void)cp.rollback_to(0), std::logic_error);
}

TEST(CheckpointStoreIntegration, DedupKeepsPhysicalWellUnderLogical) {
  TestGuest guest;
  SimClock clock;
  Checkpointer cp(guest.hypervisor, *guest.vm, clock, CostModel::defaults(),
                  store_config());
  cp.initialize();
  Rng rng(47);
  for (int epoch = 0; epoch < 8; ++epoch) {
    scribble(*guest.kernel, rng, 80);
    (void)cp.run_checkpoint({});
  }
  const store::StoreStats stats = cp.store()->stats();
  EXPECT_EQ(stats.generations, 9u);  // seed + 8 commits
  EXPECT_GT(stats.bytes_physical, 0u);
  // A small working set over 9 retained generations dedups heavily: the
  // acceptance bar (physical < 50% of logical) holds with a wide margin.
  EXPECT_LT(stats.bytes_physical * 2, stats.bytes_logical);
  EXPECT_GT(stats.dedup_ratio(), 2.0);
}

TEST(CheckpointStoreIntegration, RollbackToRestoresAnyRetainedGeneration) {
  TestGuest guest;
  SimClock clock;
  Checkpointer cp(guest.hypervisor, *guest.vm, clock, CostModel::defaults(),
                  store_config());
  cp.initialize();

  std::vector<ImageSnapshot> snaps;
  snaps.push_back(snapshot_primary(cp, *guest.vm));
  Rng rng(53);
  for (int epoch = 0; epoch < 4; ++epoch) {
    scribble(*guest.kernel, rng, 100);
    guest.vm->vcpu().gpr[5] = 0x1000 + static_cast<std::uint64_t>(epoch);
    ASSERT_TRUE(cp.run_checkpoint({}).checkpoint_committed);
    snaps.push_back(snapshot_primary(cp, *guest.vm));
  }

  // An attack is found two epochs later than generation 2.
  scribble(*guest.kernel, rng, 120);
  (void)cp.run_checkpoint([](std::span<const Pfn>, Nanos) {
    return AuditResult{.passed = false, .cost = micros(50)};
  });
  ASSERT_EQ(guest.vm->state(), VmState::Paused);

  const Nanos cost = cp.rollback_to(2);
  EXPECT_GT(cost.count(), 0);
  const Vm& view = *guest.vm;
  for (std::size_t i = 0; i < view.page_count(); ++i) {
    ASSERT_EQ(view.page(Pfn{i}), snaps[2].pages[i]) << "page " << i;
  }
  EXPECT_EQ(guest.vm->vcpu(), snaps[2].vcpu);
  EXPECT_EQ(guest.vm->vcpu().gpr[5], 0x1001u);
  EXPECT_EQ(guest.vm->state(), VmState::Paused);
  EXPECT_EQ(guest.vm->dirty_bitmap().dirty_count(), 0u);

  // The timeline forward of the rewind point is gone...
  EXPECT_TRUE(cp.store()->has_generation(2));
  EXPECT_FALSE(cp.store()->has_generation(3));
  EXPECT_FALSE(cp.store()->has_generation(4));
  // ...but epoch ids stay monotonic: the next commit is generation 5.
  guest.vm->unpause();
  scribble(*guest.kernel, rng, 60);
  ASSERT_TRUE(cp.run_checkpoint({}).checkpoint_committed);
  EXPECT_EQ(cp.checkpoints_taken(), 5u);
  EXPECT_TRUE(cp.store()->has_generation(5));
}

TEST(CheckpointStoreIntegration, RollbackToValidatesItsPreconditions) {
  TestGuest guest;
  SimClock clock;
  Checkpointer cp(guest.hypervisor, *guest.vm, clock, CostModel::defaults(),
                  store_config());
  cp.initialize();
  EXPECT_THROW((void)cp.rollback_to(0), std::logic_error)
      << "primary must be Paused";
  guest.vm->pause();
  EXPECT_THROW((void)cp.rollback_to(999), std::invalid_argument)
      << "unknown generation";
}

TEST(CheckpointStoreIntegration, RetentionBoundsChainAndGcMergesForward) {
  CheckpointConfig config = store_config(/*keep_last=*/2);
  TestGuest guest;
  SimClock clock;
  Checkpointer cp(guest.hypervisor, *guest.vm, clock, CostModel::defaults(),
                  config);
  cp.initialize();

  std::vector<ImageSnapshot> snaps;
  Rng rng(59);
  for (int epoch = 0; epoch < 8; ++epoch) {
    scribble(*guest.kernel, rng, 100);
    ASSERT_TRUE(cp.run_checkpoint({}).checkpoint_committed);
    snaps.push_back(snapshot_primary(cp, *guest.vm));
  }

  const store::StoreStats stats = cp.store()->stats();
  EXPECT_LE(stats.generations, 3u);
  EXPECT_GT(stats.generations_dropped, 0u);
  EXPECT_GT(stats.entries_merged, 0u);
  EXPECT_EQ(cp.store()->gc_pauses().count(), 8u);  // recorded every epoch
  EXPECT_TRUE(cp.store()->has_generation(8));
  EXPECT_TRUE(cp.store()->has_generation(7));
  EXPECT_FALSE(cp.store()->has_generation(1));

  // GC merged aged-out generations forward; the retained ones still
  // restore byte-identical.
  Vm& scratch =
      guest.hypervisor.create_domain("scratch", guest.vm->page_count());
  ForeignMapping dst = guest.hypervisor.map_foreign(scratch.id());
  for (const std::uint64_t epoch : cp.store()->retained_epochs()) {
    ASSERT_GE(epoch, 1u);
    const ImageSnapshot& snap = snaps[epoch - 1];
    ASSERT_EQ(snap.epoch, epoch);
    (void)cp.store()->materialize(epoch, dst);
    const Vm& view = scratch;
    for (std::size_t i = 0; i < scratch.page_count(); ++i) {
      ASSERT_EQ(view.page(Pfn{i}), snap.pages[i])
          << "generation " << epoch << " page " << i;
    }
  }
}

TEST(CheckpointStoreIntegration, AuditFailurePinsTheForensicBaseline) {
  CheckpointConfig config = store_config(/*keep_last=*/1);
  TestGuest guest;
  SimClock clock;
  Checkpointer cp(guest.hypervisor, *guest.vm, clock, CostModel::defaults(),
                  config);
  cp.initialize();
  Rng rng(61);
  for (int epoch = 0; epoch < 2; ++epoch) {
    scribble(*guest.kernel, rng, 60);
    (void)cp.run_checkpoint({});
  }

  // Audit failure pins generation 2 -- the last clean checkpoint.
  scribble(*guest.kernel, rng, 60);
  (void)cp.run_checkpoint([](std::span<const Pfn>, Nanos) {
    return AuditResult{.passed = false, .cost = Nanos{0}};
  });
  (void)cp.rollback();
  guest.vm->unpause();

  // keep_last=1 would normally age generation 2 out within an epoch or
  // two; the pin keeps the forensic baseline alive indefinitely.
  for (int epoch = 0; epoch < 6; ++epoch) {
    scribble(*guest.kernel, rng, 60);
    (void)cp.run_checkpoint({});
  }
  EXPECT_TRUE(cp.store()->has_generation(2));
  EXPECT_FALSE(cp.store()->has_generation(3));
}

TEST(CheckpointStoreIntegration, KeepEveryLatticeRetainsSparseTail) {
  CheckpointConfig config = store_config(/*keep_last=*/1);
  config.store.retention.keep_every = 4;
  TestGuest guest;
  SimClock clock;
  Checkpointer cp(guest.hypervisor, *guest.vm, clock, CostModel::defaults(),
                  config);
  cp.initialize();
  Rng rng(67);
  for (int epoch = 0; epoch < 9; ++epoch) {
    scribble(*guest.kernel, rng, 60);
    (void)cp.run_checkpoint({});
  }
  const std::vector<std::uint64_t> retained = cp.store()->retained_epochs();
  EXPECT_EQ(retained, (std::vector<std::uint64_t>{0, 4, 8, 9}));
}

// --- Forensic timeline over the chain ---------------------------------------

TEST(StoreTimeline, BisectsTheFirstDivergingGeneration) {
  TestGuest guest;
  SimClock clock;
  Checkpointer cp(guest.hypervisor, *guest.vm, clock, CostModel::defaults(),
                  store_config());
  cp.initialize();

  const GuestLayout& layout = guest.kernel->layout();
  const Vaddr target_va = layout.va_of(layout.heap_base);
  const Pfn target_pfn = guest.kernel->page_table().translate(target_va)->pfn();
  // Background traffic avoids the target's page (heap offsets >= 1 page).
  const auto background = [&](std::uint64_t salt) {
    for (int i = 0; i < 20; ++i) {
      guest.kernel->write_value<std::uint64_t>(
          target_va + kPageSize + 8 * static_cast<std::uint64_t>(i),
          salt * 100 + static_cast<std::uint64_t>(i));
    }
  };

  for (int epoch = 1; epoch <= 2; ++epoch) {  // generations 1, 2: clean
    background(static_cast<std::uint64_t>(epoch));
    (void)cp.run_checkpoint({});
  }
  // The corruption lands during epoch 3 and persists.
  guest.kernel->write_value<std::uint64_t>(target_va, 0xDEADBEEFULL);
  for (int epoch = 3; epoch <= 16; ++epoch) {
    background(static_cast<std::uint64_t>(epoch));
    (void)cp.run_checkpoint({});
  }

  const store::GenerationChain& chain = cp.store()->chain();
  ASSERT_EQ(chain.size(), 17u);
  const forensics::DivergencePoint div =
      forensics::first_divergence(chain, target_pfn);
  ASSERT_TRUE(div.found);
  EXPECT_EQ(div.epoch, 3u);
  EXPECT_NE(div.diverged_digest, div.baseline_digest);
  // Bisection: 2 endpoint probes + ceil(log2(16)) interior probes, far
  // below the 17 a linear sweep would spend.
  EXPECT_LE(div.generations_probed, 7u);

  const std::string timeline =
      forensics::render_page_timeline(chain, target_pfn);
  EXPECT_NE(timeline.find("first divergence: generation 3"),
            std::string::npos);

  // A page nothing ever corrupted reports no divergence.
  const Pfn quiet{0};
  EXPECT_FALSE(forensics::first_divergence(chain, quiet).found);
}

}  // namespace
}  // namespace crimes
