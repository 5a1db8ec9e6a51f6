// Sealing & attestation tests (src/crypto, DESIGN.md section 15).
//
// The storage substrate is the adversary: every test here either pins the
// construction (reference vectors recomputed independently), proves the
// round trip is lossless, or proves that a corruption -- any single bit,
// a moved block, a truncated tag, a forged root -- is *detected* at the
// boundary that reads it. The capstone invariant: the primary store, a
// journal replay, and the standby's verified stream all converge on the
// same attestation root.
#include "checkpoint/checkpointer.h"
#include "common/hash.h"
#include "common/rng.h"
#include "core/crimes.h"
#include "crypto/attestation_chain.h"
#include "crypto/page_sealer.h"
#include "fault/fault_plan.h"
#include "hypervisor/hypervisor.h"
#include "replication/replicator.h"
#include "replication/store_journal.h"
#include "store/checkpoint_store.h"
#include "store/page_store.h"
#include "test_helpers.h"
#include "workload/parsec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace crimes {
namespace {

using crypto::AttestationChain;
using crypto::AttestationLeaf;
using crypto::mix64;
using crypto::PageSealer;
using crypto::TamperError;
using replication::Replicator;
using replication::StoreJournal;
using store::CheckpointStore;
using store::kZeroDigest;
using store::page_digest;
using store::PageStore;
using store::TamperMode;
using testing::TestGuest;

constexpr std::uint64_t kKey = 0x5EA1ED'C0DE'1EAFULL;

std::vector<std::byte> pattern_payload(std::size_t size, std::uint8_t seed) {
  std::vector<std::byte> out(size);
  for (std::size_t i = 0; i < size; ++i) {
    out[i] = static_cast<std::byte>((seed + i * 7) & 0xFF);
  }
  return out;
}

ParsecProfile small_parsec(double duration_ms = 400.0) {
  ParsecProfile profile = ParsecProfile::by_name("raytrace");
  profile.working_set_pages = 256;
  profile.touches_per_ms = 4.0;
  profile.duration_ms = duration_ms;
  return profile;
}

CrimesConfig sealed_config(fault::FaultPlan plan = {}) {
  CrimesConfig config;
  config.checkpoint = CheckpointConfig::full(millis(50));
  config.checkpoint.store.enabled = true;
  config.checkpoint.store.journal = true;
  config.checkpoint.store.crypto.seal = true;
  config.checkpoint.store.crypto.attest = true;
  config.mode = SafetyMode::Synchronous;
  config.record_execution = false;
  config.faults = std::move(plan);
  return config;
}

struct PipelineRun {
  explicit PipelineRun(CrimesConfig config, double duration_ms = 400.0)
      : crimes(guest.hypervisor, *guest.kernel, std::move(config)),
        app(*guest.kernel, small_parsec(duration_ms)) {
    crimes.set_workload(&app);
    crimes.initialize();
  }
  RunSummary run() { return crimes.run(millis(10000)); }

  TestGuest guest;
  Crimes crimes;
  ParsecWorkload app;
};

// --- PageSealer reference vectors -------------------------------------------

TEST(CryptoSealer, KeystreamReferenceVectorsPinTheConstruction) {
  const PageSealer sealer(kKey);
  // Independent recomputation of the documented derivation: two finalizer
  // rounds over (key ^ stream-salt ^ mix(tweak)), then the word counter
  // spread by the golden-ratio increment.
  constexpr std::uint64_t kStreamSalt = 0x5EA1'57E4'3A4DULL;
  for (const std::uint64_t tweak : {0ULL, 1ULL, 0xDEADBEEFULL}) {
    const std::uint64_t block = mix64(kKey ^ kStreamSalt ^ mix64(tweak));
    for (std::uint64_t index = 0; index < 4; ++index) {
      EXPECT_EQ(sealer.keystream_word(tweak, index),
                mix64(block ^ (index * 0x9E3779B97F4A7C15ULL)))
          << "tweak " << tweak << " index " << index;
    }
  }
  // Distinct tweaks must produce distinct streams (the anti-block-move
  // property), and distinct keys distinct streams (tenant isolation).
  EXPECT_NE(sealer.keystream_word(1, 0), sealer.keystream_word(2, 0));
  EXPECT_NE(sealer.keystream_word(1, 0), PageSealer(kKey + 1)
                                             .keystream_word(1, 0));
}

TEST(CryptoSealer, MacReferenceVectorBindsBytesTweakAndLength) {
  const PageSealer sealer(kKey);
  constexpr std::uint64_t kMacSalt = 0x3AC'0F'7A6ULL;
  const std::vector<std::byte> payload = pattern_payload(48, 3);
  const std::uint64_t tweak = 0x1234;

  const std::uint64_t seed = mix64(kKey ^ kMacSalt ^ mix64(tweak));
  const std::uint64_t expected =
      mix64(hash128(std::span<const std::byte>(payload), seed).lo ^
            mix64(static_cast<std::uint64_t>(payload.size())));
  EXPECT_EQ(sealer.mac(payload, tweak), expected);

  // Truncation misses the tag even when the removed suffix is all zero:
  // the length is folded in after the word fold.
  std::vector<std::byte> padded = payload;
  padded.push_back(std::byte{0});
  EXPECT_NE(sealer.mac(padded, tweak), sealer.mac(payload, tweak));
  EXPECT_NE(sealer.mac(payload, tweak + 1), sealer.mac(payload, tweak));
}

TEST(CryptoSealer, SealUnsealRoundTripsAcrossSizesAndTweaks) {
  const PageSealer sealer(kKey);
  // Sizes straddle the word loop's boundaries (empty, sub-word, exact
  // multiple, ragged tail, page-ish).
  for (const std::size_t size : {std::size_t{0}, std::size_t{5},
                                 std::size_t{8}, std::size_t{64},
                                 std::size_t{77}, std::size_t{4096}}) {
    for (const std::uint64_t tweak : {1ULL, 0xFEEDULL}) {
      const std::vector<std::byte> original =
          pattern_payload(size, static_cast<std::uint8_t>(size + tweak));
      std::vector<std::byte> sealed = original;
      const std::uint64_t tag = sealer.seal(sealed, tweak);
      if (size > 0) {
        EXPECT_NE(sealed, original) << "size " << size;
      }
      ASSERT_TRUE(sealer.unseal(sealed, tweak, tag)) << "size " << size;
      EXPECT_EQ(sealed, original) << "size " << size;
    }
  }
}

TEST(TamperSealer, EverySingleBitFlipIsDetected) {
  const PageSealer sealer(kKey);
  const std::uint64_t tweak = 0xA11CE;
  const std::vector<std::byte> original = pattern_payload(64, 9);
  std::vector<std::byte> sealed = original;
  const std::uint64_t tag = sealer.seal(sealed, tweak);

  // Exhaustive over the ciphertext: every one of the 512 possible
  // single-bit flips must miss the MAC (and leave the payload sealed).
  for (std::size_t byte = 0; byte < sealed.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::byte> flipped = sealed;
      flipped[byte] ^= static_cast<std::byte>(1u << bit);
      EXPECT_FALSE(sealer.unseal(flipped, tweak, tag))
          << "bit " << bit << " of byte " << byte << " slipped through";
    }
  }
  // And every single-bit flip of the *tag* is detected too.
  for (int bit = 0; bit < 64; ++bit) {
    std::vector<std::byte> copy = sealed;
    EXPECT_FALSE(sealer.unseal(copy, tweak, tag ^ (1ULL << bit)));
  }
  // The unmodified pair still verifies (the loop above never mutated it).
  std::vector<std::byte> ok = sealed;
  ASSERT_TRUE(sealer.unseal(ok, tweak, tag));
  EXPECT_EQ(ok, original);
}

TEST(TamperSealer, MovedCiphertextDeciphersUnderTheWrongTweak) {
  // The SEVurity block-move: ciphertext sealed for record A presented as
  // record B. The MAC is keyed by the tweak, so the move is detected
  // before any decryption happens.
  const PageSealer sealer(kKey);
  std::vector<std::byte> a = pattern_payload(128, 1);
  std::vector<std::byte> b = pattern_payload(128, 2);
  const std::uint64_t tag_a = sealer.seal(a, /*tweak=*/10);
  (void)sealer.seal(b, /*tweak=*/20);
  std::vector<std::byte> moved = a;
  EXPECT_FALSE(sealer.unseal(moved, /*tweak=*/20, tag_a));
}

// --- Sealed PageStore --------------------------------------------------------

TEST(TamperPageStore, EveryTamperModeIsCaughtAtMaterializeAndAudit) {
  for (const TamperMode mode : {TamperMode::FlipByte, TamperMode::SwapEntries,
                                TamperMode::TruncateMac}) {
    PageSealer sealer(kKey);
    PageStore pages(/*delta_compress=*/false);
    pages.set_sealer(&sealer);
    Rng rng(7);
    std::vector<std::uint64_t> digests;
    for (int i = 0; i < 4; ++i) {
      Page page;
      for (std::size_t off = 0; off < kPageSize; off += 8) {
        const std::uint64_t word = rng.next_u64();
        std::memcpy(page.data.data() + off, &word, 8);
      }
      digests.push_back(pages.intern(page, page_digest(page)));
    }
    EXPECT_EQ(pages.stats().pages_sealed, 4u);
    EXPECT_TRUE(pages.verify_seals().empty());

    const std::uint64_t victim = pages.tamper(1, mode);
    ASSERT_NE(victim, kZeroDigest);
    const std::vector<std::uint64_t> bad = pages.verify_seals();
    ASSERT_FALSE(bad.empty()) << "mode " << static_cast<int>(mode);
    // SwapEntries corrupts two slots; the victim is always among them.
    EXPECT_NE(std::find(bad.begin(), bad.end(), victim), bad.end());

    Page out;
    EXPECT_THROW(pages.materialize(victim, out), TamperError)
        << "mode " << static_cast<int>(mode);
    EXPECT_GT(pages.stats().seal_failures, 0u);
  }
}

TEST(CryptoPageStore, SealedStoreDedupsAndRoundTripsLikePlaintext) {
  PageSealer sealer(kKey);
  PageStore pages(/*delta_compress=*/true);
  pages.set_sealer(&sealer);
  Page page;
  page.zero();
  std::memcpy(page.data.data() + 32, &kKey, 8);
  const std::uint64_t digest = pages.intern(page, page_digest(page));
  // Content addressing survives sealing: the tweak is the entry's own
  // digest, so identical content still dedups to one sealed payload.
  EXPECT_EQ(pages.intern(page, page_digest(page)), digest);
  EXPECT_EQ(pages.stats().pages_unique, 1u);
  EXPECT_EQ(pages.stats().dedup_hits, 1u);
  Page out;
  pages.materialize(digest, out);
  EXPECT_EQ(out, page);
  // The payload stays sealed at rest: materialize decrypts a copy.
  pages.materialize(digest, out);
  EXPECT_EQ(out, page);
}

// --- AttestationChain units --------------------------------------------------

TEST(AttestChain, LeafAndRootDerivationsAreDeterministicAndKeyed) {
  AttestationLeaf leaf;
  leaf.epoch = 3;
  leaf.fold_page(5, 0x1111);
  leaf.fold_page(9, 0x2222);
  leaf.vcpu_digest = 0x3333;

  const std::uint64_t h1 = AttestationChain::leaf_hash(kKey, leaf);
  EXPECT_EQ(h1, AttestationChain::leaf_hash(kKey, leaf));
  EXPECT_NE(h1, AttestationChain::leaf_hash(kKey + 1, leaf));

  AttestationLeaf reordered;
  reordered.epoch = 3;
  reordered.fold_page(9, 0x2222);  // same pages, different commit order
  reordered.fold_page(5, 0x1111);
  reordered.vcpu_digest = 0x3333;
  EXPECT_NE(AttestationChain::leaf_hash(kKey, reordered), h1)
      << "the pages fold must be order-binding";

  AttestationLeaf failed = leaf;
  failed.audit_passed = false;
  EXPECT_NE(AttestationChain::leaf_hash(kKey, failed), h1);

  const std::uint64_t genesis = AttestationChain::genesis_root(kKey);
  const std::uint64_t r1 = AttestationChain::chain_root(kKey, genesis, h1);
  EXPECT_NE(r1, genesis);
  EXPECT_NE(AttestationChain::chain_root(kKey, r1, h1), r1)
      << "extending must always move the root";
}

TEST(AttestChain, VerifyExtendAdoptsOnMatchAndRefusesForgery) {
  AttestationChain primary(kKey);
  AttestationChain standby(kKey);
  primary.reset(AttestationChain::genesis_root(kKey), 0);
  standby.reset(AttestationChain::genesis_root(kKey), 0);

  AttestationLeaf leaf;
  leaf.epoch = 1;
  leaf.fold_page(2, 0xAB);
  const std::uint64_t root = primary.extend(leaf);
  ASSERT_TRUE(standby.verify_extend(leaf, root));
  EXPECT_EQ(standby.root(), primary.root());

  // A stale-root replay: the previous root presented for the next leaf.
  AttestationLeaf next;
  next.epoch = 2;
  next.fold_page(2, 0xCD);
  (void)primary.extend(next);
  EXPECT_FALSE(standby.verify_extend(next, root)) << "stale root adopted";
  // Refusal must not advance the standby's trust.
  EXPECT_EQ(standby.length(), 1u);
}

// --- Chain-root equality across every boundary -------------------------------

TEST(AttestChain, JournalReplayConvergesOnThePrimaryRoot) {
  PipelineRun run(sealed_config());
  const RunSummary summary = run.run();
  EXPECT_GT(summary.checkpoints, 0u);
  EXPECT_EQ(summary.tampers_detected, 0u);

  Checkpointer& checkpointer = run.crimes.checkpointer();
  ASSERT_NE(checkpointer.store(), nullptr);
  const std::uint64_t primary_root = checkpointer.store()->root();
  ASSERT_NE(primary_root, 0u);

  // The store's own boundary audit agrees with itself.
  const CheckpointStore::ChainAudit audit =
      checkpointer.store()->verify_chain();
  EXPECT_TRUE(audit.ok) << audit.reason;

  // The keyed fsck walk verifies every carried root from the bytes alone.
  StoreJournal* journal = checkpointer.journal();
  ASSERT_NE(journal, nullptr);
  const StoreJournal::FsckReport fsck = journal->fsck();
  EXPECT_TRUE(fsck.ok) << fsck.reason;
  EXPECT_TRUE(fsck.attested);
  EXPECT_GT(fsck.roots_verified, 0u);

  // Replaying the journal rebuilds a store whose root is the primary's.
  const StoreJournal::Recovered recovered = StoreJournal::recover(
      journal->bytes(), CostModel::defaults(),
      run.crimes.config().checkpoint.store);
  ASSERT_NE(recovered.store, nullptr);
  EXPECT_EQ(recovered.store->root(), primary_root);
}

TEST(AttestChain, StandbyStreamConvergesOnThePrimaryRoot) {
  // Drive the replicator directly: a primary image, a standby image, and
  // an attested store committing three generations. The standby
  // recomputes every leaf from the bytes it applied; verify_extend
  // succeeding *is* root equality, asserted explicitly at the end.
  const CostModel costs = CostModel::defaults();
  Hypervisor hv{1u << 16};
  Vm& src = hv.create_domain("primary", 64);
  Vm& dst = hv.create_domain("standby", 64);

  store::StoreConfig sc;
  sc.enabled = true;
  sc.crypto.attest = true;
  CheckpointStore store(costs, sc);
  ForeignMapping smap{src};
  for (std::size_t i = 0; i < 16; ++i) {
    smap.page(Pfn{i}).data[0] = static_cast<std::byte>(i + 1);
  }
  VcpuState vcpu{};
  (void)store.seed(0, smap, vcpu, Nanos{0});

  // Standby seeding: full image copy, like StandbyHost::initialize.
  ForeignMapping dmap{dst};
  for (std::size_t i = 0; i < src.page_count(); ++i) {
    const Pfn pfn{i};
    if (!smap.is_backed(pfn)) continue;
    std::memcpy(dmap.page(pfn).data.data(), smap.peek(pfn).data.data(),
                kPageSize);
  }
  dst.vcpu() = vcpu;

  replication::ReplicationConfig rc;
  rc.enabled = true;
  Replicator replicator(costs, rc, src, dst, 0);
  replicator.set_attestation(sc.crypto.tenant_key, store.root());

  Nanos now{0};
  for (std::uint64_t gen = 1; gen <= 3; ++gen) {
    std::vector<Pfn> dirty;
    for (std::size_t i = 0; i < 4; ++i) {
      const Pfn pfn{gen + i};
      smap.page(pfn).data[8] = static_cast<std::byte>(0x40 + gen);
      dirty.push_back(pfn);
    }
    vcpu.rip = 0x1000 * gen;
    (void)store.append(gen, dirty, smap, vcpu, now, nullptr);
    const Replicator::SendResult sent =
        replicator.on_commit(gen, dirty, vcpu, now, store.root());
    EXPECT_GT(sent.verify_cost.count(), 0);
    now += millis(10);
  }
  EXPECT_TRUE(replicator.chain_intact());
  EXPECT_EQ(replicator.roots_verified(), 3u);
  EXPECT_EQ(replicator.tampers_detected(), 0u);
  const Replicator::DrainReport drained = replicator.drain(now + millis(50));
  EXPECT_TRUE(drained.chain_verified);
  EXPECT_EQ(drained.trusted_root, store.root());
}

// --- End-to-end tamper detection ---------------------------------------------

TEST(TamperPipeline, StoreTamperStormIsDetectedWithZeroFalsePositives) {
  // Adversarial leg: the storm corrupts sealed store state mid-run; the
  // end-of-run sweeps must catch it and freeze evidence.
  PipelineRun tampered(sealed_config(
      fault::FaultPlan::tamper_storm(0.4, /*from=*/1, /*until=*/7, 11)));
  const RunSummary bad = tampered.run();
  EXPECT_GT(bad.faults_injected, 0u);
  EXPECT_GT(bad.tampers_detected, 0u);
  EXPECT_GT(bad.postmortems_dumped, 0u);

  // Clean twin: same config, no adversary -- zero detections.
  PipelineRun clean(sealed_config());
  const RunSummary good = clean.run();
  EXPECT_EQ(good.tampers_detected, 0u);
  EXPECT_EQ(good.promotions_refused, 0u);
  EXPECT_GT(good.checkpoints, 0u);
}

TEST(TamperPipeline, SealedRunStaysByteIdenticalToPlaintextRun) {
  // Sealing must never change what the store *stores* -- only how it
  // holds it at rest. Same seed, same workload: every retained
  // generation materializes identically with and without the sealer.
  PipelineRun sealed(sealed_config());
  (void)sealed.run();

  CrimesConfig plain_config = sealed_config();
  plain_config.checkpoint.store.crypto.seal = false;
  plain_config.checkpoint.store.crypto.attest = false;
  PipelineRun plain(plain_config);
  (void)plain.run();

  CheckpointStore* a = sealed.crimes.checkpointer().store();
  CheckpointStore* b = plain.crimes.checkpointer().store();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(a->retained_epochs(), b->retained_epochs());

  Hypervisor scratch{1u << 18};
  const std::size_t page_count =
      sealed.crimes.checkpointer().backup().page_count();
  Vm& va = scratch.create_domain("materialize-sealed", page_count);
  Vm& vb = scratch.create_domain("materialize-plain", page_count);
  ForeignMapping ma{va};
  ForeignMapping mb{vb};
  for (const std::uint64_t epoch : a->retained_epochs()) {
    (void)a->materialize(epoch, ma);
    (void)b->materialize(epoch, mb);
    for (std::size_t i = 0; i < page_count; ++i) {
      ASSERT_EQ(va.page(Pfn{i}), vb.page(Pfn{i}))
          << "generation " << epoch << " page " << i;
    }
  }
}

}  // namespace
}  // namespace crimes
