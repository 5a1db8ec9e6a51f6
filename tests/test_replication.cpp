// Replication-layer tests (src/replication, DESIGN.md section 11): the
// phi-accrual heartbeat detector, epoch-numbered fencing leases, the
// bounded-window replicator with its undo discipline, standby promotion,
// the durable store journal's fsck/recovery path, and the end-to-end
// failover pipeline -- including the split-brain property (exactly one
// host's outputs are ever released) and crash recovery byte-identity.
#include "checkpoint/checkpointer.h"
#include "cloud/cloud_host.h"
#include "core/crimes.h"
#include "fault/fault_plan.h"
#include "hypervisor/hypervisor.h"
#include "replication/fencing.h"
#include "replication/heartbeat.h"
#include "replication/replicator.h"
#include "replication/standby.h"
#include "replication/store_journal.h"
#include "store/checkpoint_store.h"
#include "test_helpers.h"
#include "workload/parsec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace crimes {
namespace {

using replication::HeartbeatDetector;
using replication::Lease;
using replication::LeaseAuthority;
using replication::Replicator;
using replication::StandbyHost;
using replication::StoreJournal;
using testing::TestGuest;

// FNV-1a over every page of a VM (unbacked pages hash a marker so "never
// touched" and "touched to zeroes" differ).
std::uint64_t vm_fingerprint(const Vm& vm) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  for (std::size_t i = 0; i < vm.page_count(); ++i) {
    const Pfn pfn{i};
    if (!vm.is_backed(pfn)) {
      mix(0x9E);
      continue;
    }
    for (const std::byte b : vm.page(pfn).bytes()) {
      mix(std::to_integer<std::uint64_t>(b));
    }
  }
  return h;
}

std::uint64_t backup_fingerprint(Crimes& crimes) {
  return vm_fingerprint(crimes.checkpointer().backup());
}

void expect_images_equal(const Vm& a, const Vm& b, const char* what) {
  ASSERT_EQ(a.page_count(), b.page_count()) << what;
  for (std::size_t i = 0; i < a.page_count(); ++i) {
    ASSERT_EQ(a.page(Pfn{i}), b.page(Pfn{i})) << what << ": page " << i;
  }
}

// Materializes every retained generation from both stores and compares the
// images byte for byte -- the journal-recovery acceptance bar.
void expect_stores_identical(const store::CheckpointStore& a,
                             const store::CheckpointStore& b,
                             std::size_t page_count) {
  ASSERT_EQ(a.retained_epochs(), b.retained_epochs());
  const store::StoreStats sa = a.stats();
  const store::StoreStats sb = b.stats();
  EXPECT_EQ(sa.generations, sb.generations);
  EXPECT_EQ(sa.pages_unique, sb.pages_unique);
  EXPECT_EQ(sa.bytes_physical, sb.bytes_physical);

  Hypervisor scratch{1u << 18};
  Vm& va = scratch.create_domain("materialize-a", page_count);
  Vm& vb = scratch.create_domain("materialize-b", page_count);
  ForeignMapping ma{va};
  ForeignMapping mb{vb};
  for (const std::uint64_t epoch : a.retained_epochs()) {
    const store::CheckpointStore::Restored ra = a.materialize(epoch, ma);
    const store::CheckpointStore::Restored rb = b.materialize(epoch, mb);
    EXPECT_EQ(ra.vcpu, rb.vcpu) << "generation " << epoch;
    EXPECT_EQ(ra.pages_written, rb.pages_written) << "generation " << epoch;
    expect_images_equal(va, vb, "materialized generation");
  }
}

ParsecProfile small_parsec(double duration_ms = 500.0) {
  ParsecProfile profile = ParsecProfile::by_name("raytrace");
  profile.working_set_pages = 256;
  profile.touches_per_ms = 4.0;
  profile.duration_ms = duration_ms;
  return profile;
}

// Replication on, heartbeat tracking the 50 ms epoch, a short lease so the
// promotion wait fits fast tests.
CrimesConfig replicated_config(fault::FaultPlan plan = {}) {
  CrimesConfig config;
  config.checkpoint = CheckpointConfig::full(millis(50));
  config.mode = SafetyMode::Synchronous;
  config.record_execution = false;
  config.replication.enabled = true;
  config.replication.heartbeat.interval = millis(50);
  config.replication.lease_term = millis(200);
  config.faults = std::move(plan);
  return config;
}

CrimesConfig journaled_config(fault::FaultPlan plan = {}) {
  CrimesConfig config;
  config.checkpoint = CheckpointConfig::full(millis(50));
  config.checkpoint.store.enabled = true;
  config.checkpoint.store.journal = true;
  config.mode = SafetyMode::Synchronous;
  config.record_execution = false;
  config.faults = std::move(plan);
  return config;
}

// A booted guest + Crimes + PARSEC workload, wired and initialized.
struct PipelineRun {
  explicit PipelineRun(CrimesConfig config, double duration_ms = 500.0)
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

// One data packet per epoch with an epoch-numbered payload, so the released
// stream of two runs can be compared packet by packet.
class EpochTalker : public Workload {
 public:
  EpochTalker(GuestKernel& kernel, VirtualNic& nic, std::size_t epochs)
      : kernel_(&kernel), nic_(&nic), remaining_(epochs) {
    buffer_ = kernel_->heap().malloc(kPageSize);
  }
  [[nodiscard]] std::string name() const override { return "epoch-talker"; }
  void run_epoch(Nanos start, Nanos /*duration*/) override {
    if (remaining_ == 0) return;
    --remaining_;
    ++epoch_;
    // Writes keyed to the epoch number, never the clock: fencing and
    // failover stretch virtual time without changing guest contents.
    kernel_->write_value<std::uint64_t>(buffer_,
                                        static_cast<std::uint64_t>(epoch_));
    Packet packet;
    packet.kind = PacketKind::Data;
    packet.size_bytes = 128;
    packet.payload = "out-" + std::to_string(epoch_);
    nic_->send(std::move(packet), start);
  }
  [[nodiscard]] bool finished() const override { return remaining_ == 0; }

 private:
  GuestKernel* kernel_;
  VirtualNic* nic_;
  Vaddr buffer_{0};
  std::size_t remaining_;
  std::size_t epoch_ = 0;
};

std::vector<std::string> delivered_payloads(Crimes& crimes) {
  std::vector<std::string> out;
  for (const DeliveredPacket& d : crimes.network().log()) {
    out.push_back(d.packet.payload);
  }
  return out;
}

// ---------------------------------------------------------------------------
// HeartbeatDetector units
// ---------------------------------------------------------------------------

TEST(HeartbeatDetector, PhiGrowsWithSilenceAndSuspicionTimeIsExact) {
  HeartbeatDetector detector{replication::HeartbeatConfig{}};  // 200 ms beat
  for (int i = 0; i <= 9; ++i) {
    detector.record_heartbeat(millis(200) * i);
  }
  EXPECT_EQ(detector.heartbeats_seen(), 10u);
  const Nanos last = millis(1800);
  EXPECT_EQ(detector.last_arrival(), last);

  // Nothing is missing at (or before) the last arrival.
  EXPECT_EQ(detector.phi(last), 0.0);
  // Suspicion accrues continuously with the silence.
  const double on_time = detector.phi(last + millis(200));
  const double late = detector.phi(last + millis(400));
  const double very_late = detector.phi(last + millis(800));
  EXPECT_LT(on_time, 1.0);
  EXPECT_GT(late, on_time);
  EXPECT_GT(very_late, late);
  EXPECT_FALSE(detector.suspects(last + millis(200)));

  // suspicion_time bisects to the exact nanosecond phi crosses the bar.
  const Nanos suspicion = detector.suspicion_time(last);
  ASSERT_NE(suspicion, Nanos::max());
  EXPECT_GT(suspicion, last + millis(200));
  EXPECT_TRUE(detector.suspects(suspicion));
  EXPECT_FALSE(detector.suspects(suspicion - nanos(1)));
  // Asking from a later instant clamps to that instant once suspicious.
  EXPECT_EQ(detector.suspicion_time(suspicion + millis(5)),
            suspicion + millis(5));
}

TEST(HeartbeatDetector, NeverHeardNeverConcludesAndIgnoresReorderedBeats) {
  HeartbeatDetector detector{replication::HeartbeatConfig{}};
  // No heartbeat was ever seen: there is nothing to miss, ever.
  EXPECT_EQ(detector.phi(millis(10000)), 0.0);
  EXPECT_FALSE(detector.suspects(millis(10000)));
  EXPECT_EQ(detector.suspicion_time(Nanos{0}), Nanos::max());

  detector.record_heartbeat(millis(100));
  detector.record_heartbeat(millis(100));  // duplicate
  detector.record_heartbeat(millis(40));   // reordered
  EXPECT_EQ(detector.heartbeats_seen(), 1u);
  EXPECT_EQ(detector.last_arrival(), millis(100));
}

// ---------------------------------------------------------------------------
// Fencing-lease units
// ---------------------------------------------------------------------------

TEST(Fencing, LeaseExpiresAndEpochAdvanceInvalidatesForever) {
  LeaseAuthority authority{millis(200)};
  EXPECT_EQ(authority.fencing_epoch(), 1u);

  const Lease lease = authority.grant(millis(100));
  EXPECT_TRUE(lease.held());
  EXPECT_EQ(lease.token, 1u);
  EXPECT_TRUE(lease.valid(millis(299)));
  EXPECT_FALSE(lease.valid(millis(300)));  // term ran out
  EXPECT_TRUE(authority.validates(lease, millis(250)));

  // Promotion bumps the fencing epoch: the token can never validate again,
  // even inside its time bound.
  EXPECT_EQ(authority.advance_epoch(), 2u);
  EXPECT_FALSE(authority.validates(lease, millis(250)));
  EXPECT_TRUE(lease.valid(millis(250)));  // the holder's clock-only view

  const Lease fresh = authority.grant(millis(300));
  EXPECT_EQ(fresh.token, 2u);
  EXPECT_TRUE(authority.validates(fresh, millis(400)));
}

TEST(Fencing, PromotionSafeAtWaitsOutTheLatestGrant) {
  LeaseAuthority authority{millis(200)};
  EXPECT_EQ(authority.promotion_safe_at(), Nanos{0});  // nothing granted
  (void)authority.grant(millis(50));
  EXPECT_EQ(authority.promotion_safe_at(), millis(250));
  (void)authority.grant(millis(120));  // renewal pushes the fence out
  EXPECT_EQ(authority.promotion_safe_at(), millis(320));
  // A stale re-grant never pulls it back in.
  (void)authority.grant(millis(60));
  EXPECT_EQ(authority.promotion_safe_at(), millis(320));
}

// ---------------------------------------------------------------------------
// Replicator units
// ---------------------------------------------------------------------------

// Two 32-page images on one machine: the primary's backup and the standby.
struct TwinImages {
  TwinImages() {
    src = &hypervisor.create_domain("primary-backup", 32);
    dst = &hypervisor.create_domain("standby-image", 32);
  }
  Hypervisor hypervisor{1u << 16};
  Vm* src = nullptr;
  Vm* dst = nullptr;
};

TEST(Replicator, WindowBackpressureStallsUntilTheOldestAck) {
  const CostModel& costs = CostModel::defaults();
  replication::ReplicationConfig config;
  config.enabled = true;
  config.window = 1;
  TwinImages twins;
  const std::vector<Pfn> dirty{Pfn{1}, Pfn{2}, Pfn{3}};
  for (const Pfn pfn : dirty) {
    twins.src->page(pfn).data.fill(std::byte{0xA5});
  }
  VcpuState vcpu;
  vcpu.rip = 0x1000;

  Replicator replicator(costs, config, *twins.src, *twins.dst, 1);
  const Replicator::SendResult first =
      replicator.on_commit(2, dirty, vcpu, Nanos{0});
  EXPECT_EQ(first.stall, Nanos{0});
  EXPECT_FALSE(first.dropped);
  EXPECT_EQ(first.charge, costs.replication_frame);
  EXPECT_EQ(replicator.in_flight(), 1u);
  EXPECT_EQ(replicator.acked_through(), 1u);  // ack still in flight
  // Bytes moved eagerly; arrival is a virtual-timeline property.
  expect_images_equal(*twins.src, *twins.dst, "after first commit");
  EXPECT_EQ(twins.dst->vcpu(), vcpu);

  // Generation 2's ack instant, from the cost model: the transfer at the
  // replication link's gather price, one wire hop, per-page apply, one hop
  // back.
  const Nanos transfer = costs.copy_socket_gather_per_page * dirty.size();
  const Nanos ack1 = transfer + costs.replication_one_way * 2 +
                     costs.replication_apply_per_page * dirty.size();

  // The window (size 1) is full: the second commit stalls to that ack.
  const Replicator::SendResult second =
      replicator.on_commit(3, dirty, vcpu, micros(1));
  EXPECT_EQ(second.stall, ack1 - micros(1));
  EXPECT_EQ(replicator.total_stall(), second.stall);
  EXPECT_EQ(replicator.acked_through(), 2u);
  EXPECT_EQ(replicator.in_flight(), 1u);
  EXPECT_EQ(replicator.max_in_flight(), 1u);
  EXPECT_EQ(replicator.generations_sent(), 2u);

  replicator.advance(ack1 * 3 + millis(10));
  EXPECT_EQ(replicator.acked_through(), 3u);
  EXPECT_EQ(replicator.in_flight(), 0u);
}

TEST(Replicator, PartitionRollsBackUnreceivedGenerationsOnDrain) {
  const CostModel& costs = CostModel::defaults();
  replication::ReplicationConfig config;
  config.enabled = true;
  config.window = 4;
  TwinImages twins;

  // The standby image each generation leaves behind.
  struct Image {
    std::vector<Page> pages;
    VcpuState vcpu;
  };
  const auto image_of = [](const Vm& vm) {
    Image image{{}, vm.vcpu()};
    for (std::size_t i = 0; i < vm.page_count(); ++i) {
      image.pages.push_back(vm.page(Pfn{i}));
    }
    return image;
  };
  // Both indexed by generation; generation 1 is the seed, 0 is unused.
  std::vector<Image> images(2, image_of(*twins.dst));
  std::vector<std::size_t> sizes(2, 0);

  Replicator replicator(costs, config, *twins.src, *twins.dst, 1);
  VcpuState vcpu;
  Nanos now{0};
  // Ships the next generation: `pages` distinct PFNs with fresh bytes.
  const auto send = [&](std::size_t pages) {
    const std::uint64_t generation = images.size();
    std::vector<Pfn> dirty;
    for (std::size_t k = 0; k < pages; ++k) {
      const Pfn pfn{(generation * 5 + k * 3) % twins.src->page_count()};
      twins.src->page(pfn).data.fill(
          static_cast<std::byte>(generation * 16 + k));
      dirty.push_back(pfn);
    }
    vcpu.rip = 0x1000 + generation;
    const Replicator::SendResult sent =
        replicator.on_commit(generation, dirty, vcpu, now);
    images.push_back(image_of(*twins.dst));
    sizes.push_back(pages);
    return sent;
  };

  // Generations of different sizes cycle the window several times over
  // (each send stalls on the oldest ack once the window is full), so the
  // undo logs are recycled between generations of different sizes.
  for (std::size_t i = 0; i < 4 * config.window; ++i) {
    const Replicator::SendResult sent = send(1 + (i * 7) % 13);
    now += sent.stall + sent.charge;
  }
  ASSERT_GT(replicator.acked_through(), 1 + config.window);

  // One more generation, and the link partitions before it lands: its
  // bytes never arrive, and later commits never leave the primary.
  const std::uint64_t last = images.size();
  (void)send(20);
  // Applied eagerly: the standby already holds it...
  ASSERT_EQ(images[last].pages, image_of(*twins.src).pages);
  // ...but has not *received* it on the virtual timeline.
  EXPECT_LT(replicator.received_through(now), last);
  replicator.partition(now + micros(1));
  EXPECT_TRUE(replicator.partitioned());
  const Replicator::SendResult dropped =
      replicator.on_commit(last + 1, std::vector<Pfn>{Pfn{1}}, vcpu,
                           now + micros(2));
  EXPECT_TRUE(dropped.dropped);
  EXPECT_EQ(replicator.generations_dropped(), 1u);
  const std::uint64_t received = replicator.received_through(millis(100));
  EXPECT_LT(received, last);  // lost, not late

  const Replicator::DrainReport drain = replicator.drain(now + micros(3));
  EXPECT_EQ(drain.received_through, received);
  EXPECT_EQ(drain.rolled_back, last - received);
  std::size_t unreceived_pages = 0;
  for (std::uint64_t g = received + 1; g <= last; ++g) {
    unreceived_pages += sizes[g];
  }
  EXPECT_EQ(drain.pages_rolled_back, unreceived_pages);
  EXPECT_GT(drain.cost.count(), 0);
  EXPECT_EQ(replicator.in_flight(), 0u);
  // The standby is back at the last received generation: page bytes and
  // vCPU both undone.
  const Image& want = images[received];
  for (std::size_t i = 0; i < want.pages.size(); ++i) {
    ASSERT_EQ(std::as_const(*twins.dst).page(Pfn{i}), want.pages[i])
        << "pfn " << i;
  }
  EXPECT_EQ(twins.dst->vcpu(), want.vcpu);
}

TEST(Replicator, QuiesceReleasesTheWholeWindow) {
  const CostModel& costs = CostModel::defaults();
  replication::ReplicationConfig config;
  config.enabled = true;
  config.window = 4;
  TwinImages twins;
  twins.src->page(Pfn{5}).data.fill(std::byte{0x11});
  const std::vector<Pfn> dirty{Pfn{5}};
  VcpuState vcpu;

  Replicator replicator(costs, config, *twins.src, *twins.dst, 1);
  (void)replicator.on_commit(2, dirty, vcpu, Nanos{0});
  (void)replicator.on_commit(3, dirty, vcpu, micros(5));
  ASSERT_EQ(replicator.in_flight(), 2u);
  (void)replicator.quiesce(micros(6));
  EXPECT_EQ(replicator.in_flight(), 0u);
  // Unreceived generations rolled back: the standby holds its seed again.
  const Page zero{};
  EXPECT_EQ(std::as_const(*twins.dst).page(Pfn{5}), zero);
}

// ---------------------------------------------------------------------------
// StandbyHost promotion
// ---------------------------------------------------------------------------

TEST(StandbyHost, PromotionWaitsOutSuspicionAndLeaseExpiry) {
  const CostModel& costs = CostModel::defaults();
  replication::ReplicationConfig config;
  config.enabled = true;
  config.heartbeat.interval = millis(50);
  config.lease_term = millis(200);

  Hypervisor hypervisor{1u << 16};
  Vm& source = hypervisor.create_domain("primary-backup", 32);
  for (std::size_t i = 0; i < 8; ++i) {
    source.page(Pfn{i}).data.fill(static_cast<std::byte>(0x10 + i));
  }
  VcpuState vcpu;
  vcpu.rip = 0xABC;

  StandbyHost standby(costs, config, "primary", 32);
  const Nanos sync = standby.initialize(source, vcpu, 7, Nanos{0});
  EXPECT_GT(sync.count(), 0);
  EXPECT_TRUE(standby.initialized());
  EXPECT_EQ(standby.vm().state(), VmState::Paused);
  EXPECT_EQ(standby.seed_generation(), 7u);
  EXPECT_EQ(standby.vm().vcpu(), vcpu);
  expect_images_equal(source, standby.vm(), "seeded standby");

  // No heartbeat was ever seen: promotion can never become legal.
  EXPECT_EQ(standby.promotion_ready_at(Nanos{0}), Nanos::max());

  for (int i = 0; i <= 4; ++i) {
    standby.detector().record_heartbeat(millis(50) * i);
  }
  const Lease lease = standby.authority().grant(millis(210));
  ASSERT_TRUE(standby.authority().validates(lease, millis(300)));

  // Promotion readiness is the later of suspicion and lease expiry; here
  // the lease (210 + 200 ms) dominates the ~280 ms suspicion time.
  const Nanos ready = standby.promotion_ready_at(millis(200));
  EXPECT_EQ(ready, millis(410));
  EXPECT_GE(ready, standby.detector().suspicion_time(millis(200)));

  Replicator replicator(costs, config, source, standby.vm(), 7);
  EXPECT_THROW((void)standby.promote(replicator, ready - nanos(1)),
               std::logic_error);

  const StandbyHost::PromotionReport report =
      standby.promote(replicator, ready);
  EXPECT_TRUE(standby.promoted());
  EXPECT_EQ(standby.vm().state(), VmState::Running);
  EXPECT_EQ(report.promoted_generation, 7u);
  EXPECT_EQ(report.fencing_token, 2u);
  EXPECT_GE(report.cost, costs.promote_base);
  // The old primary's token is dead forever; a second promotion is illegal.
  EXPECT_FALSE(standby.authority().validates(lease, millis(350)));
  EXPECT_THROW((void)standby.promote(replicator, ready + millis(1)),
               std::logic_error);
}

// ---------------------------------------------------------------------------
// StoreJournal: fsck, crash recovery, torn writes
// ---------------------------------------------------------------------------

TEST(StoreJournal, FsckVerifiesTheDeviceAndDetectsATornTail) {
  PipelineRun run(journaled_config());
  const RunSummary summary = run.run();
  ASSERT_GT(summary.checkpoints, 0u);

  StoreJournal* journal = run.crimes.checkpointer().journal();
  ASSERT_NE(journal, nullptr);
  EXPECT_GT(journal->records(), summary.checkpoints);  // seed + appends + gc
  EXPECT_GT(journal->bytes().size(), 0u);

  StoreJournal::FsckReport clean = journal->fsck();
  EXPECT_TRUE(clean.ok) << clean.error;
  EXPECT_EQ(clean.records, journal->records());
  EXPECT_EQ(clean.valid_bytes, journal->bytes().size());
  EXPECT_EQ(clean.torn_bytes, 0u);

  // A crash mid-append leaves a prefix of the last record on the device.
  journal->tear_tail(11);
  StoreJournal::FsckReport torn = journal->fsck();
  EXPECT_FALSE(torn.ok);
  EXPECT_EQ(torn.records, journal->records() - 1);
  EXPECT_GT(torn.torn_bytes, 0u);
  EXPECT_EQ(torn.valid_bytes + torn.torn_bytes, journal->bytes().size());
}

TEST(StoreJournal, RecoveryRebuildsTheStoreByteIdentically) {
  PipelineRun run(journaled_config());
  (void)run.run();
  Checkpointer& checkpointer = run.crimes.checkpointer();
  StoreJournal* journal = checkpointer.journal();
  ASSERT_NE(journal, nullptr);

  const StoreJournal::Recovered recovered = StoreJournal::recover(
      journal->bytes(), CostModel::defaults(),
      run.crimes.config().checkpoint.store);
  EXPECT_EQ(recovered.records_applied, journal->records());
  EXPECT_EQ(recovered.torn_bytes_truncated, 0u);
  EXPECT_GT(recovered.cost.count(), 0);

  // The rebuilt backup image is the live one, byte for byte...
  ASSERT_NE(recovered.image, nullptr);
  expect_images_equal(checkpointer.backup(), *recovered.image,
                      "recovered backup image");
  EXPECT_EQ(recovered.image->vcpu(), checkpointer.backup_vcpu());
  // ...and so is every retained generation of the store.
  ASSERT_NE(checkpointer.store(), nullptr);
  expect_stores_identical(*checkpointer.store(), *recovered.store,
                          checkpointer.backup().page_count());
}

TEST(StoreJournal, RecoveryTruncatesATornTailAndKeepsThePrefix) {
  PipelineRun run(journaled_config());
  (void)run.run();
  StoreJournal* journal = run.crimes.checkpointer().journal();
  ASSERT_NE(journal, nullptr);
  journal->tear_tail(7);

  const StoreJournal::Recovered recovered = StoreJournal::recover(
      journal->bytes(), CostModel::defaults(),
      run.crimes.config().checkpoint.store);
  EXPECT_GT(recovered.torn_bytes_truncated, 0u);
  EXPECT_EQ(recovered.records_applied, journal->records() - 1);
  ASSERT_NE(recovered.store, nullptr);
  EXPECT_FALSE(recovered.store->retained_epochs().empty());
}

TEST(StoreJournal, TimeTravelRollbackReplaysThroughTruncateRecords) {
  PipelineRun run(journaled_config());
  (void)run.run();
  Checkpointer& checkpointer = run.crimes.checkpointer();
  ASSERT_NE(checkpointer.store(), nullptr);
  const std::vector<std::uint64_t> retained =
      checkpointer.store()->retained_epochs();
  ASSERT_GE(retained.size(), 3u);

  // Rewind the pipeline two generations: the journal logs a Truncate
  // record, and recovery must land on the truncated chain.
  run.guest.vm->pause();
  const std::uint64_t target = retained[retained.size() - 3];
  (void)checkpointer.rollback_to(target);
  ASSERT_EQ(checkpointer.store()->retained_epochs().back(), target);

  StoreJournal* journal = checkpointer.journal();
  const StoreJournal::Recovered recovered = StoreJournal::recover(
      journal->bytes(), CostModel::defaults(),
      run.crimes.config().checkpoint.store);
  EXPECT_EQ(recovered.records_applied, journal->records());
  expect_stores_identical(*checkpointer.store(), *recovered.store,
                          checkpointer.backup().page_count());
  expect_images_equal(checkpointer.backup(), *recovered.image,
                      "rolled-back backup image");
}

TEST(StoreJournal, InjectedTornWriteIsDetectedAndRepairedInline) {
  fault::FaultPlan plan;
  plan.from_epoch = 1000;  // probabilistic window never reached
  plan.scheduled.push_back({.epoch = 2,
                            .kind = fault::FaultKind::JournalTornWrite,
                            .module = ""});
  PipelineRun run(journaled_config(std::move(plan)));
  const RunSummary summary = run.run();
  EXPECT_GE(summary.faults_injected, 1u);

  StoreJournal* journal = run.crimes.checkpointer().journal();
  ASSERT_NE(journal, nullptr);
  EXPECT_EQ(journal->torn_writes_repaired(), 1u);
  // The repair rewrote the damaged frame: the device verifies clean and
  // recovery sees every record.
  EXPECT_TRUE(journal->fsck().ok) << journal->fsck().error;
  const StoreJournal::Recovered recovered = StoreJournal::recover(
      journal->bytes(), CostModel::defaults(),
      run.crimes.config().checkpoint.store);
  EXPECT_EQ(recovered.records_applied, journal->records());
}

// ---------------------------------------------------------------------------
// End-to-end replication pipeline
// ---------------------------------------------------------------------------

TEST(ReplicationPipeline, CleanRunStreamsEveryCommittedGeneration) {
  PipelineRun run(replicated_config());
  const RunSummary summary = run.run();

  EXPECT_EQ(summary.epochs, 10u);
  EXPECT_EQ(summary.checkpoints, 10u);
  EXPECT_EQ(summary.replicated_generations, summary.checkpoints);
  EXPECT_EQ(summary.replication_dropped, 0u);
  EXPECT_FALSE(summary.primary_killed);
  EXPECT_FALSE(summary.failed_over);
  EXPECT_EQ(summary.outputs_discarded, 0u);
  EXPECT_EQ(summary.fenced_epochs, 0u);

  ASSERT_NE(run.crimes.replicator(), nullptr);
  ASSERT_NE(run.crimes.standby(), nullptr);
  EXPECT_FALSE(run.crimes.standby()->promoted());
  EXPECT_EQ(run.crimes.replicator()->generations_sent(),
            summary.checkpoints);
  EXPECT_LE(run.crimes.replicator()->in_flight(),
            run.crimes.config().replication.window);
  EXPECT_TRUE(run.crimes.lease().held());
  // The standby's detector heard every epoch heartbeat (plus the seed).
  EXPECT_EQ(run.crimes.standby()->detector().heartbeats_seen(),
            summary.epochs + 1);
  // Bytes stream eagerly: the warm standby mirrors the backup image.
  expect_images_equal(run.crimes.checkpointer().backup(),
                      run.crimes.standby()->vm(), "warm standby");
  EXPECT_EQ(run.crimes.standby()->vm().vcpu(),
            run.crimes.checkpointer().backup_vcpu());
}

TEST(ReplicationPipeline, SameSeedSameRunUnderAFailoverStorm) {
  const fault::FaultPlan plan = fault::FaultPlan::failover_storm(0.8, 0, 6, 9);
  PipelineRun a(replicated_config(plan));
  PipelineRun b(replicated_config(plan));
  const RunSummary sa = a.run();
  const RunSummary sb = b.run();

  EXPECT_EQ(sa.epochs, sb.epochs);
  EXPECT_EQ(sa.checkpoints, sb.checkpoints);
  EXPECT_EQ(sa.faults_injected, sb.faults_injected);
  EXPECT_EQ(sa.replicated_generations, sb.replicated_generations);
  EXPECT_EQ(sa.replication_dropped, sb.replication_dropped);
  EXPECT_EQ(sa.replication_stall, sb.replication_stall);
  EXPECT_EQ(sa.failed_over, sb.failed_over);
  EXPECT_EQ(sa.failover_time, sb.failover_time);
  EXPECT_EQ(sa.promoted_generation, sb.promoted_generation);
  EXPECT_EQ(sa.outputs_discarded, sb.outputs_discarded);
  EXPECT_EQ(sa.fenced_epochs, sb.fenced_epochs);
  EXPECT_EQ(sa.total_pause, sb.total_pause);
  EXPECT_EQ(backup_fingerprint(a.crimes), backup_fingerprint(b.crimes));
  EXPECT_EQ(vm_fingerprint(a.crimes.standby()->vm()),
            vm_fingerprint(b.crimes.standby()->vm()));
  EXPECT_GT(sa.faults_injected, 0u);  // an 80% storm over 6 epochs fires
}

TEST(ReplicationPipeline, PrimaryKillPromotesTheStandby) {
  fault::FaultPlan plan;
  plan.from_epoch = 1000;
  plan.scheduled.push_back(
      {.epoch = 4, .kind = fault::FaultKind::PrimaryKill, .module = ""});
  PipelineRun run(replicated_config(std::move(plan)));
  const RunSummary summary = run.run();

  EXPECT_TRUE(summary.primary_killed);
  EXPECT_TRUE(summary.failed_over);
  EXPECT_EQ(summary.epochs, 4u);  // the host died before epoch 4 opened
  EXPECT_GT(summary.failover_time.count(), 0);
  EXPECT_GE(summary.promoted_generation, 1u);
  EXPECT_LE(summary.promoted_generation, summary.checkpoints);

  ASSERT_NE(run.crimes.standby(), nullptr);
  EXPECT_TRUE(run.crimes.standby()->promoted());
  EXPECT_EQ(run.crimes.standby()->vm().state(), VmState::Running);
  EXPECT_EQ(run.guest.vm->state(), VmState::Paused);
  EXPECT_EQ(run.crimes.pending_release_count(), 0u);  // discarded, not held
  // Promotion waited out both fences: the detector's suspicion and every
  // lease ever granted.
  EXPECT_GE(run.crimes.clock().now(),
            run.crimes.standby()->authority().promotion_safe_at());

  // A dead primary runs no further epochs.
  const RunSummary again = run.crimes.run(millis(10000));
  EXPECT_EQ(again.epochs, summary.epochs);
  EXPECT_FALSE(run.app.finished());
}

// The split-brain property test: the link partitions (the primary keeps
// running), the unheard-from standby promotes, and fencing guarantees that
// exactly one side's outputs are ever released -- the fenced primary's
// released stream is a strict prefix of the fault-free run's, and nothing
// escapes it after promotion.
TEST(ReplicationPipeline, SplitBrainReleasesOutputsFromExactlyOneHost) {
  constexpr std::size_t kEpochs = 14;

  // Fault-free reference: every epoch's packet is eventually released.
  TestGuest clean_guest;
  Crimes clean(clean_guest.hypervisor, *clean_guest.kernel,
               replicated_config());
  EpochTalker clean_app(*clean_guest.kernel, clean.nic(), kEpochs);
  clean.set_workload(&clean_app);
  clean.initialize();
  (void)clean.run(millis(10000));
  const std::vector<std::string> clean_stream = delivered_payloads(clean);
  ASSERT_GT(clean_stream.size(), kEpochs / 2);

  // Faulty run: a sticky partition at epoch 3 cuts heartbeats, acks and
  // lease renewals at once.
  fault::FaultPlan plan;
  plan.from_epoch = 1000;
  plan.scheduled.push_back(
      {.epoch = 3, .kind = fault::FaultKind::LinkPartition, .module = ""});
  TestGuest guest;
  Crimes crimes(guest.hypervisor, *guest.kernel,
                replicated_config(std::move(plan)));
  EpochTalker app(*guest.kernel, crimes.nic(), kEpochs);
  crimes.set_workload(&app);
  crimes.initialize();

  // Drive epoch-sized slices and watch the wire across the promotion.
  bool promoted = false;
  std::size_t released_at_promotion = 0;
  for (std::size_t slice = 0; slice < kEpochs; ++slice) {
    const RunSummary& totals = crimes.run(millis(50));
    if (promoted) {
      // The fenced primary must never release another byte.
      EXPECT_EQ(crimes.network().delivered_count(), released_at_promotion)
          << "output escaped the fenced primary in slice " << slice;
    } else if (totals.failed_over) {
      promoted = true;
      released_at_promotion = crimes.network().delivered_count();
    }
  }

  ASSERT_TRUE(promoted) << "the standby never promoted";
  const RunSummary& totals = crimes.totals();
  EXPECT_EQ(totals.epochs, kEpochs);  // the fenced primary kept running
  EXPECT_TRUE(crimes.failed_over());
  EXPECT_FALSE(crimes.primary_killed());
  EXPECT_TRUE(crimes.standby()->promoted());
  EXPECT_EQ(crimes.standby()->vm().state(), VmState::Running);
  // Partitioned epochs' outputs died unreleased. fenced_epochs may stay
  // zero: acks stop before the lease does.
  EXPECT_GT(totals.outputs_discarded, 0u);
  // The primary's lease expired and can never be renewed or validated.
  EXPECT_FALSE(crimes.lease().valid(crimes.clock().now()));
  EXPECT_FALSE(crimes.standby()->authority().validates(
      crimes.lease(), crimes.standby()->authority().promotion_safe_at()));

  // Released stream = a strict prefix of the fault-free run's stream: no
  // reordering, no duplication, nothing the clean run would not have sent.
  const std::vector<std::string> stream = delivered_payloads(crimes);
  ASSERT_LT(stream.size(), clean_stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(stream[i], clean_stream[i]) << "released packet " << i;
  }
}

TEST(ReplicationPipeline, PromotedStandbyMatchesTheFaultFreeBackup) {
  // Both runs retain every generation so the clean run can materialize the
  // exact generation the faulty run's standby promoted from.
  const auto with_store = [](fault::FaultPlan plan = {}) {
    CrimesConfig config = replicated_config(std::move(plan));
    config.checkpoint.store.enabled = true;
    config.checkpoint.store.retention.keep_last = 64;
    return config;
  };
  fault::FaultPlan plan;
  plan.from_epoch = 1000;
  plan.scheduled.push_back(
      {.epoch = 3, .kind = fault::FaultKind::LinkPartition, .module = ""});
  PipelineRun faulty(with_store(std::move(plan)), /*duration_ms=*/600.0);
  const RunSummary summary = faulty.run();
  ASSERT_TRUE(summary.failed_over);
  const std::uint64_t promoted = summary.promoted_generation;
  ASSERT_GE(promoted, 1u);

  PipelineRun clean(with_store(), /*duration_ms=*/600.0);
  (void)clean.run();
  const store::CheckpointStore* store = clean.crimes.checkpointer().store();
  ASSERT_NE(store, nullptr);
  ASSERT_TRUE(store->has_generation(promoted));

  // Failover promotes the last *fully replicated* generation: the standby
  // image must equal the fault-free run's backup as of that generation.
  Hypervisor scratch{1u << 18};
  Vm& image = scratch.create_domain(
      "clean-generation", faulty.guest.vm->page_count());
  ForeignMapping dst{image};
  const store::CheckpointStore::Restored restored =
      store->materialize(promoted, dst);
  Vm& standby_vm = faulty.crimes.standby()->vm();
  EXPECT_EQ(restored.vcpu, standby_vm.vcpu());
  expect_images_equal(image, standby_vm, "promoted standby image");
}

// Satellite regression: a governor Freeze during in-flight replication
// must quiesce the replicator -- the window may not stay pinned open.
TEST(ReplicationPipeline, GovernorFreezeQuiescesTheReplicator) {
  fault::FaultPlan plan;
  plan.transport_copy_fail = 1.0;  // the checkpoint path never heals
  plan.from_epoch = 3;             // after three replicated commits
  CrimesConfig config = replicated_config(std::move(plan));
  config.governor.downgrade_after = 2;
  config.governor.freeze_after = 4;

  PipelineRun run(config, /*duration_ms=*/2000.0);
  const RunSummary summary = run.run();

  EXPECT_TRUE(summary.frozen_by_governor);
  EXPECT_GE(summary.replicated_generations, 3u);
  EXPECT_EQ(run.guest.vm->state(), VmState::Paused);
  ASSERT_NE(run.crimes.replicator(), nullptr);
  // The freeze drained the stream and released every window slot.
  EXPECT_EQ(run.crimes.replicator()->in_flight(), 0u);
  EXPECT_FALSE(run.crimes.standby()->promoted());
}

// A replication stream tampered in flight must never be promoted, on
// either leg: the standby refuses to resume state that does not verify to
// its trusted root, whether the primary died (kill) or merely went silent
// behind a partition (split brain), and the veto is final.
class RefusedPromotion : public ::testing::TestWithParam<fault::FaultKind> {
};

TEST_P(RefusedPromotion, TamperedChainIsNeverPromoted) {
  const bool killed = GetParam() == fault::FaultKind::PrimaryKill;
  fault::FaultPlan plan;
  plan.replication_tamper = 1.0;
  plan.from_epoch = 1;
  plan.until_epoch = 3;
  plan.scheduled.push_back({.epoch = 4, .kind = GetParam(), .module = ""});
  CrimesConfig config = replicated_config(std::move(plan));
  config.checkpoint.store.enabled = true;
  config.checkpoint.store.crypto.seal = true;
  config.checkpoint.store.crypto.attest = true;
  // Room for the refusal's dump after the per-generation verify failures'.
  config.postmortem_limit = 64;
  PipelineRun run(std::move(config), /*duration_ms=*/5000.0);
  for (int slice = 0; slice < 20; ++slice) (void)run.crimes.run(millis(50));

  const RunSummary& totals = run.crimes.totals();
  EXPECT_EQ(totals.primary_killed, killed);
  EXPECT_EQ(totals.epochs, killed ? 4u : 20u);
  EXPECT_FALSE(totals.failed_over);
  EXPECT_FALSE(run.crimes.failed_over());
  EXPECT_EQ(totals.promotions_refused, 1u);  // not retried every epoch
  EXPECT_GT(totals.tampers_detected, 0u);
  EXPECT_FALSE(run.crimes.standby()->promoted());
  EXPECT_EQ(run.crimes.standby()->vm().state(), VmState::Paused);
  // A dead primary stays a paused crime scene; a live one keeps running.
  EXPECT_EQ(run.guest.vm->state(),
            killed ? VmState::Paused : VmState::Running);

  // The refusal is flight-recorder evidence, frozen into an
  // attestation-verify postmortem.
  std::size_t refusals = 0;
  for (const telemetry::FlightEvent& event :
       run.crimes.flight_recorder()->snapshot()) {
    if (std::string(event.what) == "promotion_refused") ++refusals;
  }
  EXPECT_EQ(refusals, 1u);
  const auto& dumps = run.crimes.postmortems();
  EXPECT_TRUE(std::any_of(dumps.begin(), dumps.end(), [](const auto& dump) {
    return dump.reason == "attestation-verify" &&
           dump.json.find("promotion_refused") != std::string::npos;
  }));
}

INSTANTIATE_TEST_SUITE_P(
    BothLegs, RefusedPromotion,
    ::testing::Values(fault::FaultKind::PrimaryKill,
                      fault::FaultKind::LinkPartition),
    [](const ::testing::TestParamInfo<fault::FaultKind>& leg) {
      return std::string(leg.param == fault::FaultKind::PrimaryKill
                             ? "Kill"
                             : "SplitBrain");
    });

// ---------------------------------------------------------------------------
// Cloud host: per-tenant failover isolation
// ---------------------------------------------------------------------------

TEST(CloudReplication, FailedOverTenantDropsOutOfSchedulingAlone) {
  CloudHost host;
  fault::FaultPlan plan;
  plan.from_epoch = 1000;
  plan.scheduled.push_back(
      {.epoch = 3, .kind = fault::FaultKind::PrimaryKill, .module = ""});

  TenantPolicy doomed;
  doomed.name = "finance";
  doomed.guest = TestGuest::small_config();
  doomed.crimes = replicated_config(std::move(plan));
  TenantPolicy bystander;
  bystander.name = "analytics";
  bystander.guest = TestGuest::small_config();
  bystander.crimes = replicated_config();

  Tenant& a = host.admit(std::move(doomed));
  Tenant& b = host.admit(std::move(bystander));
  ParsecWorkload app_a(a.kernel(), small_parsec());
  ParsecWorkload app_b(b.kernel(), small_parsec());
  a.set_workload(&app_a);
  b.set_workload(&app_b);
  host.initialize_all();

  const CloudRunReport report = host.run(millis(500));
  EXPECT_EQ(report.tenants_failed_over, 1u);
  ASSERT_EQ(report.failed_over_tenants.size(), 1u);
  EXPECT_EQ(report.failed_over_tenants[0], "finance");
  EXPECT_EQ(report.tenants_attacked, 0u);

  EXPECT_TRUE(a.frozen());
  EXPECT_TRUE(a.totals().primary_killed);
  EXPECT_TRUE(a.totals().failed_over);
  EXPECT_GT(a.totals().failover_time.count(), 0);
  EXPECT_EQ(a.totals().epochs, 3u);
  EXPECT_TRUE(a.crimes().standby()->promoted());
  // The neighbour never noticed: its epochs all ran, nothing failed over.
  EXPECT_FALSE(b.frozen());
  EXPECT_EQ(b.totals().epochs, 10u);
  EXPECT_FALSE(b.totals().failed_over);
  EXPECT_TRUE(app_b.finished());
}

}  // namespace
}  // namespace crimes
