// Tests: checkpoint transports, including the Remus-style compressed
// (XOR-delta + RLE) path and its codec, and the fault paths of the two
// socket transports (retry/backoff accounting under a transport storm).
#include "checkpoint/checkpointer.h"
#include "checkpoint/transport.h"
#include "common/rng.h"
#include "core/crimes.h"
#include "fault/fault_plan.h"
#include "store/page_store.h"
#include "test_helpers.h"
#include "workload/parsec.h"

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <vector>

namespace crimes {
namespace {

using testing::TestGuest;

TEST(Rle, RoundTripsVariousPatterns) {
  const auto round_trip = [](std::vector<std::byte> data) {
    const auto encoded = rle::encode(data);
    std::vector<std::byte> decoded(data.size());
    ASSERT_TRUE(rle::decode(encoded, decoded));
    EXPECT_EQ(decoded, data);
  };
  round_trip({});
  round_trip(std::vector<std::byte>(4096, std::byte{0}));         // all zero
  round_trip(std::vector<std::byte>(4096, std::byte{0xAB}));      // all lits
  {
    std::vector<std::byte> sparse(4096, std::byte{0});
    sparse[17] = std::byte{1};
    sparse[4000] = std::byte{2};
    round_trip(sparse);
  }
  {
    Rng rng(3);
    std::vector<std::byte> random(4096);
    for (auto& b : random) b = static_cast<std::byte>(rng.next_u64());
    round_trip(random);
  }
  {
    // Runs longer than the u16 field can express in one record.
    std::vector<std::byte> long_runs(200000, std::byte{0});
    for (std::size_t i = 100000; i < 180000; ++i) {
      long_runs[i] = std::byte{0x55};
    }
    round_trip(long_runs);
  }
}

TEST(Rle, CompressesSparseDataAndRejectsGarbage) {
  std::vector<std::byte> sparse(4096, std::byte{0});
  sparse[100] = std::byte{7};
  const auto encoded = rle::encode(sparse);
  EXPECT_LT(encoded.size(), 64u);

  std::vector<std::byte> out(4096);
  std::vector<std::byte> truncated(encoded.begin(), encoded.begin() + 2);
  EXPECT_FALSE(rle::decode(truncated, out));
  // A record claiming more literals than remain.
  std::vector<std::byte> lying(4);
  lying[2] = std::byte{0xFF};
  lying[3] = std::byte{0xFF};
  EXPECT_FALSE(rle::decode(lying, out));
}

// The byte-serial encoder the word-at-a-time one replaced, kept as the
// reference: the format fixes the output, so the two must agree byte for
// byte on every input.
std::vector<std::byte> reference_encode(std::span<const std::byte> data) {
  std::vector<std::byte> out;
  std::size_t i = 0;
  while (i < data.size()) {
    std::size_t zeros = 0;
    while (i + zeros < data.size() && data[i + zeros] == std::byte{0} &&
           zeros < 0xFFFF) {
      ++zeros;
    }
    const std::size_t lit_start = i + zeros;
    std::size_t lits = 0;
    while (lit_start + lits < data.size() &&
           data[lit_start + lits] != std::byte{0} && lits < 0xFFFF) {
      ++lits;
    }
    out.push_back(static_cast<std::byte>(zeros & 0xFF));
    out.push_back(static_cast<std::byte>(zeros >> 8));
    out.push_back(static_cast<std::byte>(lits & 0xFF));
    out.push_back(static_cast<std::byte>(lits >> 8));
    out.insert(out.end(), data.begin() + static_cast<std::ptrdiff_t>(lit_start),
               data.begin() + static_cast<std::ptrdiff_t>(lit_start + lits));
    i = lit_start + lits;
  }
  return out;
}

// `len` bytes, each non-zero with probability percent/100.
std::vector<std::byte> random_bytes(Rng& rng, std::size_t len,
                                    std::uint64_t percent) {
  std::vector<std::byte> out(len, std::byte{0});
  for (auto& b : out) {
    if (rng.next_u64() % 100 < percent) {
      b = static_cast<std::byte>(1 + rng.next_u64() % 255);
    }
  }
  return out;
}

TEST(Rle, WordwiseEncoderMatchesByteSerialReference) {
  Rng rng(11);
  std::vector<std::vector<std::byte>> inputs;
  // Short and ragged lengths: every tail shape of the word loop.
  for (std::size_t len = 0; len <= 72; ++len) {
    inputs.push_back(random_bytes(rng, len, 50));
  }
  // Random and sparse pages, and lengths that are not a multiple of 8.
  for (const std::uint64_t percent : {0, 1, 5, 30, 70, 95, 99, 100}) {
    for (const std::size_t len : {kPageSize, kPageSize - 3, std::size_t{1001}}) {
      inputs.push_back(random_bytes(rng, len, percent));
    }
  }
  // A zero run (and, on the inverse input, a literal run) of every length
  // up to 20 at every offset within two words.
  for (std::size_t at = 0; at < 16; ++at) {
    for (std::size_t run = 0; run <= 20; ++run) {
      std::vector<std::byte> hole(48, std::byte{0x5A});
      std::vector<std::byte> island(48, std::byte{0});
      for (std::size_t i = at; i < at + run; ++i) {
        hole[i] = std::byte{0};
        island[i] = std::byte{0xA5};
      }
      inputs.push_back(std::move(hole));
      inputs.push_back(std::move(island));
    }
  }
  // Over 64 KiB: zero and literal runs past the u16 record caps, ending
  // exactly on, just past, and inside a cap.
  for (const std::size_t len : {std::size_t{0xFFFF}, std::size_t{0x10000},
                                std::size_t{0x1FFFE}, std::size_t{200003}}) {
    inputs.emplace_back(len, std::byte{0});
    inputs.emplace_back(len, std::byte{0x33});
    std::vector<std::byte> mixed(len, std::byte{0});
    for (std::size_t i = len / 3; i < len; ++i) mixed[i] = std::byte{0x77};
    inputs.push_back(std::move(mixed));
  }

  for (const std::vector<std::byte>& data : inputs) {
    const std::vector<std::byte> expected = reference_encode(data);
    const std::vector<std::byte> encoded = rle::encode(data);
    ASSERT_EQ(encoded, expected) << "length " << data.size();
    EXPECT_EQ(encoded.capacity(), encoded.size()) << "exactly sized";
    EXPECT_EQ(rle::encoded_size(data), expected.size());
    std::vector<std::byte> decoded(data.size(), std::byte{0xCC});
    ASSERT_TRUE(rle::decode(encoded, decoded));
    EXPECT_EQ(decoded, data);
  }

  // encode_to insists on an exactly sized buffer.
  const std::vector<std::byte> page = random_bytes(rng, kPageSize, 30);
  std::vector<std::byte> small(rle::encoded_size(page) - 1);
  std::vector<std::byte> large(rle::encoded_size(page) + 1);
  EXPECT_THROW(rle::encode_to(page, small), std::length_error);
  EXPECT_THROW(rle::encode_to(page, large), std::length_error);
}

TEST(Rle, OnePassDeltaSizingPicksTheSameEncoding) {
  // PageStore::intern sizes the raw page and its XOR delta in one sweep
  // and encodes only the winner; that choice must be the one encoding
  // both candidates and comparing would make.
  Rng rng(12);
  std::size_t deltas_won = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const std::uint64_t percent = rng.next_u64() % 101;
    const std::vector<std::byte> base = random_bytes(rng, kPageSize, percent);
    std::vector<std::byte> data = base;
    if (trial % 3 == 0) {
      data = random_bytes(rng, kPageSize, rng.next_u64() % 101);
    } else {
      const std::size_t edits = 1 + rng.next_u64() % 200;
      for (std::size_t e = 0; e < edits; ++e) {
        data[rng.next_u64() % kPageSize] ^=
            static_cast<std::byte>(1 + rng.next_u64() % 255);
      }
    }
    std::vector<std::byte> xored(kPageSize);
    for (std::size_t i = 0; i < kPageSize; ++i) xored[i] = data[i] ^ base[i];

    std::vector<std::byte> delta(kPageSize, std::byte{0xCC});
    const rle::DeltaSizes sizes = rle::size_with_delta(data, base, delta);
    EXPECT_EQ(delta, xored);
    const std::size_t raw_size = reference_encode(data).size();
    const std::size_t delta_size = reference_encode(xored).size();
    ASSERT_EQ(sizes.raw, raw_size) << "trial " << trial;
    ASSERT_EQ(sizes.delta, delta_size) << "trial " << trial;

    // The store makes the same choice and keeps the winner exactly sized.
    Page base_page;
    Page data_page;
    std::memcpy(base_page.data.data(), base.data(), kPageSize);
    std::memcpy(data_page.data.data(), data.data(), kPageSize);
    if (base_page == data_page) continue;
    store::PageStore pages(/*delta_compress=*/true);
    const std::uint64_t base_key =
        pages.intern(base_page, store::page_digest(base_page));
    const std::uint64_t after_base = pages.stats().bytes_physical;
    (void)pages.intern(data_page, store::page_digest(data_page), base_key);
    const bool delta_wins = delta_size < raw_size;
    deltas_won += delta_wins ? 1 : 0;
    EXPECT_EQ(pages.stats().delta_entries, delta_wins ? 1u : 0u);
    EXPECT_EQ(pages.stats().bytes_physical - after_base,
              (delta_wins ? delta_size : raw_size) +
                  (after_base - reference_encode(base).size()))
        << "trial " << trial;
  }
  EXPECT_GT(deltas_won, 0u);

  std::vector<std::byte> ragged(kPageSize - 1);
  std::vector<std::byte> out(kPageSize - 1);
  EXPECT_THROW((void)rle::size_with_delta(ragged, ragged, out),
               std::invalid_argument);
}

TEST(CompressedTransport, ProducesIdenticalBackupImage) {
  TestGuest guest;
  SimClock clock;
  CheckpointConfig config = CheckpointConfig::no_opt();
  config.compress = true;
  Checkpointer cp(guest.hypervisor, *guest.vm, clock, CostModel::defaults(),
                  config);
  cp.initialize();

  Rng rng(31);
  const GuestLayout& layout = guest.kernel->layout();
  const Vaddr heap = layout.va_of(layout.heap_base);
  for (int epoch = 0; epoch < 4; ++epoch) {
    for (int i = 0; i < 150; ++i) {
      const std::uint64_t off =
          rng.next_below(layout.heap_pages * kPageSize / 8 - 1) * 8;
      guest.kernel->write_value<std::uint64_t>(heap + off, rng.next_u64());
    }
    (void)cp.run_checkpoint({});
    for (std::size_t i = 0; i < guest.vm->page_count(); ++i) {
      ASSERT_EQ(std::as_const(*guest.vm).page(Pfn{i}),
                std::as_const(cp.backup()).page(Pfn{i}))
          << "epoch " << epoch << " page " << i;
    }
  }
}

TEST(CompressedTransport, SparseDirtyingCompressesAndCostsLess) {
  // Two identical guests, one plain socket, one compressed. Each epoch
  // writes 8 bytes into each of many pages: deltas are tiny.
  TestGuest plain_guest, comp_guest;
  SimClock c1, c2;
  Checkpointer plain(plain_guest.hypervisor, *plain_guest.vm, c1,
                     CostModel::defaults(), CheckpointConfig::no_opt());
  CheckpointConfig comp_config = CheckpointConfig::no_opt();
  comp_config.compress = true;
  Checkpointer comp(comp_guest.hypervisor, *comp_guest.vm, c2,
                    CostModel::defaults(), comp_config);
  plain.initialize();
  comp.initialize();

  const auto sparse_writes = [](GuestKernel& kernel) {
    const GuestLayout& layout = kernel.layout();
    const Vaddr heap = layout.va_of(layout.heap_base);
    for (std::size_t page = 0; page < 200; ++page) {
      kernel.write_value<std::uint64_t>(heap + page * kPageSize + 64,
                                        0xABCDEF ^ page);
    }
  };
  sparse_writes(*plain_guest.kernel);
  sparse_writes(*comp_guest.kernel);
  // First checkpoint after boot carries cold pages; commit it, then
  // measure a steady-state epoch.
  (void)plain.run_checkpoint({});
  (void)comp.run_checkpoint({});
  sparse_writes(*plain_guest.kernel);
  sparse_writes(*comp_guest.kernel);
  const EpochResult plain_result = plain.run_checkpoint({});
  const EpochResult comp_result = comp.run_checkpoint({});

  ASSERT_EQ(plain_result.dirty.size(), comp_result.dirty.size());
  EXPECT_LT(comp_result.costs.copy, plain_result.costs.copy / 2);

  const auto& transport =
      dynamic_cast<const CompressedSocketTransport&>(comp.transport());
  EXPECT_GT(transport.compression_ratio(), 10.0);
}

TEST(CompressedTransport, IncompressibleDataCostsAboutTheSame) {
  TestGuest guest;
  SimClock clock;
  CheckpointConfig config = CheckpointConfig::no_opt();
  config.compress = true;
  Checkpointer cp(guest.hypervisor, *guest.vm, clock, CostModel::defaults(),
                  config);
  cp.initialize();

  // Fill whole pages with random bytes: zero-free deltas.
  Rng rng(77);
  const GuestLayout& layout = guest.kernel->layout();
  const Vaddr heap = layout.va_of(layout.heap_base);
  std::vector<std::byte> junk(kPageSize);
  for (std::size_t page = 0; page < 50; ++page) {
    for (auto& b : junk) {
      b = static_cast<std::byte>(rng.next_u64() | 1);  // never zero
    }
    guest.kernel->write_virt(heap + page * kPageSize, junk);
  }
  const EpochResult result = cp.run_checkpoint({});
  const CostModel& costs = CostModel::defaults();
  const auto& compressed =
      dynamic_cast<const CompressedSocketTransport&>(cp.transport());
  // Exactly the checkpointer's compressed price: CPU per page plus every
  // wire byte sent...
  ASSERT_GT(result.dirty.size(), 0u);
  EXPECT_EQ(result.costs.copy,
            costs.copy_compress_per_page * result.dirty.size() +
                costs.copy_wire_per_byte * compressed.wire_bytes());
  // ...which for zero-free deltas lands within ~2x of the plain socket
  // cost (RLE adds a little framing).
  const Nanos plain_cost = costs.copy_socket_per_page * result.dirty.size();
  EXPECT_LT(result.costs.copy, plain_cost * 2);
  EXPECT_GT(result.costs.copy, plain_cost / 2);
}

TEST(CompressedTransport, RejectedWithMemcpyOptimization) {
  TestGuest guest;
  SimClock clock;
  CheckpointConfig config = CheckpointConfig::full();
  config.compress = true;
  EXPECT_THROW(Checkpointer(guest.hypervisor, *guest.vm, clock,
                            CostModel::defaults(), config),
               std::invalid_argument);
}

TEST(Transports, NamesAreDistinct) {
  const CostModel& costs = CostModel::defaults();
  MemcpyTransport a(costs);
  SocketTransport b(costs.copy_socket_per_page);
  CompressedSocketTransport c(costs.copy_compress_per_page,
                              costs.copy_wire_per_byte);
  EXPECT_STRNE(a.name(), b.name());
  EXPECT_STRNE(b.name(), c.name());
}

// ---------------------------------------------------------------------------
// Socket-transport fault paths: the retry/backoff machinery was only ever
// exercised end-to-end on MemcpyTransport; drive both socket transports
// through a transport storm and hold them to the same contract.
// ---------------------------------------------------------------------------

std::uint64_t backup_fingerprint(Crimes& crimes) {
  Vm& backup = crimes.checkpointer().backup();
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  for (std::size_t i = 0; i < backup.page_count(); ++i) {
    const Pfn pfn{i};
    if (!backup.is_backed(pfn)) {
      mix(0x9E);
      continue;
    }
    for (const std::byte b : backup.page(pfn).bytes()) {
      mix(std::to_integer<std::uint64_t>(b));
    }
  }
  return h;
}

struct SocketRun {
  RunSummary summary;
  std::uint64_t backup_hash = 0;
};

SocketRun run_socket_parsec(bool compress, fault::FaultPlan plan) {
  CrimesConfig config;
  config.checkpoint = CheckpointConfig::no_opt(millis(50));
  config.checkpoint.compress = compress;
  config.mode = SafetyMode::Synchronous;
  config.record_execution = false;
  config.faults = std::move(plan);

  TestGuest guest;
  Crimes crimes(guest.hypervisor, *guest.kernel, config);
  ParsecProfile profile = ParsecProfile::by_name("raytrace");
  profile.working_set_pages = 256;
  profile.touches_per_ms = 4.0;
  profile.duration_ms = 500.0;
  ParsecWorkload app(*guest.kernel, profile);
  crimes.set_workload(&app);
  crimes.initialize();
  SocketRun out;
  out.summary = crimes.run(millis(10000));
  out.backup_hash = backup_fingerprint(crimes);
  return out;
}

TEST(SocketTransportFaults, StormRetriesWithBackoffAndConverges) {
  // Faults confined to the first four epochs: the socket path must retry,
  // charge exponential backoff to the virtual clock, and still converge on
  // the fault-free backup image once the storm passes.
  const fault::FaultPlan plan = fault::FaultPlan::transport_storm(0.6, 0, 4, 11);
  const SocketRun faulty = run_socket_parsec(/*compress=*/false, plan);
  const SocketRun clean =
      run_socket_parsec(/*compress=*/false, fault::FaultPlan{});

  EXPECT_EQ(faulty.summary.epochs, clean.summary.epochs);
  EXPECT_EQ(faulty.backup_hash, clean.backup_hash)
      << "socket backup must converge on the clean image after the storm";
  EXPECT_GT(faulty.summary.faults_injected, 0u);
  EXPECT_GT(faulty.summary.copy_retries, 0u);
  EXPECT_EQ(clean.summary.copy_retries, 0u);
  // Backoff accounting: every retry charges at least the base backoff
  // (retry k waits base << k), all of it booked as recovery time.
  const Nanos floor =
      CostModel::defaults().retry_backoff_base * faulty.summary.copy_retries;
  EXPECT_GE(faulty.summary.recovery_time, floor);
  EXPECT_GT(faulty.summary.total_pause, clean.summary.total_pause);
}

TEST(SocketTransportFaults, CompressedStormRetriesAndStaysDeterministic) {
  const fault::FaultPlan plan = fault::FaultPlan::transport_storm(0.6, 0, 4, 5);
  const SocketRun a = run_socket_parsec(/*compress=*/true, plan);
  const SocketRun b = run_socket_parsec(/*compress=*/true, plan);
  const SocketRun clean =
      run_socket_parsec(/*compress=*/true, fault::FaultPlan{});

  // Same seed, same run: fault decisions and backoff charges replay.
  EXPECT_EQ(a.summary.faults_injected, b.summary.faults_injected);
  EXPECT_EQ(a.summary.copy_retries, b.summary.copy_retries);
  EXPECT_EQ(a.summary.checkpoint_failures, b.summary.checkpoint_failures);
  EXPECT_EQ(a.summary.recovery_time, b.summary.recovery_time);
  EXPECT_EQ(a.summary.total_pause, b.summary.total_pause);
  EXPECT_EQ(a.backup_hash, b.backup_hash);

  // The compressed path heals exactly like the plain one.
  EXPECT_EQ(a.summary.epochs, clean.summary.epochs);
  EXPECT_EQ(a.backup_hash, clean.backup_hash);
  EXPECT_GT(a.summary.copy_retries, 0u);
  EXPECT_GE(a.summary.recovery_time,
            CostModel::defaults().retry_backoff_base * a.summary.copy_retries);
}

}  // namespace
}  // namespace crimes
