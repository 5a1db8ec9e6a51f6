// Unit tests: memory dumps and the Volatility-style plugins.
#include "common/rng.h"
#include "forensics/artifact_store.h"
#include "forensics/memory_dump.h"
#include "forensics/plugins.h"
#include "forensics/report.h"
#include "test_helpers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace crimes {
namespace {

using testing::TempDir;
using testing::TestGuest;
namespace fx = forensics;

MemoryDump dump_of(TestGuest& guest, const std::string& label = "t") {
  return MemoryDump::capture(*guest.vm, guest.kernel->symbols(),
                             guest.kernel->flavor(), label, Nanos{0});
}

TEST(MemoryDump, CaptureIsAFrozenCopy) {
  TestGuest guest;
  const MemoryDump dump = dump_of(guest);
  const Pid pid = guest.kernel->spawn_process("after-dump", 1);
  (void)pid;
  // The dump does not see post-capture changes.
  const auto before = fx::pslist(dump).size();
  const MemoryDump dump2 = dump_of(guest);
  EXPECT_EQ(fx::pslist(dump2).size(), before + 1);

  // Nor a first write to a frame that was unbacked at capture.
  const Pfn fresh{guest.kernel->layout().heap_base.value() + 100};
  ASSERT_FALSE(guest.vm->is_backed(fresh));
  guest.vm->write_phys_value<std::uint64_t>(Paddr::from(fresh, 8),
                                            0xFEEDFACEULL);
  EXPECT_FALSE(dump.is_backed(fresh));
  EXPECT_TRUE(dump.page(fresh) == zero_page());
  const auto read =
      dump.read_u64(guest.kernel->layout().va_of(fresh) + 8);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(*read, 0u);
}

TEST(MemoryDump, TranslationFaultsReturnNullopt) {
  TestGuest guest;
  const MemoryDump dump = dump_of(guest);
  EXPECT_FALSE(dump.read_u64(Vaddr{kVaBase + 8}).has_value());  // guard page
  EXPECT_FALSE(dump.read_u64(Vaddr{123}).has_value());
  EXPECT_TRUE(dump.read_u64(Vaddr{kVaBase + kPageSize}).has_value());
}

TEST(Pslist, MatchesGroundTruth) {
  TestGuest guest;
  (void)guest.kernel->spawn_process("listed", 5);
  const MemoryDump dump = dump_of(guest);
  const auto truth = guest.kernel->process_list_ground_truth();
  const auto listed = fx::pslist(dump);
  ASSERT_EQ(listed.size(), truth.size());
  for (std::size_t i = 0; i < truth.size(); ++i) {
    EXPECT_EQ(listed[i].pid, truth[i].pid);
    EXPECT_EQ(listed[i].name, truth[i].name);
  }
}

TEST(Psscan, FindsUnlinkedProcessThatPslistMisses) {
  TestGuest guest;
  const Pid hidden = guest.kernel->spawn_process("deep-ghost", 0);
  guest.kernel->attack_hide_process(hidden, /*scrub_pid_hash=*/true);
  const MemoryDump dump = dump_of(guest);

  const auto listed = fx::pslist(dump);
  EXPECT_EQ(std::find_if(listed.begin(), listed.end(),
                         [&](const fx::PsEntry& p) {
                           return p.pid == hidden;
                         }),
            listed.end());

  const auto scanned = fx::psscan(dump);
  EXPECT_NE(std::find_if(scanned.begin(), scanned.end(),
                         [&](const fx::PsEntry& p) {
                           return p.pid == hidden && p.name == "deep-ghost";
                         }),
            scanned.end());
}

TEST(Psscan, DoesNotResurrectExitedProcesses) {
  TestGuest guest;
  const Pid pid = guest.kernel->spawn_process("short-lived", 1);
  guest.kernel->exit_process(pid);
  const MemoryDump dump = dump_of(guest);
  for (const auto& p : fx::psscan(dump)) {
    EXPECT_NE(p.pid, pid) << "freed slab slot still matched";
  }
}

TEST(Psxview, HiddenRowIsMarkedSuspicious) {
  TestGuest guest;
  const Pid hidden = guest.kernel->spawn_process("stealthy", 0);
  guest.kernel->attack_hide_process(hidden);
  const MemoryDump dump = dump_of(guest);

  const auto rows = fx::psxview(dump);
  bool found = false;
  for (const auto& row : rows) {
    if (row.proc.pid == hidden) {
      found = true;
      EXPECT_FALSE(row.in_pslist);
      EXPECT_TRUE(row.in_psscan);
      EXPECT_TRUE(row.in_pid_hash);
      EXPECT_TRUE(row.suspicious());
    } else {
      EXPECT_TRUE(row.in_pslist) << row.proc.name;
      EXPECT_FALSE(row.suspicious());
    }
  }
  EXPECT_TRUE(found);
}

// DKOM: unlinks module `name` from the module list but leaves its record.
void unlink_module(GuestKernel& kernel, const std::string& name) {
  const auto mods = kernel.module_list_ground_truth();
  const auto it =
      std::find_if(mods.begin(), mods.end(),
                   [&](const ModuleInfo& m) { return m.name == name; });
  ASSERT_NE(it, mods.end());
  const Vaddr node = it->module_va;
  const Vaddr next{
      kernel.read_value<std::uint64_t>(node + ModuleLayout::kNextOff)};
  const Vaddr prev{
      kernel.read_value<std::uint64_t>(node + ModuleLayout::kPrevOff)};
  kernel.write_value<std::uint64_t>(prev + ModuleLayout::kNextOff,
                                    next.value());
  kernel.write_value<std::uint64_t>(next + ModuleLayout::kPrevOff,
                                    prev.value());
}

TEST(Modscan, SeesUnlinkedModule) {
  TestGuest guest;
  guest.kernel->load_module("rootkit_lkm", 8192);
  unlink_module(*guest.kernel, "rootkit_lkm");

  const MemoryDump dump = dump_of(guest);
  bool found_unlinked = false;
  for (const auto& m : fx::modscan(dump)) {
    if (m.name == "rootkit_lkm") {
      found_unlinked = true;
      EXPECT_FALSE(m.in_list);
    }
  }
  EXPECT_TRUE(found_unlinked);
}

TEST(Netscan, ParsesSocketTable) {
  TestGuest guest;
  const Pid pid = guest.kernel->spawn_process("client", 1);
  (void)guest.kernel->open_socket(SocketInfo{
      .pid = pid,
      .proto = 6,
      .state = 8,
      .local_ip = make_ipv4(192, 168, 1, 76),
      .local_port = 49164,
      .remote_ip = make_ipv4(104, 28, 18, 89),
      .remote_port = 8080,
      .entry_va = Vaddr{0},
  });
  const MemoryDump dump = dump_of(guest);
  const auto rows = fx::netscan(dump);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].local, "192.168.1.76:49164");
  EXPECT_EQ(rows[0].remote, "104.28.18.89:8080");
  EXPECT_STREQ(fx::tcp_state_name(rows[0].state), "CLOSE_WAIT");
  EXPECT_EQ(rows[0].pid, pid);
}

TEST(Handles, ParsesFileTable) {
  TestGuest guest;
  const Pid pid = guest.kernel->spawn_process("writer", 1);
  (void)guest.kernel->open_file(pid, "/tmp/a.txt");
  (void)guest.kernel->open_file(pid, "/tmp/b.txt");
  const MemoryDump dump = dump_of(guest);
  const auto rows = fx::handles(dump);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].path, "/tmp/a.txt");
  EXPECT_EQ(rows[1].pid, pid);
}

TEST(Procdump, ExtractsImageEvenForHiddenProcess) {
  TestGuest guest;
  const Pid pid = guest.kernel->spawn_process("malware.exe", 1000);
  guest.kernel->attack_hide_process(pid);
  const MemoryDump dump = dump_of(guest);
  const auto result = fx::procdump(dump, pid);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->proc.name, "malware.exe");
  EXPECT_EQ(result->image.size(), kPageSize);
  EXPECT_FALSE(fx::procdump(dump, Pid{99999}).has_value());
}

TEST(ProcMapsAndDumpMap, CoverHeapRegion) {
  TestGuest guest;
  const Pid pid = guest.kernel->spawn_process("mapped", 1000);
  const MemoryDump dump = dump_of(guest);
  const auto regions = fx::proc_maps(dump, pid);
  ASSERT_FALSE(regions.empty());
  const auto heap_it =
      std::find_if(regions.begin(), regions.end(), [](const fx::VadRegion& r) {
        return r.label == "[heap]";
      });
  ASSERT_NE(heap_it, regions.end());
  const auto bytes = fx::dump_map(dump, *heap_it, 1024);
  EXPECT_EQ(bytes.size(), 1024u);
}

TEST(SyscallTablePlugin, ReadsAllEntries) {
  TestGuest guest;
  guest.kernel->attack_hijack_syscall(3, Vaddr{kVaBase + 0x5000});
  const MemoryDump dump = dump_of(guest);
  const auto table = fx::syscall_table(dump);
  ASSERT_EQ(table.size(), kSyscallCount);
  EXPECT_EQ(table[3], kVaBase + 0x5000);
}

TEST(DumpDiff, SurfacesAttackDeltas) {
  TestGuest guest;
  const MemoryDump before = dump_of(guest, "before");

  const Pid pid = guest.kernel->spawn_process("dropper", 1000);
  (void)guest.kernel->open_socket(SocketInfo{
      .pid = pid, .proto = 6, .state = 1,
      .local_ip = make_ipv4(10, 0, 0, 5), .local_port = 1234,
      .remote_ip = make_ipv4(6, 6, 6, 6), .remote_port = 443,
      .entry_va = Vaddr{0}});
  (void)guest.kernel->open_file(pid, "/etc/shadow");
  guest.kernel->attack_hijack_syscall(11, Vaddr{kVaBase + 0x9000});
  const MemoryDump after = dump_of(guest, "after");

  const fx::DumpDiff diff = fx::DumpDiff::compute(before, after);
  EXPECT_FALSE(diff.empty());
  EXPECT_GT(diff.changed_pages.size(), 0u);
  ASSERT_EQ(diff.new_processes.size(), 1u);
  EXPECT_EQ(diff.new_processes[0].name, "dropper");
  ASSERT_EQ(diff.new_sockets.size(), 1u);
  EXPECT_EQ(diff.new_sockets[0].remote, "6.6.6.6:443");
  ASSERT_EQ(diff.new_handles.size(), 1u);
  EXPECT_EQ(diff.new_handles[0].path, "/etc/shadow");
  ASSERT_EQ(diff.changed_syscall_slots.size(), 1u);
  EXPECT_EQ(diff.changed_syscall_slots[0], 11u);
  EXPECT_TRUE(diff.exited_processes.empty());
}

TEST(DumpDiff, IdenticalDumpsAreEmpty) {
  TestGuest guest;
  const MemoryDump a = dump_of(guest, "a");
  const MemoryDump b = dump_of(guest, "b");
  EXPECT_TRUE(fx::DumpDiff::compute(a, b).empty());
}

TEST(Report, RendersSectionsAndTables) {
  fx::ForensicReport report("unit-test");
  report.add_section("Summary", "two findings");
  report.add_table("Procs", {"Name", "PID"}, {{"evil", "42"}, {"good", "7"}});
  EXPECT_EQ(report.section_count(), 2u);
  EXPECT_TRUE(report.contains("unit-test"));
  EXPECT_TRUE(report.contains("evil"));
  EXPECT_TRUE(report.contains("Name"));
  EXPECT_FALSE(report.contains("absent"));
}

TEST(Report, PluginRenderersProduceAlignedOutput) {
  TestGuest guest;
  const Pid pid = guest.kernel->spawn_process("rowproc", 1);
  (void)pid;
  const MemoryDump dump = dump_of(guest);
  const std::string ps = fx::render_pslist(fx::pslist(dump));
  EXPECT_NE(ps.find("rowproc"), std::string::npos);
  EXPECT_NE(ps.find("PID"), std::string::npos);
  const std::string psx = fx::render_psxview(fx::psxview(dump));
  EXPECT_NE(psx.find("pslist"), std::string::npos);
}

// --- Sparse and fully backed captures agree ---------------------------------

// Everything the plugins report about one dump.
struct PluginResults {
  std::vector<fx::PsEntry> pslist;
  std::vector<fx::PsEntry> psscan;
  std::vector<fx::PsxRow> psxview;
  std::vector<fx::ModEntry> modscan;
  std::vector<fx::NetscanRow> netscan;
  std::vector<fx::HandleRow> handles;
  std::vector<std::optional<fx::ProcdumpResult>> procdump;
  std::vector<std::vector<fx::VadRegion>> proc_maps;
  std::vector<std::vector<std::byte>> dump_map;
  std::vector<std::uint64_t> syscall_table;
  std::vector<fx::MalfindHit> malfind;
  std::vector<fx::TimelineEvent> timeline;
};

PluginResults run_plugins(const MemoryDump& dump) {
  PluginResults r;
  r.pslist = fx::pslist(dump);
  r.psscan = fx::psscan(dump);
  r.psxview = fx::psxview(dump);
  r.modscan = fx::modscan(dump);
  r.netscan = fx::netscan(dump);
  r.handles = fx::handles(dump);
  // Every process psscan sees (hidden ones too), plus one that is absent.
  std::vector<Pid> pids{Pid{99999}};
  for (const auto& p : r.psscan) pids.push_back(p.pid);
  for (const Pid pid : pids) {
    r.procdump.push_back(fx::procdump(dump, pid));
    auto maps = fx::proc_maps(dump, pid);
    for (const auto& region : maps) {
      r.dump_map.push_back(fx::dump_map(dump, region, 4096));
    }
    r.proc_maps.push_back(std::move(maps));
  }
  r.syscall_table = fx::syscall_table(dump);
  r.malfind = fx::malfind(dump);
  r.timeline = fx::timeline(dump);
  return r;
}

void expect_same(const PluginResults& a, const PluginResults& b,
                 const std::string& what) {
  EXPECT_TRUE(a.pslist == b.pslist) << what << ": pslist";
  EXPECT_TRUE(a.psscan == b.psscan) << what << ": psscan";
  EXPECT_TRUE(a.psxview == b.psxview) << what << ": psxview";
  EXPECT_TRUE(a.modscan == b.modscan) << what << ": modscan";
  EXPECT_TRUE(a.netscan == b.netscan) << what << ": netscan";
  EXPECT_TRUE(a.handles == b.handles) << what << ": handles";
  EXPECT_TRUE(a.procdump == b.procdump) << what << ": procdump";
  EXPECT_TRUE(a.proc_maps == b.proc_maps) << what << ": proc_maps";
  EXPECT_TRUE(a.dump_map == b.dump_map) << what << ": dump_map";
  EXPECT_TRUE(a.syscall_table == b.syscall_table) << what << ": syscall_table";
  EXPECT_TRUE(a.malfind == b.malfind) << what << ": malfind";
  EXPECT_TRUE(a.timeline == b.timeline) << what << ": timeline";
}

// Backs every frame of the guest through the mutable accessor; contents
// stay as they were (never-written frames materialize as zeroes).
void back_every_frame(Vm& vm) {
  for (std::size_t i = 0; i < vm.page_count(); ++i) (void)vm.page(Pfn{i});
}

std::size_t backed_frames(const MemoryDump& dump) {
  std::size_t n = 0;
  dump.for_each_backed([&n](Pfn, const Page&) { ++n; });
  return n;
}

// One of each kind of evidence the plugins look for.
void plant_evidence(GuestKernel& kernel) {
  const Pid ghost = kernel.spawn_process("ghost", 0);
  kernel.attack_hide_process(ghost, /*scrub_pid_hash=*/true);

  kernel.load_module("rootkit_lkm", 8192);
  unlink_module(kernel, "rootkit_lkm");

  kernel.attack_plant_shellcode(kernel.heap().malloc(256));

  const Pid dropper = kernel.spawn_process("dropper", 1000);
  (void)kernel.open_socket(SocketInfo{
      .pid = dropper, .proto = 6, .state = 1,
      .local_ip = make_ipv4(10, 0, 0, 5), .local_port = 1234,
      .remote_ip = make_ipv4(6, 6, 6, 6), .remote_port = 443,
      .entry_va = Vaddr{0}});
  (void)kernel.open_file(dropper, "/etc/shadow");
  kernel.attack_hijack_syscall(11, Vaddr{kVaBase + 0x9000});
}

std::string file_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

TEST(MemoryDump, SparseAndFullyBackedCapturesAgree) {
  // Two identical 8192-frame guests; one has every frame backed.
  TestGuest sparse(GuestConfig{});
  TestGuest dense(GuestConfig{});
  back_every_frame(*dense.vm);
  const MemoryDump sparse_before = dump_of(sparse, "before");
  const MemoryDump dense_before = dump_of(dense, "before");
  plant_evidence(*sparse.kernel);
  plant_evidence(*dense.kernel);
  const MemoryDump sparse_after = dump_of(sparse, "after");
  const MemoryDump dense_after = dump_of(dense, "after");

  ASSERT_EQ(backed_frames(dense_after), 8192u);
  EXPECT_LT(backed_frames(sparse_after), 8192u / 4);

  const PluginResults before = run_plugins(sparse_before);
  const PluginResults after = run_plugins(sparse_after);
  expect_same(before, run_plugins(dense_before), "before");
  expect_same(after, run_plugins(dense_after), "after");

  // The evidence is really there for the plugins to agree on.
  EXPECT_FALSE(after.malfind.empty());
  EXPECT_GT(after.psscan.size(), after.pslist.size());
  EXPECT_TRUE(std::any_of(after.modscan.begin(), after.modscan.end(),
                          [](const fx::ModEntry& m) { return !m.in_list; }));

  const fx::DumpDiff diff = fx::DumpDiff::compute(sparse_before, sparse_after);
  EXPECT_TRUE(diff == fx::DumpDiff::compute(dense_before, dense_after));
  EXPECT_EQ(diff.new_sockets.size(), 1u);
  EXPECT_EQ(diff.new_handles.size(), 1u);
  EXPECT_EQ(diff.changed_syscall_slots, std::vector<std::size_t>{11});
  // Mixed pairs: a backed zero frame equals an unbacked one.
  EXPECT_TRUE(diff == fx::DumpDiff::compute(sparse_before, dense_after));
  EXPECT_TRUE(fx::DumpDiff::compute(sparse_after, dense_after).empty());

  TempDir tmp;
  fx::ArtifactStore sparse_store(tmp.path, "sparse");
  fx::ArtifactStore dense_store(tmp.path, "dense");
  EXPECT_TRUE(file_bytes(sparse_store.save_dump(sparse_after)) ==
              file_bytes(dense_store.save_dump(dense_after)));
}

TEST(MemoryDump, SparseAndFullyBackedAgreeUnderByteFlips) {
  // The byte flips of FaultInjection.RandomByteFlipsNeverCrashForensics,
  // applied to two identical guests, one of them fully backed.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    TestGuest sparse;
    TestGuest dense;
    back_every_frame(*dense.vm);
    for (TestGuest* guest : {&sparse, &dense}) {
      (void)guest->kernel->spawn_process("victim", 1);
      Rng rng(seed);
      for (int flips = 0; flips < 64; ++flips) {
        const Pfn pfn{1 + rng.next_below(guest->vm->page_count() - 1)};
        const std::uint64_t off = rng.next_below(kPageSize);
        guest->vm->page(pfn).data[off] ^= std::byte{0xFF};
      }
    }
    const MemoryDump sparse_dump = dump_of(sparse);
    const MemoryDump dense_dump = dump_of(dense);
    ASSERT_LT(backed_frames(sparse_dump), backed_frames(dense_dump));
    expect_same(run_plugins(sparse_dump), run_plugins(dense_dump),
                "seed " + std::to_string(seed));
    EXPECT_TRUE(fx::DumpDiff::compute(sparse_dump, dense_dump).empty())
        << "seed " << seed;
  }
}

// --- Table walks against the per-slot reference --------------------------

std::string endpoint_of(std::uint32_t ip, std::uint16_t port) {
  return std::to_string((ip >> 24) & 0xFF) + "." +
         std::to_string((ip >> 16) & 0xFF) + "." +
         std::to_string((ip >> 8) & 0xFF) + "." + std::to_string(ip & 0xFF) +
         ":" + std::to_string(port);
}

// The walks netscan and handles made before they went page by page: one
// read_u32, so one full translation, per slot, until a read faults.
std::vector<fx::NetscanRow> netscan_per_slot(const MemoryDump& dump) {
  std::vector<fx::NetscanRow> out;
  const SymbolNames names = SymbolNames::for_flavor(dump.flavor());
  const Vaddr table = dump.symbols().lookup(names.socket_table);
  for (std::size_t i = 0;; ++i) {
    const Vaddr base = table + i * SocketLayout::kSize;
    const auto magic = dump.read_u32(base + SocketLayout::kMagicOff);
    if (!magic) break;
    if (*magic != SocketLayout::kMagic) continue;
    out.push_back(fx::NetscanRow{
        .pid = Pid{dump.read_u32(base + SocketLayout::kPidOff).value_or(0)},
        .proto = dump.read_u32(base + SocketLayout::kProtoOff).value_or(0),
        .state = dump.read_u32(base + SocketLayout::kStateOff).value_or(0),
        .local = endpoint_of(
            dump.read_u32(base + SocketLayout::kLocalIpOff).value_or(0),
            static_cast<std::uint16_t>(
                dump.read_u32(base + SocketLayout::kLocalPortOff)
                    .value_or(0))),
        .remote = endpoint_of(
            dump.read_u32(base + SocketLayout::kRemoteIpOff).value_or(0),
            static_cast<std::uint16_t>(
                dump.read_u32(base + SocketLayout::kRemotePortOff)
                    .value_or(0))),
        .entry_va = base,
    });
  }
  return out;
}

std::vector<fx::HandleRow> handles_per_slot(const MemoryDump& dump) {
  std::vector<fx::HandleRow> out;
  const SymbolNames names = SymbolNames::for_flavor(dump.flavor());
  const Vaddr table = dump.symbols().lookup(names.file_table);
  for (std::size_t i = 0;; ++i) {
    const Vaddr base = table + i * FileHandleLayout::kSize;
    const auto magic = dump.read_u32(base + FileHandleLayout::kMagicOff);
    if (!magic) break;
    if (*magic != FileHandleLayout::kMagic) continue;
    out.push_back(fx::HandleRow{
        .pid = Pid{dump.read_u32(base + FileHandleLayout::kPidOff)
                       .value_or(0)},
        .path = dump.read_str(base + FileHandleLayout::kPathOff,
                              FileHandleLayout::kPathLen)
                    .value_or(""),
        .entry_va = base,
    });
  }
  return out;
}

// First slot of a walk from `table` in `size`-byte steps that starts at or
// after `va`.
Vaddr slot_from(Vaddr table, std::size_t size, Vaddr va) {
  return table + (va.value() - table.value() + size - 1) / size * size;
}

TEST(Netscan, PageWalkMatchesPerSlotReference) {
  // Shifted table symbols move the slot grid off page alignment, so some
  // magics straddle a page boundary (0x1E for sockets, 0x3E for files).
  for (const std::uint64_t shift : {0u, 2u, 0x1Eu, 0x3Eu}) {
    SCOPED_TRACE("table shift " + std::to_string(shift));
    TestGuest guest;
    GuestKernel& kernel = *guest.kernel;
    const GuestLayout& layout = kernel.layout();
    const SymbolNames names = SymbolNames::for_flavor(kernel.flavor());
    const Pid pid = kernel.spawn_process("walker", 1);
    (void)kernel.open_socket(SocketInfo{
        .pid = pid, .proto = 17, .state = 10,
        .local_ip = make_ipv4(10, 1, 2, 3), .local_port = 53,
        .remote_ip = 0, .remote_port = 0, .entry_va = Vaddr{0}});
    (void)kernel.open_file(pid, "/var/log/walk");

    SymbolTable symbols = kernel.symbols();
    const Vaddr sockets = symbols.lookup(names.socket_table) + shift;
    const Vaddr files = symbols.lookup(names.file_table) + shift;
    symbols.add(names.socket_table, sockets);
    symbols.add(names.file_table, files);

    // Pages far past the tables: A and A+1 get planted slots, A+4 stays
    // never written, A+5 gets more, and A+7 loses its PTE, which ends both
    // walks before the slots planted on A+8.
    const std::uint64_t a = layout.heap_base.value() + layout.heap_pages / 2;
    const auto page_va = [&](std::uint64_t pfn) {
      return layout.va_of(Pfn{pfn});
    };
    const auto plant_socket = [&](Vaddr at, std::uint16_t port) {
      kernel.write_value<std::uint32_t>(at + SocketLayout::kMagicOff,
                                        SocketLayout::kMagic);
      kernel.write_value<std::uint32_t>(at + SocketLayout::kPidOff, 4242);
      kernel.write_value<std::uint32_t>(at + SocketLayout::kLocalPortOff,
                                        port);
    };
    const auto plant_file = [&](Vaddr at, const std::string& path) {
      kernel.write_value<std::uint32_t>(at + FileHandleLayout::kMagicOff,
                                        FileHandleLayout::kMagic);
      kernel.write_value<std::uint32_t>(at + FileHandleLayout::kPidOff, 4242);
      std::vector<std::byte> bytes(path.size() + 1);
      std::memcpy(bytes.data(), path.data(), path.size());
      kernel.write_virt(at + FileHandleLayout::kPathOff, bytes);
    };
    plant_socket(slot_from(sockets, SocketLayout::kSize, page_va(a) + 64),
                 1001);
    plant_file(slot_from(files, FileHandleLayout::kSize, page_va(a) + 1024),
               "/planted/in/a");
    // A file slot that starts in the last slot's width of A+1, so its
    // full-length path runs on into A+2.
    const std::string long_path = "/straddle/" + std::string(77, 's');
    plant_file(slot_from(files, FileHandleLayout::kSize,
                         page_va(a + 2) - FileHandleLayout::kSize + 1),
               long_path);
    plant_socket(slot_from(sockets, SocketLayout::kSize, page_va(a + 5)),
                 1005);
    plant_file(
        slot_from(files, FileHandleLayout::kSize, page_va(a + 5) + 1024),
        "/planted/in/a+5");
    plant_socket(slot_from(sockets, SocketLayout::kSize, page_va(a + 8)),
                 1008);
    plant_file(
        slot_from(files, FileHandleLayout::kSize, page_va(a + 8) + 1024),
        "/past/the/fault");
    kernel.page_table().set_entry(a + 7, Pfn{0}, 0);

    const MemoryDump dump = MemoryDump::capture(
        *guest.vm, symbols, kernel.flavor(), "walk", Nanos{0});
    ASSERT_FALSE(dump.is_backed(Pfn{a + 4}));
    ASSERT_FALSE(dump.translate(page_va(a + 7)).has_value());

    const auto rows = fx::netscan(dump);
    const auto files_found = fx::handles(dump);
    EXPECT_TRUE(rows == netscan_per_slot(dump));
    EXPECT_TRUE(files_found == handles_per_slot(dump));

    const auto has_port = [&](const std::string& port) {
      return std::any_of(rows.begin(), rows.end(), [&](const auto& r) {
        return r.local.ends_with(":" + port);
      });
    };
    const auto has_path = [&](const std::string& path) {
      return std::any_of(files_found.begin(), files_found.end(),
                         [&](const auto& h) { return h.path == path; });
    };
    EXPECT_TRUE(has_port("1001"));
    EXPECT_TRUE(has_port("1005"));
    EXPECT_FALSE(has_port("1008"));
    EXPECT_TRUE(has_path("/planted/in/a"));
    EXPECT_TRUE(has_path(long_path));
    EXPECT_TRUE(has_path("/planted/in/a+5"));
    EXPECT_FALSE(has_path("/past/the/fault"));
    if (shift == 0) {
      EXPECT_TRUE(has_port("53"));
      EXPECT_TRUE(has_path("/var/log/walk"));
    }
  }
}

}  // namespace
}  // namespace crimes
