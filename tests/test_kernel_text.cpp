// Tests: kernel-text integrity scanning and the malfind/timeline plugins.
#include "common/rng.h"
#include "detect/kernel_text_scan.h"
#include "forensics/memory_dump.h"
#include "forensics/plugins.h"
#include "test_helpers.h"
#include "vmi/vmi_session.h"

#include <gtest/gtest.h>

#include <array>

namespace crimes {
namespace {

using testing::TestGuest;
namespace fx = forensics;

struct TextFixture {
  TextFixture()
      : guest(),
        vmi(guest.hypervisor, guest.vm->id(), guest.kernel->symbols(),
            guest.kernel->flavor(), CostModel::defaults()) {
    vmi.init();
    vmi.preprocess();
    module.capture_baseline(vmi);
  }

  ScanContext ctx(std::span<const Pfn> dirty) {
    return ScanContext{.vmi = vmi,
                       .dirty = dirty,
                       .costs = CostModel::defaults(),
                       .pending_packets = nullptr,
                       .now = Nanos{0}};
  }

  TestGuest guest;
  VmiSession vmi;
  KernelTextIntegrityModule module;
};

TEST(KernelText, Fnv1aIsStableAndSensitive) {
  std::vector<std::byte> data(128, std::byte{0x41});
  const auto h1 = fnv1a(data);
  EXPECT_EQ(fnv1a(data), h1);
  data[127] = std::byte{0x42};
  EXPECT_NE(fnv1a(data), h1);
}

TEST(KernelText, CleanTextPasses) {
  TextFixture f;
  std::vector<Pfn> all;
  for (std::size_t i = 0; i < f.guest.kernel->config().page_count; ++i) {
    all.push_back(Pfn{i});
  }
  auto ctx = f.ctx(all);
  EXPECT_TRUE(f.module.scan(ctx).clean());
  EXPECT_GT(f.module.pages_rehashed(), 0u);
}

TEST(KernelText, InlineHookDetectedOnDirtyTextPage) {
  TextFixture f;
  const std::byte hook[] = {std::byte{0xE9}, std::byte{0xDE},
                            std::byte{0xAD}, std::byte{0xBE},
                            std::byte{0xEF}};  // jmp rel32
  f.guest.kernel->attack_patch_kernel_text(3 * kPageSize + 16, hook);

  const Pfn text_page{f.guest.kernel->layout().kernel_text.value() + 3};
  std::vector<Pfn> dirty{text_page};
  auto ctx = f.ctx(dirty);
  const ScanResult result = f.module.scan(ctx);
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_NE(result.findings[0].description.find("page 3"),
            std::string::npos);
}

TEST(KernelText, NonTextDirtIsFreeToScan) {
  TextFixture f;
  std::vector<Pfn> dirty{f.guest.kernel->layout().heap_base};
  auto ctx = f.ctx(dirty);
  const ScanResult result = f.module.scan(ctx);
  EXPECT_TRUE(result.clean());
  EXPECT_EQ(f.module.pages_rehashed(), 0u);
  EXPECT_LT(result.cost, micros(50));
}

TEST(KernelText, BaselineRequired) {
  TestGuest guest;
  VmiSession vmi(guest.hypervisor, guest.vm->id(), guest.kernel->symbols(),
                 guest.kernel->flavor(), CostModel::defaults());
  vmi.init();
  KernelTextIntegrityModule module;
  std::vector<Pfn> dirty;
  ScanContext ctx{.vmi = vmi,
                  .dirty = dirty,
                  .costs = CostModel::defaults(),
                  .pending_packets = nullptr,
                  .now = Nanos{0}};
  EXPECT_THROW((void)module.scan(ctx), std::logic_error);
}

TEST(Malfind, FindsPlantedShellcodeOnly) {
  TestGuest guest;
  const Vaddr spot = guest.kernel->heap().malloc(256);
  guest.kernel->attack_plant_shellcode(spot);

  const MemoryDump dump = MemoryDump::capture(
      *guest.vm, guest.kernel->symbols(), guest.kernel->flavor(), "d",
      Nanos{0});
  const auto hits = fx::malfind(dump);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].va, spot);
  EXPECT_NE(hits[0].reason.find("syscall stub"), std::string::npos);
  EXPECT_EQ(hits[0].length, 24u + 9u);
}

TEST(Malfind, CleanGuestHasNoHits) {
  TestGuest guest;
  (void)guest.kernel->heap().malloc(512);
  const MemoryDump dump = MemoryDump::capture(
      *guest.vm, guest.kernel->symbols(), guest.kernel->flavor(), "d",
      Nanos{0});
  EXPECT_TRUE(fx::malfind(dump).empty());
}

// The byte-at-a-time malfind the memchr scan replaced, kept as the
// reference it must match hit for hit.
std::vector<fx::MalfindHit> malfind_bytewise(const MemoryDump& dump,
                                             std::size_t min_sled) {
  std::vector<fx::MalfindHit> hits;
  for (std::size_t p = 0; p < dump.page_count(); ++p) {
    const auto bytes = dump.page(Pfn{p}).bytes();
    std::size_t i = 0;
    while (i < kPageSize) {
      std::size_t sled = 0;
      while (i + sled < kPageSize && bytes[i + sled] == std::byte{0x90}) {
        ++sled;
      }
      if (sled >= min_sled) {
        const std::size_t after = i + sled;
        bool stub = false;
        if (after + 9 <= kPageSize && bytes[after] == std::byte{0x48} &&
            bytes[after + 1] == std::byte{0xC7} &&
            bytes[after + 2] == std::byte{0xC0} &&
            bytes[after + 7] == std::byte{0x0F} &&
            bytes[after + 8] == std::byte{0x05}) {
          stub = true;
        }
        hits.push_back(fx::MalfindHit{
            .va = Vaddr{kVaBase + (p << kPageShift) + i},
            .length = sled + (stub ? 9 : 0),
            .reason = "NOP sled (" + std::to_string(sled) + " bytes)" +
                      (stub ? " + syscall stub" : ""),
        });
        i = after + (stub ? 9 : 0);
        continue;
      }
      i += sled + 1;
    }
  }
  return hits;
}

TEST(Malfind, MatchesBytewiseReference) {
  TestGuest guest;
  Rng rng(0x3A1F);
  std::size_t next_pfn = guest.kernel->layout().heap_base.value() + 64;
  const auto fresh_page = [&]() -> Page& {
    Page& page = guest.vm->page(Pfn{next_pfn++});
    for (auto& b : page.data) b = std::byte(rng.next_below(256));
    return page;
  };
  // A syscall stub whose immediate holds NOPs of its own.
  static constexpr std::array<std::uint8_t, 9> kStub = {
      0x48, 0xC7, 0xC0, 0x90, 0x90, 0x3B, 0x90, 0x0F, 0x05};
  const auto plant = [](Page& page, std::size_t at, std::size_t sled,
                        std::size_t stub_bytes) {
    for (std::size_t k = 0; k < sled; ++k) page.data[at + k] = std::byte{0x90};
    for (std::size_t k = 0; k < stub_bytes && at + sled + k < kPageSize; ++k) {
      page.data[at + sled + k] = std::byte{kStub[k]};
    }
    if (at + sled + stub_bytes < kPageSize && stub_bytes < kStub.size()) {
      page.data[at + sled + stub_bytes] = std::byte{0xCC};  // ends the run
    }
  };
  for (std::size_t sled = 0; sled <= 40; ++sled) {
    // Somewhere in the page, with a whole stub or none.
    plant(fresh_page(), rng.next_below(kPageSize - 64), sled, 9);
    plant(fresh_page(), rng.next_below(kPageSize - 64), sled, 0);
    // Within the last 40 bytes: ending at the page end, and followed by
    // the first 1..9 bytes of a stub, so the page end cuts the stub off
    // (or, at 9, just fits it).
    plant(fresh_page(), kPageSize - 40, sled, 0);
    plant(fresh_page(), kPageSize - sled, sled, 0);
    for (std::size_t cut = 1; cut <= 9; ++cut) {
      if (sled + cut > 40) break;
      plant(fresh_page(), kPageSize - sled - cut, sled, cut);
    }
  }
  // A page that is one whole sled, and pages drawn from a NOP-heavy
  // alphabet so that runs and stubs meet by chance.
  plant(fresh_page(), 0, kPageSize, 0);
  constexpr std::array<std::uint8_t, 10> kAlphabet = {
      0x90, 0x90, 0x90, 0x90, 0x48, 0xC7, 0xC0, 0x0F, 0x05, 0x00};
  for (int n = 0; n < 32; ++n) {
    Page& page = fresh_page();
    for (auto& b : page.data) {
      b = std::byte{kAlphabet[rng.next_below(kAlphabet.size())]};
    }
  }

  const MemoryDump dump = MemoryDump::capture(
      *guest.vm, guest.kernel->symbols(), guest.kernel->flavor(), "d",
      Nanos{0});
  for (const std::size_t min_sled : {std::size_t{1}, std::size_t{16},
                                     std::size_t{4096}}) {
    const auto hits = fx::malfind(dump, min_sled);
    const auto reference = malfind_bytewise(dump, min_sled);
    ASSERT_EQ(hits.size(), reference.size()) << "min_sled " << min_sled;
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].va, reference[i].va) << "min_sled " << min_sled;
      EXPECT_EQ(hits[i].length, reference[i].length)
          << "min_sled " << min_sled;
      EXPECT_EQ(hits[i].reason, reference[i].reason)
          << "min_sled " << min_sled;
    }
    EXPECT_FALSE(hits.empty()) << "min_sled " << min_sled;
  }
}

TEST(Timeline, OrdersProcessStartsAndFlagsHidden) {
  TestGuest guest;
  guest.kernel->tick(1'000'000);  // 1 ms
  (void)guest.kernel->spawn_process("early", 1);
  guest.kernel->tick(5'000'000);
  const Pid ghost = guest.kernel->spawn_process("ghost", 0);
  guest.kernel->attack_hide_process(ghost);
  guest.kernel->tick(2'000'000);
  (void)guest.kernel->spawn_process("late", 1);

  const MemoryDump dump = MemoryDump::capture(
      *guest.vm, guest.kernel->symbols(), guest.kernel->flavor(), "d",
      Nanos{0});
  const auto events = fx::timeline(dump);
  ASSERT_GE(events.size(), 3u);
  // Sorted by time.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].at_ns, events[i].at_ns);
  }
  // The hidden process appears, flagged.
  bool ghost_flagged = false;
  std::size_t ghost_idx = 0, late_idx = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].description.find("'ghost'") != std::string::npos) {
      ghost_idx = i;
      ghost_flagged =
          events[i].description.find("HIDDEN") != std::string::npos;
    }
    if (events[i].description.find("'late'") != std::string::npos) {
      late_idx = i;
    }
  }
  EXPECT_TRUE(ghost_flagged);
  EXPECT_LT(ghost_idx, late_idx);
}

}  // namespace
}  // namespace crimes
