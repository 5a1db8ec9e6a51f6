// Tests: persisting attack artifacts (reports, dumps) to disk and reading
// dumps back.
#include "forensics/artifact_store.h"
#include "test_helpers.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

namespace crimes {
namespace {

using testing::TempDir;
using testing::TestGuest;
namespace fs = std::filesystem;
namespace fx = forensics;

TEST(ArtifactStore, SavesReportAndManifest) {
  TempDir tmp;
  fx::ArtifactStore store(tmp.path, "case-001");
  const fs::path report = store.save_report("CRITICAL finding here\n");
  EXPECT_TRUE(fs::exists(report));
  EXPECT_EQ(fs::file_size(report), 22u);

  ASSERT_EQ(store.manifest().size(), 1u);
  EXPECT_EQ(store.manifest()[0].kind, "report");

  std::ifstream manifest(store.directory() / "MANIFEST.txt");
  std::string line;
  ASSERT_TRUE(std::getline(manifest, line));
  EXPECT_EQ(line, "report report.txt 22");
}

TEST(ArtifactStore, DumpRoundTripsExactly) {
  TempDir tmp;
  TestGuest guest;
  guest.vm->vcpu().gpr[2] = 0x1234;
  const MemoryDump dump = MemoryDump::capture(
      *guest.vm, guest.kernel->symbols(), guest.kernel->flavor(),
      "audit-fail", millis(123));

  fx::ArtifactStore store(tmp.path, "case-002");
  const fs::path file = store.save_dump(dump);
  EXPECT_TRUE(fs::exists(file));
  EXPECT_EQ(file.filename().string(), "audit-fail.dump");

  const fx::MemoryDumpData loaded = fx::ArtifactStore::load_dump(file);
  EXPECT_EQ(loaded.label, "audit-fail");
  EXPECT_EQ(loaded.captured_at, millis(123));
  EXPECT_EQ(loaded.vcpu, dump.vcpu());
  ASSERT_EQ(loaded.pages.size(), dump.page_count());
  for (std::size_t i = 0; i < loaded.pages.size(); ++i) {
    ASSERT_EQ(loaded.pages[i], dump.page(Pfn{i})) << "page " << i;
  }
}

TEST(ArtifactStore, LabelSanitization) {
  TempDir tmp;
  TestGuest guest;
  const MemoryDump dump = MemoryDump::capture(
      *guest.vm, guest.kernel->symbols(), guest.kernel->flavor(),
      "../../etc/passwd", Nanos{0});
  fx::ArtifactStore store(tmp.path, "weird/../case");
  const fs::path file = store.save_dump(dump);
  // Both case id and label were sanitized: everything stays under root.
  EXPECT_NE(file.string().find(tmp.path.string()), std::string::npos);
  EXPECT_EQ(file.string().find(".."), std::string::npos);
}

TEST(ArtifactStore, RejectsGarbageFiles) {
  TempDir tmp;
  const fs::path bogus = tmp.path / "bogus.dump";
  std::ofstream(bogus) << "definitely not a dump";
  EXPECT_THROW((void)fx::ArtifactStore::load_dump(bogus),
               std::runtime_error);
  EXPECT_THROW((void)fx::ArtifactStore::load_dump(tmp.path / "missing"),
               std::runtime_error);
}

}  // namespace
}  // namespace crimes
