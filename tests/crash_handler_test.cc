// Crash bundles (src/base/crash_handler.h): a staged context lands in the
// bundle's manifest.json exactly as `memsentry_cli replay` will read it, each
// thread bundles the cell it staged, the bundle holds nothing beyond the
// manifest and the backtrace, and retention deletes the oldest bundles
// first without ever touching protected ones.
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "src/base/crash_handler.h"
#include "src/base/json.h"

namespace memsentry::base {
namespace {

namespace fs = std::filesystem;

std::string ScratchDir(const std::string& name) {
  const std::string dir =
      ::testing::TempDir() + "crash_handler_" + name + "_" + std::to_string(::getpid());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// The handler is process-global and its first root wins, so every test
// shares one root; the environment below removes it after the last test.
const std::string& BundleRoot() {
  static const std::string root = [] {
    const std::string dir = ScratchDir("bundles");
    InstallCrashHandler(dir);
    return dir;
  }();
  return root;
}

class BundleRootCleanup : public ::testing::Environment {
 public:
  void TearDown() override { fs::remove_all(BundleRoot()); }
};
[[maybe_unused]] ::testing::Environment* const kCleanup =
    ::testing::AddGlobalTestEnvironment(new BundleRootCleanup);

CrashContext FaultCellContext(const std::string& cell) {
  CrashContext context;
  context.binary = "fault_matrix";
  context.cell = cell;
  context.seed = 0xfa017ca3ULL;
  context.config_json = R"({"mode":"quick"})";
  context.replay_json =
      R"({"kind":"fault_cell","technique":"MPK","site":"pkru-desync",)"
      R"("seed":4194401443,"force_crash":"MPK/pkru-desync"})";
  return context;
}

std::set<std::string> FileNames(const std::string& dir) {
  std::set<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.insert(entry.path().filename().string());
  }
  return names;
}

TEST(CrashBundle, ManifestCarriesTheStagedContext) {
  BundleRoot();
  const CrashContext context = FaultCellContext("MPK/manifest");
  SetCrashContext(context);
  const std::string bundle = WriteCrashBundle("test-trigger");
  ClearCrashCell();
  ASSERT_FALSE(bundle.empty());

  auto manifest = json::ParseFile(bundle + "/manifest.json");
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_EQ(manifest->StringOr("binary", ""), context.binary);
  EXPECT_EQ(manifest->StringOr("cell", ""), context.cell);
  EXPECT_EQ(manifest->NumberOr("seed", 0), static_cast<double>(context.seed));
  EXPECT_EQ(manifest->StringOr("reason", ""), "test-trigger");
  const json::Value* replay = manifest->Find("replay");
  ASSERT_NE(replay, nullptr);
  auto staged = json::Parse(context.replay_json);
  ASSERT_TRUE(staged.ok());
  EXPECT_EQ(replay->Dump(), staged->Dump());
  fs::remove_all(bundle);
}

TEST(CrashBundle, HoldsOnlyTheManifestAndBacktrace) {
  BundleRoot();
  SetCrashContext(FaultCellContext("MPK/contents"));
  const std::string bundle = WriteCrashBundle("test-trigger");
  ClearCrashCell();
  ASSERT_FALSE(bundle.empty());

  const std::set<std::string> names = FileNames(bundle);
  EXPECT_EQ(names.count("manifest.json"), 1u);
  EXPECT_EQ(names.count("snapshot.bin"), 0u);
  EXPECT_EQ(names.count("journal_tail.txt"), 0u);
  for (const std::string& name : names) {
    EXPECT_TRUE(name == "manifest.json" || name == "backtrace.txt") << name;
  }
  fs::remove_all(bundle);
}

// Engine workers run cells concurrently, each staging its own context: a
// bundle written on one thread must name that thread's cell, never the
// cell another worker staged in between.
TEST(CrashBundle, EachThreadBundlesItsOwnCell) {
  BundleRoot();
  std::mutex mutex;
  std::condition_variable cv;
  int staged = 0;
  std::string bundles[2];
  auto worker = [&](int index, const std::string& cell) {
    SetCrashContext(FaultCellContext(cell));
    {
      // Both threads stage before either writes.
      std::unique_lock<std::mutex> lock(mutex);
      ++staged;
      cv.notify_all();
      cv.wait(lock, [&] { return staged == 2; });
    }
    bundles[index] = WriteCrashBundle("test-trigger");
    ClearCrashCell();
  };
  std::thread first(worker, 0, "MPK/thread-one");
  std::thread second(worker, 1, "SFI/thread-two");
  first.join();
  second.join();

  const char* expected[] = {"MPK/thread-one", "SFI/thread-two"};
  for (int i = 0; i < 2; ++i) {
    ASSERT_FALSE(bundles[i].empty()) << i;
    auto manifest = json::ParseFile(bundles[i] + "/manifest.json");
    ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
    EXPECT_EQ(manifest->StringOr("cell", ""), expected[i]);
    fs::remove_all(bundles[i]);
  }
}

// A thread with nothing staged (or whose cell finished) writes the
// process's idle manifest: the cell is "idle" and there is no replay spec.
TEST(CrashBundle, UnstagedThreadWritesTheIdleManifest) {
  BundleRoot();
  std::string bundle;
  std::thread([&] { bundle = WriteCrashBundle("test-trigger"); }).join();
  ASSERT_FALSE(bundle.empty());
  auto manifest = json::ParseFile(bundle + "/manifest.json");
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_EQ(manifest->StringOr("cell", ""), "idle");
  const json::Value* replay = manifest->Find("replay");
  ASSERT_NE(replay, nullptr);
  EXPECT_TRUE(replay->is_null());
  fs::remove_all(bundle);
}

// A bundle directory named like the handler names them, holding `bytes`
// bytes of payload.
void MakeBundle(const std::string& root, int64_t stamp, uint64_t bytes) {
  const std::string dir = root + "/" + std::to_string(stamp) + "-1-fault_matrix-cell";
  fs::create_directories(dir);
  std::ofstream(dir + "/manifest.json") << std::string(bytes, 'x');
}

std::vector<int64_t> RemainingStamps(const std::string& root) {
  std::vector<int64_t> stamps;
  for (const std::string& name : FileNames(root)) {
    stamps.push_back(std::strtoll(name.c_str(), nullptr, 10));
  }
  return stamps;
}

TEST(CrashBundleRetention, CountCapRemovesOldestFirst) {
  const std::string root = ScratchDir("count");
  for (int64_t stamp = 100; stamp < 105; ++stamp) {
    MakeBundle(root, stamp, 10);
  }
  const CrashGcStats stats =
      CollectCrashBundles(root, CrashBundleCaps{2, uint64_t{1} << 30}, /*protect_after=*/1000);
  EXPECT_EQ(stats.bundles_removed, 3u);
  EXPECT_EQ(stats.bundles_kept, 2u);
  EXPECT_EQ(stats.bytes_removed, 30u);
  EXPECT_EQ(RemainingStamps(root), (std::vector<int64_t>{103, 104}));
  fs::remove_all(root);
}

TEST(CrashBundleRetention, ByteCapRemovesOldestFirst) {
  const std::string root = ScratchDir("bytes");
  for (int64_t stamp = 100; stamp < 105; ++stamp) {
    MakeBundle(root, stamp, 1000);
  }
  const CrashGcStats stats =
      CollectCrashBundles(root, CrashBundleCaps{32, 2500}, /*protect_after=*/1000);
  EXPECT_EQ(stats.bundles_removed, 3u);
  EXPECT_EQ(stats.bytes_removed, 3000u);
  EXPECT_EQ(RemainingStamps(root), (std::vector<int64_t>{103, 104}));
  fs::remove_all(root);
}

TEST(CrashBundleRetention, NeverRemovesBundlesAtOrAfterProtectAfter) {
  const std::string root = ScratchDir("protect");
  for (int64_t stamp = 100; stamp < 105; ++stamp) {
    MakeBundle(root, stamp, 1000);
  }
  const CrashGcStats stats =
      CollectCrashBundles(root, CrashBundleCaps{0, 0}, /*protect_after=*/102);
  EXPECT_EQ(stats.bundles_removed, 2u);
  EXPECT_EQ(stats.bundles_kept, 3u);
  EXPECT_EQ(RemainingStamps(root), (std::vector<int64_t>{102, 103, 104}));
  fs::remove_all(root);
}

TEST(CrashBundleRetention, MissingRootIsANoOp) {
  const CrashGcStats stats = CollectCrashBundles(
      ::testing::TempDir() + "crash_handler_absent_" + std::to_string(::getpid()),
      CrashBundleCaps{}, /*protect_after=*/0);
  EXPECT_EQ(stats.bundles_removed, 0u);
  EXPECT_EQ(stats.bundles_kept, 0u);
}

}  // namespace
}  // namespace memsentry::base
