#include <gtest/gtest.h>

#include "src/attacks/harness.h"
#include "src/attacks/primitives.h"
#include "src/attacks/strategies.h"
#include "src/attacks/victim.h"
#include "src/core/memsentry.h"

namespace memsentry::attacks {
namespace {

using core::TechniqueKind;

TEST(AttackMatrixTest, InformationHidingFallsDeterministicHolds) {
  auto reports = RunAttackMatrix();
  ASSERT_EQ(reports.size(), static_cast<size_t>(core::kNumTechniques));
  for (const auto& report : reports) {
    SCOPED_TRACE(core::TechniqueKindName(report.technique));
    if (report.technique == TechniqueKind::kInfoHide) {
      // The paper's Section 1: the hidden region is found and fully owned.
      EXPECT_TRUE(report.region_located);
      EXPECT_EQ(report.read_outcome, Outcome::kLeaked);
      EXPECT_EQ(report.write_outcome, Outcome::kCorrupted);
      EXPECT_GT(report.locate_probes, 0u);
      EXPECT_LT(report.locate_probes, 256u);  // a few dozen oracle queries
    } else {
      // Deterministic isolation: the address is known, the data still safe.
      EXPECT_NE(report.read_outcome, Outcome::kLeaked);
      EXPECT_NE(report.write_outcome, Outcome::kCorrupted);
    }
  }
}

TEST(AttackMatrixTest, DetectionVsPreventionSplitsAsInPaper) {
  auto reports = RunAttackMatrix();
  auto find = [&](TechniqueKind k) -> const AttackReport& {
    for (const auto& r : reports) {
      if (r.technique == k) {
        return r;
      }
    }
    static AttackReport dummy;
    return dummy;
  };
  // MPX deterministically *detects* (Section 6.3); SFI only prevents.
  EXPECT_EQ(find(TechniqueKind::kMpx).read_outcome, Outcome::kDetected);
  EXPECT_EQ(find(TechniqueKind::kSfi).read_outcome, Outcome::kPrevented);
  EXPECT_EQ(find(TechniqueKind::kMpk).read_outcome, Outcome::kDetected);
  EXPECT_EQ(find(TechniqueKind::kVmfunc).read_outcome, Outcome::kDetected);
  EXPECT_EQ(find(TechniqueKind::kSgx).read_outcome, Outcome::kDetected);
  EXPECT_EQ(find(TechniqueKind::kMprotect).read_outcome, Outcome::kDetected);
  // crypt leaks only ciphertext.
  EXPECT_EQ(find(TechniqueKind::kCrypt).read_outcome, Outcome::kPrevented);
}

TEST(AllocationOracleTest, PinpointsHiddenRegionInLogProbes) {
  sim::Machine machine;
  sim::Process process(&machine);
  ASSERT_TRUE(process.SetupStack().ok());
  core::SafeRegionAllocator allocator(&process, TechniqueKind::kInfoHide, /*seed=*/77);
  auto region = allocator.Alloc("hidden", 8 * kPageSize);
  ASSERT_TRUE(region.ok());

  auto located = AllocationOracleAttack(process, 8);
  ASSERT_TRUE(located.found);
  EXPECT_EQ(located.base, region.value()->base);
  EXPECT_LT(located.probes, 128u);  // ~2 binary searches over 2^34 pages
}

TEST(AllocationOracleTest, WorksAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    sim::Machine machine;
    sim::Process process(&machine);
    core::SafeRegionAllocator allocator(&process, TechniqueKind::kInfoHide, seed);
    auto region = allocator.Alloc("hidden", 4 * kPageSize);
    ASSERT_TRUE(region.ok());
    auto located = AllocationOracleAttack(process, 4);
    ASSERT_TRUE(located.found) << "seed " << seed;
    EXPECT_EQ(located.base, region.value()->base) << "seed " << seed;
  }
}

TEST(CrashResistantScanTest, FindsLargeRegionWithCoarseStride) {
  // CPI-style huge reservation: a 4 GiB hidden region is findable by a scan
  // with 1 GiB stride in a few thousand probes.
  sim::Machine machine;
  sim::Process process(&machine);
  core::SafeRegionAllocator allocator(&process, TechniqueKind::kInfoHide, /*seed=*/5);
  const uint64_t kRegionBytes = uint64_t{4} << 30;
  auto region = allocator.Alloc("cpi-region", kRegionBytes);
  ASSERT_TRUE(region.ok());
  auto technique = core::CreateTechnique(TechniqueKind::kInfoHide);
  ArbitraryRw rw(&process, technique.get());
  auto located = CrashResistantScan(rw, sim::kStackTop, kAddressSpaceEnd,
                                    /*stride=*/uint64_t{1} << 30,
                                    /*probe_budget=*/1 << 20);
  ASSERT_TRUE(located.found);
  EXPECT_TRUE(region.value()->Contains(located.base));
}

TEST(CrashResistantScanTest, SmallRegionDefeatsNaiveScanBudget) {
  // A single 4 KiB region in 80 TiB: the same scan budget finds nothing —
  // which is exactly why thread spraying exists.
  sim::Machine machine;
  sim::Process process(&machine);
  core::SafeRegionAllocator allocator(&process, TechniqueKind::kInfoHide, /*seed=*/6);
  auto region = allocator.Alloc("tiny", kPageSize);
  ASSERT_TRUE(region.ok());
  auto technique = core::CreateTechnique(TechniqueKind::kInfoHide);
  ArbitraryRw rw(&process, technique.get());
  auto located = CrashResistantScan(rw, sim::kStackTop, kAddressSpaceEnd,
                                    /*stride=*/uint64_t{1} << 30, /*probe_budget=*/100000);
  EXPECT_FALSE(located.found);
}

TEST(ThreadSprayingTest, SprayingMakesScanningTractable) {
  sim::Machine machine;
  sim::Process process(&machine);
  core::SafeRegionAllocator allocator(&process, TechniqueKind::kInfoHide, /*seed=*/9);
  const uint64_t kRegionBytes = 256 * 1024;
  auto region = allocator.Alloc("original", kRegionBytes);
  ASSERT_TRUE(region.ok());
  auto technique = core::CreateTechnique(TechniqueKind::kInfoHide);
  ArbitraryRw rw(&process, technique.get());
  auto located = ThreadSprayingAttack(process, rw, allocator, kRegionBytes,
                                      /*spray_count=*/512, /*probe_budget=*/3'000'000);
  ASSERT_TRUE(located.found);
  EXPECT_TRUE(process.InSafeRegion(located.base));
}

TEST(PrimitivesTest, ProbeSurvivesFaults) {
  sim::Machine machine;
  sim::Process process(&machine);
  auto technique = core::CreateTechnique(TechniqueKind::kInfoHide);
  ArbitraryRw rw(&process, technique.get());
  auto probe = rw.Probe(0x123456000ULL);  // unmapped
  EXPECT_FALSE(probe.mapped_and_accessible);
  // ...and the attacker is still alive to probe again.
  ASSERT_TRUE(process.MapRange(0x123456000ULL, 1, machine::PageFlags::Data()).ok());
  ASSERT_TRUE(process.Poke64(0x123456000ULL, 7).ok());
  probe = rw.Probe(0x123456000ULL);
  EXPECT_TRUE(probe.mapped_and_accessible);
  EXPECT_EQ(probe.value, 7u);
}

TEST(VictimTest, EveryRegionHoldsTheSecret) {
  Victim victim(TechniqueKind::kSfi);
  EXPECT_EQ(victim.region(), nullptr);
  ASSERT_TRUE(victim.AllocSecrets(4096, 3).ok());
  ASSERT_NE(victim.region(), nullptr);
  EXPECT_EQ(victim.region()->name, "secret");
  for (const char* name : {"secret", "secret-1", "secret-2"}) {
    const sim::SafeRegion* region = nullptr;
    for (const sim::SafeRegion& r : victim.process().safe_regions()) {
      if (r.name == name) {
        region = &r;
      }
    }
    ASSERT_NE(region, nullptr) << name;
    EXPECT_EQ(victim.process().Peek64(region->base).value(), kSecret) << name;
  }
}

// The write verdict is ground truth through raw memory: where the value
// landed, not what the technique reported.
TEST(VictimTest, JudgesWritesByRawMemory) {
  Victim victim(TechniqueKind::kInfoHide);
  ASSERT_TRUE(victim.AllocSecrets(4096).ok());
  ASSERT_TRUE(victim.Prepare().ok());
  const VirtAddr base = victim.region()->base;
  EXPECT_EQ(victim.JudgeWrite(base, 0xdead), WriteVerdict::kMissed);  // still the secret
  ASSERT_TRUE(victim.technique().AttackerWrite(victim.process(), base, 0xdead).ok());
  EXPECT_EQ(victim.JudgeWrite(base, 0xdead), WriteVerdict::kLanded);
  // Attacker-reachable memory is no victim damage, whatever it holds.
  ASSERT_TRUE(victim.process().Poke64(sim::kWorkingSetBase, 0xdead).ok());
  EXPECT_EQ(victim.JudgeWrite(sim::kWorkingSetBase, 0xdead), WriteVerdict::kMissed);
}

// A write onto a crypt region lands on ciphertext: it garbles the plaintext
// at the written offset but does not control it.
TEST(VictimTest, CryptWritesGarbleCiphertext) {
  Victim victim(TechniqueKind::kCrypt);
  ASSERT_TRUE(victim.AllocSecrets(4096).ok());
  ASSERT_TRUE(victim.Prepare().ok());
  const VirtAddr at = victim.region()->base + 64;
  ASSERT_TRUE(victim.technique().AttackerWrite(victim.process(), at, 0xdead).ok());
  EXPECT_EQ(victim.process().Peek64(at).value(), 0xdeadu);  // raw memory changed...
  EXPECT_EQ(victim.JudgeWrite(at, 0xdead), WriteVerdict::kGarbled);  // ...plaintext did not
}

TEST(OutcomeTest, NamesAreStable) {
  EXPECT_STREQ(OutcomeName(Outcome::kLeaked), "LEAKED");
  EXPECT_STREQ(OutcomeName(Outcome::kDetected), "detected");
  EXPECT_STREQ(OutcomeName(Outcome::kNotFound), "not-located");
}

}  // namespace
}  // namespace memsentry::attacks
