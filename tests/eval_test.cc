// Unit tests of the experiment harness (src/eval/figures.h) — structural
// properties; the quantitative bands live in calibration_test.cc.
#include <gtest/gtest.h>

#include <vector>

#include "src/eval/figures.h"
#include "src/sim/executor.h"
#include "src/workloads/spec_profiles.h"

namespace memsentry::eval {
namespace {

ExperimentOptions Tiny() {
  ExperimentOptions options;
  options.target_instructions = 40'000;
  return options;
}

double RunDomain(const char* profile, core::TechniqueKind kind, Defense defense) {
  return RunExperiment(ExperimentRecipe(*workloads::FindProfile(profile), kind, defense, Tiny()))
      .normalized;
}

TEST(EvalTest, AddressBasedExperimentReturnsOverheadAboveOne) {
  CellRecipe recipe = ExperimentRecipe(*workloads::FindProfile("456.hmmer"),
                                       core::TechniqueKind::kMpx, Defense::kNone, Tiny());
  recipe.instrument.mode = core::ProtectMode::kReadWrite;
  const double x = RunExperiment(recipe).normalized;
  EXPECT_GT(x, 1.0);
  EXPECT_LT(x, 2.0);
}

TEST(EvalTest, DomainBasedExperimentRunsEveryScenario) {
  for (auto defense : {Defense::kShadowStack, Defense::kIndirectBranch, Defense::kSyscall}) {
    const double x = RunDomain("445.gobmk", core::TechniqueKind::kMpk, defense);
    EXPECT_GT(x, 0.99) << static_cast<int>(defense);
  }
}

TEST(EvalTest, ScenariosOrderByEventDensity) {
  // call/ret events are denser than indirect branches, which are denser than
  // syscalls: overheads must order the same way for any one technique.
  const double callret =
      RunDomain("400.perlbench", core::TechniqueKind::kMpk, Defense::kShadowStack);
  const double indirect =
      RunDomain("400.perlbench", core::TechniqueKind::kMpk, Defense::kIndirectBranch);
  const double syscall =
      RunDomain("400.perlbench", core::TechniqueKind::kMpk, Defense::kSyscall);
  EXPECT_GT(callret, indirect);
  EXPECT_GT(indirect, syscall);
}

TEST(EvalTest, SeriesCoverTheWholeSuite) {
  const auto series = RunFigure3(Tiny());
  ASSERT_EQ(series.size(), 6u);
  for (const auto& s : series) {
    EXPECT_EQ(s.normalized.size(), workloads::SpecCpu2006().size());
    EXPECT_GT(s.geomean, 1.0);
  }
}

TEST(EvalTest, CryptSweepReturnsRequestedSizes) {
  const auto points =
      RunCryptSizeSweep(*workloads::FindProfile("401.bzip2"), {16, 64}, Tiny());
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].region_bytes, 16u);
  EXPECT_EQ(points[1].region_bytes, 64u);
  EXPECT_GT(points[1].normalized, points[0].normalized);
}

TEST(EvalTest, SgxWorksAsDomainTechniqueButCostsDearly) {
  // Our harness supports SGX as a fourth domain technique (an extension
  // beyond the paper's three-way figures).
  const double sgx =
      RunDomain("462.libquantum", core::TechniqueKind::kSgx, Defense::kSyscall);
  const double mpk =
      RunDomain("462.libquantum", core::TechniqueKind::kMpk, Defense::kSyscall);
  EXPECT_GT(sgx, mpk);
}

// Changing any one field of a BaselineRecipe changes its memo key.
TEST(EvalTest, EveryBaselineRecipeFieldReachesTheKey) {
  const BaselineRecipe base = BaselineOf(ExperimentRecipe(
      *workloads::FindProfile("403.gcc"), core::TechniqueKind::kMpk, Defense::kShadowStack));
  std::vector<BaselineRecipe> variants(9, base);
  variants[0].profile = *workloads::FindProfile("401.bzip2");
  variants[1].profile.calls_per_ki += 1;
  variants[2].defense = Defense::kSyscall;
  variants[3].target_instructions += 1;
  variants[4].seed += 1;
  variants[5].region_bytes += 16;
  variants[6].info_hide_placement = !base.info_hide_placement;
  variants[7].region_size = 64;
  variants[8].max_instructions += 1;
  for (size_t i = 0; i < variants.size(); ++i) {
    EXPECT_FALSE(variants[i].Key() == base.Key()) << "variant " << i;
  }
}

// The Figure 3-6, mprotect and crypt-sweep baseline keys keep the byte
// layout the benchmark tool's replay (perfbench/tool/replay.cc) copies to
// count its memo hits: the profile, the defense as scenario + 1 (0 for
// address-based), budget, seed, rounded region bytes, InfoHide placement,
// size override, run budget.
TEST(EvalTest, BaselineKeyKeepsTheReplayLayout) {
  const SpecProfile& profile = *workloads::FindProfile("401.bzip2");
  CellRecipe recipe =
      ExperimentRecipe(profile, core::TechniqueKind::kCrypt, Defense::kShadowStack, Tiny());
  recipe.region_size = 1024;
  RunKeyHasher h;
  HashSpecProfile(h, profile);
  h.U64(static_cast<uint64_t>(DomainScenario::kCallRet) + 1);
  h.U64(40'000);
  h.U64(ExperimentOptions{}.seed);
  h.U64(16);
  h.U64(0);
  h.U64(1024);
  h.U64(sim::RunConfig{}.max_instructions);
  EXPECT_TRUE(BaselineOf(recipe).Key() == h.Finish());
}

}  // namespace
}  // namespace memsentry::eval
