// Reproduction calibration: asserts that the shapes of the paper's Figures
// 3-6 and the headline Section 1/6 claims hold — who wins, by roughly what
// factor, where crossovers fall. Bands are deliberately generous; exact
// values are reported by `memsentry_cli run <workload>` and EXPERIMENTS.md.
#include <gtest/gtest.h>

#include "src/eval/figures.h"
#include "src/workloads/spec_profiles.h"

namespace memsentry::eval {
namespace {

ExperimentOptions FastOptions() {
  ExperimentOptions options;
  options.target_instructions = 150'000;
  return options;
}

const FigureSeries& Find(const std::vector<FigureSeries>& series, const std::string& name) {
  for (const auto& s : series) {
    if (s.config == name) {
      return s;
    }
  }
  ADD_FAILURE() << "missing series " << name;
  static FigureSeries empty;
  return empty;
}

class Figure3Test : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { series_ = new std::vector<FigureSeries>(RunFigure3(FastOptions())); }
  static void TearDownTestSuite() {
    delete series_;
    series_ = nullptr;
  }
  static std::vector<FigureSeries>* series_;
};
std::vector<FigureSeries>* Figure3Test::series_ = nullptr;

TEST_F(Figure3Test, AllRunsSucceeded) {
  for (const auto& s : *series_) {
    for (double v : s.normalized) {
      EXPECT_GT(v, 0.9) << s.config;
      EXPECT_LT(v, 2.0) << s.config;
    }
  }
}

TEST_F(Figure3Test, GeomeansNearPaper) {
  // Paper: MPX-w 2.8%, SFI-w 4%, MPX-r 12%, SFI-r 17.1%, MPX-rw 14.7%,
  // SFI-rw 19.6%.
  EXPECT_NEAR(Find(*series_, "MPX-w").geomean, 1.028, 0.035);
  EXPECT_NEAR(Find(*series_, "SFI-w").geomean, 1.040, 0.035);
  EXPECT_NEAR(Find(*series_, "MPX-r").geomean, 1.120, 0.05);
  EXPECT_NEAR(Find(*series_, "SFI-r").geomean, 1.171, 0.06);
  EXPECT_NEAR(Find(*series_, "MPX-rw").geomean, 1.147, 0.06);
  EXPECT_NEAR(Find(*series_, "SFI-rw").geomean, 1.196, 0.08);
}

TEST_F(Figure3Test, MpxBeatsSfiInAlmostAllCases) {
  // "We can see that in almost all cases, MPX performs better than SFI."
  for (const char* mode : {"-w", "-r", "-rw"}) {
    const auto& mpx = Find(*series_, std::string("MPX") + mode);
    const auto& sfi = Find(*series_, std::string("SFI") + mode);
    EXPECT_LT(mpx.geomean, sfi.geomean) << mode;
    int mpx_wins = 0;
    for (size_t i = 0; i < mpx.normalized.size(); ++i) {
      mpx_wins += mpx.normalized[i] <= sfi.normalized[i] + 1e-9 ? 1 : 0;
    }
    EXPECT_GE(mpx_wins, 17) << mode;  // "almost all" of 19
  }
}

TEST_F(Figure3Test, WritesCheaperThanReads) {
  // Store instrumentation hides behind the store buffer; loads expose the
  // dependency (Section 6.1).
  EXPECT_LT(Find(*series_, "MPX-w").geomean, Find(*series_, "MPX-r").geomean);
  EXPECT_LT(Find(*series_, "SFI-w").geomean, Find(*series_, "SFI-r").geomean);
}

TEST_F(Figure3Test, MemoryBoundBenchmarksHideInstrumentation) {
  // mcf is the most memory-bound profile: its overhead must be among the
  // smallest of the suite (its cycles are dominated by DRAM, not checks).
  const auto& sfi_rw = Find(*series_, "SFI-rw");
  const auto profiles = workloads::SpecCpu2006();
  size_t mcf_index = 0;
  for (size_t i = 0; i < profiles.size(); ++i) {
    if (profiles[i].name == "429.mcf") {
      mcf_index = i;
    }
  }
  int cheaper_than_mcf = 0;
  for (double v : sfi_rw.normalized) {
    cheaper_than_mcf += v < sfi_rw.normalized[mcf_index] ? 1 : 0;
  }
  EXPECT_LE(cheaper_than_mcf, 3);
}

class DomainFiguresTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fig4_ = new std::vector<FigureSeries>(RunFigure4(FastOptions()));
    fig5_ = new std::vector<FigureSeries>(RunFigure5(FastOptions()));
    fig6_ = new std::vector<FigureSeries>(RunFigure6(FastOptions()));
  }
  static void TearDownTestSuite() {
    delete fig4_;
    delete fig5_;
    delete fig6_;
  }
  static std::vector<FigureSeries>* fig4_;
  static std::vector<FigureSeries>* fig5_;
  static std::vector<FigureSeries>* fig6_;
};
std::vector<FigureSeries>* DomainFiguresTest::fig4_ = nullptr;
std::vector<FigureSeries>* DomainFiguresTest::fig5_ = nullptr;
std::vector<FigureSeries>* DomainFiguresTest::fig6_ = nullptr;

TEST_F(DomainFiguresTest, Figure4GeomeansNearPaper) {
  // Paper: MPK 130%, crypt 217%, VMFUNC 357% at every call+ret.
  EXPECT_NEAR(Find(*fig4_, "MPK").geomean, 2.30, 0.45);
  EXPECT_NEAR(Find(*fig4_, "crypt").geomean, 3.17, 0.80);
  EXPECT_NEAR(Find(*fig4_, "VMFUNC").geomean, 4.57, 0.90);
}

TEST_F(DomainFiguresTest, Figure4OrderingMpkCryptVmfunc) {
  EXPECT_LT(Find(*fig4_, "MPK").geomean, Find(*fig4_, "crypt").geomean);
  EXPECT_LT(Find(*fig4_, "crypt").geomean, Find(*fig4_, "VMFUNC").geomean);
}

TEST_F(DomainFiguresTest, Figure4CallDenseCppBenchmarksAreTheOutliers) {
  // Paper Figure 4 peaks at ~20.8x and ~28.3x for VMFUNC: povray and
  // xalancbmk. Ours must put the same two on top, in double digits.
  const auto& vmfunc = Find(*fig4_, "VMFUNC");
  const auto profiles = workloads::SpecCpu2006();
  size_t povray = 0, xalan = 0;
  for (size_t i = 0; i < profiles.size(); ++i) {
    if (profiles[i].name == "453.povray") povray = i;
    if (profiles[i].name == "483.xalancbmk") xalan = i;
  }
  EXPECT_GT(vmfunc.normalized[povray], 10.0);
  EXPECT_GT(vmfunc.normalized[xalan], 10.0);
  for (size_t i = 0; i < vmfunc.normalized.size(); ++i) {
    if (i != povray && i != xalan) {
      EXPECT_LT(vmfunc.normalized[i], vmfunc.normalized[povray]);
      EXPECT_LT(vmfunc.normalized[i], vmfunc.normalized[xalan]);
    }
  }
}

TEST_F(DomainFiguresTest, Figure5LighterThanFigure4) {
  // Indirect branches are rarer than calls+rets: every technique must be
  // cheaper here than on Figure 4 (paper: 34%/60%/82% vs 130%/217%/357%).
  for (const char* name : {"MPK", "VMFUNC", "crypt"}) {
    EXPECT_LT(Find(*fig5_, name).geomean, Find(*fig4_, name).geomean) << name;
  }
  EXPECT_NEAR(Find(*fig5_, "MPK").geomean, 1.34, 0.25);
  EXPECT_NEAR(Find(*fig5_, "VMFUNC").geomean, 1.82, 0.45);
  EXPECT_NEAR(Find(*fig5_, "crypt").geomean, 1.60, 0.45);
}

TEST_F(DomainFiguresTest, Figure5MpkCheapest) {
  EXPECT_LT(Find(*fig5_, "MPK").geomean, Find(*fig5_, "VMFUNC").geomean);
  EXPECT_LT(Find(*fig5_, "MPK").geomean, Find(*fig5_, "crypt").geomean);
}

TEST_F(DomainFiguresTest, Figure6SparseEventsAreNearlyFreeForMpk) {
  // Paper: 1.1% for MPK at syscall granularity.
  EXPECT_NEAR(Find(*fig6_, "MPK").geomean, 1.011, 0.02);
}

TEST_F(DomainFiguresTest, Figure6CryptPaysTheYmmReservationTax) {
  // Paper: crypt 22% >> VMFUNC 5.5% >> MPK 1.1%, driven by FP benchmarks
  // whose xmm/ymm pressure collides with the parked round keys.
  EXPECT_GT(Find(*fig6_, "crypt").geomean, Find(*fig6_, "VMFUNC").geomean);
  EXPECT_GT(Find(*fig6_, "VMFUNC").geomean, Find(*fig6_, "MPK").geomean);
  const auto& crypt = Find(*fig6_, "crypt");
  const auto profiles = workloads::SpecCpu2006();
  for (size_t i = 0; i < profiles.size(); ++i) {
    if (profiles[i].name == "433.milc" || profiles[i].name == "470.lbm") {
      EXPECT_GT(crypt.normalized[i], 1.8) << profiles[i].name;
    }
    if (profiles[i].vec_frac == 0.0) {
      EXPECT_LT(crypt.normalized[i], 1.45) << profiles[i].name;
    }
  }
}

TEST(BaselineTest, MprotectIs20To50x) {
  // Paper Section 1: "using this strategy to protect safe regions results in
  // significant overhead (e.g., 20-50x in our experiments)".
  double worst = 0;
  double sum = 0;
  int n = 0;
  for (const char* name : {"400.perlbench", "458.sjeng", "445.gobmk"}) {
    const double x = RunExperiment(ExperimentRecipe(*workloads::FindProfile(name),
                                                    core::TechniqueKind::kMprotect,
                                                    Defense::kShadowStack, FastOptions()))
                         .normalized;
    ASSERT_GT(x, 0);
    worst = std::max(worst, x);
    sum += x;
    ++n;
  }
  EXPECT_GT(sum / n, 20.0);
  EXPECT_LT(sum / n, 50.0);
  EXPECT_LT(worst, 80.0);
}

TEST(CryptSweepTest, CostGrowsLinearlyWithRegionSize) {
  // Paper Section 6.2: encryption of larger sizes increases linearly; ~15x
  // for a 1024-byte region.
  const auto points = RunCryptSizeSweep(*workloads::FindProfile("401.bzip2"),
                                        {16, 64, 256, 1024}, FastOptions());
  ASSERT_EQ(points.size(), 4u);
  for (size_t i = 1; i < points.size(); ++i) {
    EXPECT_GT(points[i].normalized, points[i - 1].normalized);
  }
  const double overhead_16 = points[0].normalized - 1.0;
  const double overhead_1k = points[3].normalized - 1.0;
  // 64x the blocks -> tens of times the overhead (keys amortize a little).
  EXPECT_GT(overhead_1k / overhead_16, 10.0);
  EXPECT_GT(points[3].normalized, 8.0);   // double-digit factor at 1 KiB
  EXPECT_LT(points[3].normalized, 60.0);
}

TEST(SafeStackCaseStudyTest, NoAdditionalOverheadOverFigure3) {
  // Paper Section 6.2: applying MemSentry to SafeStack reproduces the
  // Figure 3 -w numbers (SafeStack itself adds nothing; only the write
  // instrumentation costs). Our SafeStack run IS the MPX-w/SFI-w pipeline
  // with the stack relocated, so equality is structural; spot-check one
  // benchmark produces Figure 3-like numbers.
  const auto& profile = *workloads::FindProfile("403.gcc");
  CellRecipe recipe =
      ExperimentRecipe(profile, core::TechniqueKind::kMpx, Defense::kNone, FastOptions());
  recipe.instrument.mode = core::ProtectMode::kWriteOnly;
  const double mpx_w = RunExperiment(recipe).normalized;
  EXPECT_GT(mpx_w, 1.0);
  EXPECT_LT(mpx_w, 1.12);
}

}  // namespace
}  // namespace memsentry::eval
