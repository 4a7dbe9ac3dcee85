// Full-pipeline integration: every isolation technique crossed with every
// defense scenario over a real synthesized workload — synthesize, apply the
// defense pass, Protect(), execute to completion, and check the books
// (domain switches present where expected, instrumentation attributed,
// overhead sane, no faults).
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "src/core/memsentry.h"
#include "src/defenses/event_annotator.h"
#include "src/defenses/shadow_stack.h"
#include "src/eval/figures.h"
#include "src/sim/executor.h"
#include "src/workloads/synth.h"

namespace memsentry {
namespace {

using core::TechniqueKind;
using eval::DomainScenario;

using Combo = std::tuple<TechniqueKind, DomainScenario>;

class DomainIntegrationTest : public ::testing::TestWithParam<Combo> {};

INSTANTIATE_TEST_SUITE_P(
    AllCombos, DomainIntegrationTest,
    ::testing::Combine(::testing::Values(TechniqueKind::kMpk, TechniqueKind::kVmfunc,
                                         TechniqueKind::kCrypt, TechniqueKind::kSgx,
                                         TechniqueKind::kMprotect),
                       ::testing::Values(DomainScenario::kCallRet,
                                         DomainScenario::kIndirectBranch,
                                         DomainScenario::kSyscall)),
    [](const auto& info) {
      std::string name = core::TechniqueKindName(std::get<0>(info.param));
      name += "_";
      switch (std::get<1>(info.param)) {
        case DomainScenario::kCallRet:
          name += "callret";
          break;
        case DomainScenario::kIndirectBranch:
          name += "indirect";
          break;
        case DomainScenario::kSyscall:
          name += "syscall";
          break;
      }
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

TEST_P(DomainIntegrationTest, ProtectedWorkloadCompletesWithSwitches) {
  const auto [kind, scenario] = GetParam();
  const auto& profile = *workloads::FindProfile("445.gobmk");

  sim::Machine machine;
  sim::Process process(&machine);
  if (kind == TechniqueKind::kVmfunc) {
    ASSERT_TRUE(process.EnableDune().ok());
  }
  ASSERT_TRUE(workloads::PrepareWorkloadProcess(process, profile).ok());
  core::MemSentryConfig config;
  config.technique = kind;
  core::MemSentry ms(&process, config);
  auto region =
      ms.allocator().Alloc("metadata", kind == TechniqueKind::kCrypt ? 16 : 4096);
  ASSERT_TRUE(region.ok());

  workloads::SynthOptions synth;
  synth.target_instructions = 50'000;
  ir::Module module = workloads::SynthesizeSpecProgram(profile, synth);

  switch (scenario) {
    case DomainScenario::kCallRet: {
      defenses::ShadowStackPass pass(region.value()->base);
      ASSERT_TRUE(pass.Run(module).ok());
      break;
    }
    case DomainScenario::kIndirectBranch: {
      defenses::EventAnnotatorPass pass(defenses::EventKind::kIndirectBranch,
                                        region.value()->base);
      ASSERT_TRUE(pass.Run(module).ok());
      break;
    }
    case DomainScenario::kSyscall: {
      defenses::EventAnnotatorPass pass(defenses::EventKind::kSyscall, region.value()->base);
      ASSERT_TRUE(pass.Run(module).ok());
      break;
    }
  }
  ASSERT_TRUE(ms.Protect(module).ok());

  sim::Executor executor(&process, &module);
  auto result = executor.Run();
  ASSERT_TRUE(result.halted) << (result.fault ? result.fault->ToString() : "no fault");
  EXPECT_FALSE(result.trapped);
  EXPECT_GT(result.domain_switches, 0u);
  EXPECT_GT(result.instrumentation_instrs, 0u);
  EXPECT_GT(result.instrumentation_cycles, 0.0);
  EXPECT_LT(result.instrumentation_cycles, result.cycles);

  // The attacker still cannot touch the region after the run.
  auto leak = ms.technique().AttackerRead(process, region.value()->base);
  if (leak.ok()) {
    // crypt: readable ciphertext is acceptable; anything else must fault.
    EXPECT_EQ(kind, TechniqueKind::kCrypt);
  }
}

class AddressIntegrationTest
    : public ::testing::TestWithParam<std::tuple<TechniqueKind, core::ProtectMode>> {};

INSTANTIATE_TEST_SUITE_P(
    AllCombos, AddressIntegrationTest,
    ::testing::Combine(::testing::Values(TechniqueKind::kSfi, TechniqueKind::kMpx),
                       ::testing::Values(core::ProtectMode::kWriteOnly,
                                         core::ProtectMode::kReadOnly,
                                         core::ProtectMode::kReadWrite)),
    [](const auto& info) {
      std::string name = core::TechniqueKindName(std::get<0>(info.param));
      switch (std::get<1>(info.param)) {
        case core::ProtectMode::kWriteOnly:
          name += "_w";
          break;
        case core::ProtectMode::kReadOnly:
          name += "_r";
          break;
        case core::ProtectMode::kReadWrite:
          name += "_rw";
          break;
      }
      return name;
    });

TEST_P(AddressIntegrationTest, InstrumentedWorkloadCompletesAndConfines) {
  const auto [kind, mode] = GetParam();
  const auto& profile = *workloads::FindProfile("458.sjeng");
  eval::ExperimentOptions options;
  options.target_instructions = 50'000;
  auto run = [&](core::ProtectMode protect_mode) {
    eval::CellRecipe recipe =
        eval::ExperimentRecipe(profile, kind, eval::Defense::kNone, options);
    recipe.instrument.mode = protect_mode;
    return eval::RunExperiment(recipe).normalized;
  };
  const double normalized = run(mode);
  ASSERT_GT(normalized, 0.0) << "pipeline failed";
  EXPECT_GE(normalized, 1.0);
  EXPECT_LT(normalized, 1.6);
  // -w must cost less than -rw for the same technique.
  if (mode == core::ProtectMode::kReadWrite) {
    const double write_only = run(core::ProtectMode::kWriteOnly);
    EXPECT_LT(write_only, normalized);
  }
}

}  // namespace
}  // namespace memsentry
