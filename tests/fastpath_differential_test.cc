// Differential oracle for the simulator fast paths (pre-decoded µop streams
// + MMU translation grant cache): randomized workloads across every
// technique, instruction-limit cutoffs landing mid-fused-run, and
// fault-injection campaigns must produce bit-identical RunResults and
// machine stats with the fast paths on, off, and in lockstep-check mode.
// This is the end-to-end half of the oracle; kCheck additionally re-derives
// every µop and MMU grant inline and aborts the process on divergence.
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "src/base/fastpath.h"
#include "src/core/memsentry.h"
#include "src/defenses/shadow_stack.h"
#include "src/sim/executor.h"
#include "src/sim/fault_injector.h"
#include "src/workloads/spec_profiles.h"
#include "src/workloads/synth.h"

namespace memsentry {
namespace {

using base::FastPathMode;
using core::TechniqueKind;
using sim::FaultSite;
using workloads::SpecProfile;

// The mode is process-wide; every test restores it so ordering never leaks.
class FastPathModeGuard {
 public:
  explicit FastPathModeGuard(FastPathMode mode) : saved_(base::GetFastPathMode()) {
    base::SetFastPathMode(mode);
  }
  ~FastPathModeGuard() { base::SetFastPathMode(saved_); }

 private:
  FastPathMode saved_;
};

constexpr TechniqueKind kAllTechniques[] = {
    TechniqueKind::kSfi,   TechniqueKind::kMpx,      TechniqueKind::kMpk,
    TechniqueKind::kVmfunc, TechniqueKind::kCrypt,   TechniqueKind::kSgx,
    TechniqueKind::kMprotect, TechniqueKind::kInfoHide,
};

// Domain-based techniques only instrument annotated events, so give them a
// defense pass that produces some (as the eval pipelines do).
bool NeedsDomainDefense(TechniqueKind kind) {
  switch (kind) {
    case TechniqueKind::kMpk:
    case TechniqueKind::kVmfunc:
    case TechniqueKind::kCrypt:
    case TechniqueKind::kSgx:
    case TechniqueKind::kMprotect:
      return true;
    default:
      return false;
  }
}

struct Outcome {
  sim::RunResult result;
  machine::TlbStats tlb;
  machine::CacheStats cache;
  machine::MmuStats mmu;
  bool injected = false;
};

// One fully built pipeline under the current fast-path mode, run to
// `max_instructions`: fresh machine, workload prep, synthesized program,
// defense pass (domain techniques), MemSentry protection, optional fault
// injection. Everything is derived from `seed`, so two calls with equal
// arguments start from bit-identical states.
Outcome RunPipeline(TechniqueKind kind, const SpecProfile& profile, uint64_t seed,
                    uint64_t max_instructions, std::optional<FaultSite> site) {
  sim::Machine machine;
  sim::Process process(&machine);
  if (kind == TechniqueKind::kVmfunc) {
    (void)process.EnableDune();
  }
  EXPECT_TRUE(workloads::PrepareWorkloadProcess(process, profile).ok());
  core::MemSentryConfig config;
  config.technique = kind;
  config.options.mode = core::ProtectMode::kReadWrite;
  core::MemSentry ms(&process, config);
  const uint64_t region_bytes = kind == TechniqueKind::kCrypt ? 16 : 4096;
  auto region = ms.allocator().Alloc("secret", region_bytes);
  EXPECT_TRUE(region.ok());
  const VirtAddr base = region.ok() ? region.value()->base : 0;
  workloads::SynthOptions synth;
  synth.target_instructions = 120'000;
  synth.seed = seed;
  ir::Module module = workloads::SynthesizeSpecProgram(profile, synth);
  if (NeedsDomainDefense(kind)) {
    defenses::ShadowStackPass pass(base);
    EXPECT_TRUE(pass.Run(module).ok());
  }
  EXPECT_TRUE(ms.Protect(module).ok());
  Outcome out;
  if (site.has_value()) {
    sim::FaultInjector injector(&process, seed);
    out.injected = injector.Inject(*site).ok();
  }
  sim::Executor executor(&process, &module);
  sim::RunConfig rc;
  rc.max_instructions = max_instructions;
  rc.record_safe_accesses = true;
  out.result = executor.Run(rc);
  out.tlb = process.mmu().tlb().stats();
  out.cache = process.mmu().dcache().stats();
  out.mmu = process.mmu().stats();
  return out;
}

// Bitwise equality of everything the simulator models. Cycle totals are
// doubles compared with ==: the fast paths promise the identical sequence
// of additions, not just a close sum. Grant-cache counters are deliberately
// absent — they are fast-path observability, not modeled state.
void ExpectBitIdentical(const Outcome& ref, const Outcome& fast, const std::string& label) {
  SCOPED_TRACE(label);
  const sim::RunResult& a = ref.result;
  const sim::RunResult& b = fast.result;
  EXPECT_EQ(ref.injected, fast.injected);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.halted, b.halted);
  EXPECT_EQ(a.trapped, b.trapped);
  EXPECT_EQ(a.hit_instruction_limit, b.hit_instruction_limit);
  ASSERT_EQ(a.fault.has_value(), b.fault.has_value());
  if (a.fault.has_value()) {
    EXPECT_EQ(a.fault->type, b.fault->type);
    EXPECT_EQ(a.fault->address, b.fault->address);
    EXPECT_EQ(a.fault->access, b.fault->access);
  }
  EXPECT_EQ(a.loads, b.loads);
  EXPECT_EQ(a.stores, b.stores);
  EXPECT_EQ(a.calls, b.calls);
  EXPECT_EQ(a.rets, b.rets);
  EXPECT_EQ(a.indirect_calls, b.indirect_calls);
  EXPECT_EQ(a.syscalls, b.syscalls);
  EXPECT_EQ(a.domain_switches, b.domain_switches);
  EXPECT_EQ(a.instrumentation_instrs, b.instrumentation_instrs);
  EXPECT_EQ(a.instrumentation_cycles, b.instrumentation_cycles);
  EXPECT_EQ(a.SortedSafeAccessRefs(), b.SortedSafeAccessRefs());
  EXPECT_EQ(ref.tlb.hits, fast.tlb.hits);
  EXPECT_EQ(ref.tlb.misses, fast.tlb.misses);
  EXPECT_EQ(ref.tlb.flushes, fast.tlb.flushes);
  EXPECT_EQ(ref.cache.accesses, fast.cache.accesses);
  EXPECT_EQ(ref.cache.l1_hits, fast.cache.l1_hits);
  EXPECT_EQ(ref.cache.l2_hits, fast.cache.l2_hits);
  EXPECT_EQ(ref.cache.l3_hits, fast.cache.l3_hits);
  EXPECT_EQ(ref.cache.dram_accesses, fast.cache.dram_accesses);
  EXPECT_EQ(ref.mmu.accesses, fast.mmu.accesses);
  EXPECT_EQ(ref.mmu.faults, fast.mmu.faults);
  EXPECT_EQ(ref.mmu.walk_memory_touches, fast.mmu.walk_memory_touches);
}

Outcome RunWithMode(FastPathMode mode, TechniqueKind kind, const SpecProfile& profile,
                     uint64_t seed, uint64_t max_instructions,
                     std::optional<FaultSite> site = std::nullopt) {
  FastPathModeGuard guard(mode);
  return RunPipeline(kind, profile, seed, max_instructions, site);
}

TEST(FastPathDifferential, EveryTechniqueBitIdentical) {
  const auto profiles = workloads::SpecCpu2006();
  ASSERT_GE(profiles.size(), 3u);
  for (TechniqueKind kind : kAllTechniques) {
    for (size_t p = 0; p < 2; ++p) {
      const SpecProfile& profile = profiles[p];
      const uint64_t seed = 0x1234 + p;
      const Outcome ref = RunWithMode(FastPathMode::kOff, kind, profile, seed, 500'000'000);
      const Outcome fast = RunWithMode(FastPathMode::kOn, kind, profile, seed, 500'000'000);
      ExpectBitIdentical(ref, fast,
                         "technique=" + std::to_string(static_cast<int>(kind)) +
                             " profile=" + profile.name);
      // The workload must actually run — an early fault on both sides would
      // make the comparison vacuous.
      EXPECT_GT(ref.result.instructions, 0u);
    }
  }
}

TEST(FastPathDifferential, RandomizedSeedsBitIdentical) {
  const auto profiles = workloads::SpecCpu2006();
  // Rotate techniques over randomized program shapes; every seed synthesizes
  // a different module (different fused-run boundaries, branch layouts).
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const TechniqueKind kind = kAllTechniques[seed % std::size(kAllTechniques)];
    const SpecProfile& profile = profiles[seed % profiles.size()];
    const Outcome ref = RunWithMode(FastPathMode::kOff, kind, profile, seed, 500'000'000);
    const Outcome fast = RunWithMode(FastPathMode::kOn, kind, profile, seed, 500'000'000);
    ExpectBitIdentical(ref, fast, "seed=" + std::to_string(seed));
  }
}

TEST(FastPathDifferential, InstructionLimitCutsMidFusedRun) {
  // Odd limits land the budget clamp inside fused µop runs; the fast path
  // must stop at exactly the same op (same partial cycle sum, same register
  // state feeding the final counters) as the reference interpreter.
  const SpecProfile& profile = workloads::SpecCpu2006()[0];
  for (uint64_t limit : {1ull, 7ull, 997ull, 54'321ull, 111'111ull}) {
    const Outcome ref =
        RunWithMode(FastPathMode::kOff, TechniqueKind::kMpx, profile, 42, limit);
    const Outcome fast =
        RunWithMode(FastPathMode::kOn, TechniqueKind::kMpx, profile, 42, limit);
    ExpectBitIdentical(ref, fast, "limit=" + std::to_string(limit));
    EXPECT_EQ(ref.result.hit_instruction_limit, limit <= ref.result.instructions);
  }
}

TEST(FastPathDifferential, FaultInjectionSitesBitIdentical) {
  // Every fault site against the techniques it can apply to: injections
  // mutate translation state (PTEs, TLB entries, PKRU, EPTs, round keys)
  // after grants may already exist, exercising the grant cache's
  // invalidation rules under adversarial state changes.
  const SpecProfile& profile = workloads::SpecCpu2006()[1];
  const TechniqueKind kinds[] = {TechniqueKind::kMpk, TechniqueKind::kMpx,
                                 TechniqueKind::kVmfunc, TechniqueKind::kCrypt};
  for (int s = 0; s < sim::kNumFaultSites; ++s) {
    const auto site = static_cast<FaultSite>(s);
    for (TechniqueKind kind : kinds) {
      const uint64_t seed = 7'000 + static_cast<uint64_t>(s);
      const Outcome ref =
          RunWithMode(FastPathMode::kOff, kind, profile, seed, 500'000'000, site);
      const Outcome fast =
          RunWithMode(FastPathMode::kOn, kind, profile, seed, 500'000'000, site);
      ExpectBitIdentical(ref, fast, std::string("site=") + sim::FaultSiteName(site));
    }
  }
}

TEST(FastPathDifferential, CheckModeMatchesReference) {
  // kCheck re-derives every µop and grant from the reference state inline
  // and aborts on divergence; surviving a run is itself the assertion. The
  // results must also equal the reference byte for byte.
  const auto profiles = workloads::SpecCpu2006();
  for (TechniqueKind kind :
       {TechniqueKind::kSfi, TechniqueKind::kMpk, TechniqueKind::kCrypt}) {
    const SpecProfile& profile = profiles[2];
    const Outcome ref = RunWithMode(FastPathMode::kOff, kind, profile, 99, 500'000'000);
    const Outcome checked = RunWithMode(FastPathMode::kCheck, kind, profile, 99, 500'000'000);
    ExpectBitIdentical(ref, checked,
                       "check technique=" + std::to_string(static_cast<int>(kind)));
  }
}

}  // namespace
}  // namespace memsentry
