// Targeted differential tests for grant-stable superblock fusion (PR 7):
// fused µop runs that extend across kLoad/kStore must bail out — and stay
// bit-identical to the reference interpreter — whenever the grant verdict a
// fused memory op rides becomes stale mid-run. Each scenario here forces a
// specific staleness source at a known point inside a fused run: TLB-miss
// Inserts (every Insert ticks the TLB version), kMprotect page invalidation,
// PKRU writes, injected protection-state corruption, and instruction-budget
// cutoffs landing between a run's memory ops. The broad randomized sweeps
// live in fastpath_differential_test; these are the surgical cases.
#include <memory>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "src/base/fastpath.h"
#include "src/core/memsentry.h"
#include "src/ir/builder.h"
#include "src/sim/decoded.h"
#include "src/sim/executor.h"
#include "src/sim/fault_injector.h"
#include "src/sim/process.h"

namespace memsentry {
namespace {

using base::FastPathMode;
using ir::Builder;
using ir::Module;
using machine::Gpr;
using sim::FaultSite;

class FastPathModeGuard {
 public:
  explicit FastPathModeGuard(FastPathMode mode) : saved_(base::GetFastPathMode()) {
    base::SetFastPathMode(mode);
  }
  ~FastPathModeGuard() { base::SetFastPathMode(saved_); }

 private:
  FastPathMode saved_;
};

struct Snapshot {
  sim::RunResult result;
  machine::TlbStats tlb;
  machine::CacheStats cache;
  machine::MmuStats mmu;
  bool injected = false;
};

void ExpectBitIdentical(const Snapshot& ref, const Snapshot& fast, const std::string& label) {
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

// A nested sweep over `pages` pages, `sweeps` times, with 8 pages per inner
// iteration unrolled into one straight-line body: each fused run crosses 8
// page boundaries, so on the first sweep every one of its memory ops suffers
// a TLB miss whose Insert ticks the version — the grant-stability bailout
// fires *inside* the run, 8 times per iteration. Later sweeps hit the TLB
// (and, past the TLB's 512-entry reach, evict) so hit, miss and eviction
// paths all occur mid-run. Loads and stores alternate to exercise both
// access kinds' grant slots.
Module PageStridingModule(uint64_t pages, uint64_t sweeps) {
  constexpr int kUnroll = 8;
  constexpr uint64_t kPage = 4096;
  Module m;
  Builder b(&m);
  b.CreateFunction("stride");
  const int entry = 0;
  const int outer = b.NewBlock();
  const int inner = b.NewBlock();
  const int latch = b.NewBlock();
  const int exit = b.NewBlock();
  b.SetInsertPoint(0, entry);
  b.MovImm(Gpr::kRcx, sweeps);
  b.Jmp(outer);
  b.SetInsertPoint(0, outer);
  b.MovImm(Gpr::kR9, sim::kWorkingSetBase);
  b.MovImm(Gpr::kR10, pages / kUnroll);
  b.Jmp(inner);
  b.SetInsertPoint(0, inner);
  for (int k = 0; k < kUnroll; ++k) {
    b.Lea(Gpr::kRdx, Gpr::kR9, static_cast<int64_t>(k * kPage));
    if (k % 2 == 0) {
      b.Load(Gpr::kRbx, Gpr::kRdx);
      b.AluRR(Gpr::kRsi, Gpr::kRbx, /*xor=*/2);
    } else {
      b.Store(Gpr::kRdx, Gpr::kRsi);
    }
  }
  b.AddImm(Gpr::kR9, static_cast<int64_t>(kUnroll * kPage));
  b.AddImm(Gpr::kR10, -1);
  b.CondBr(inner);  // falls through to `latch`
  b.SetInsertPoint(0, latch);
  b.AddImm(Gpr::kRcx, -1);
  b.CondBr(outer);  // falls through to `exit`
  b.SetInsertPoint(0, exit);
  b.Halt();
  return m;
}

// Open/access/close PKRU loop: the wrpkru between fused runs changes the
// grant key (PKRU is part of the verdict), so every fused memory op after a
// toggle must re-probe instead of riding a stale verdict.
Module PkruToggleModule(uint64_t iters) {
  Module m;
  Builder b(&m);
  b.CreateFunction("pkru_toggle");
  const int entry = 0;
  const int loop = b.NewBlock();
  const int exit = b.NewBlock();
  b.SetInsertPoint(0, entry);
  b.MovImm(Gpr::kR9, sim::kWorkingSetBase);
  b.MovImm(Gpr::kRcx, iters);
  b.Jmp(loop);
  b.SetInsertPoint(0, loop);
  ir::Instr open;
  open.op = ir::Opcode::kWrpkru;
  open.imm = 0;  // all keys open
  b.Emit(open);
  b.Lea(Gpr::kRdx, Gpr::kR9, 8);
  b.Load(Gpr::kRbx, Gpr::kRdx);
  b.AluRR(Gpr::kRbx, Gpr::kRbx, /*add=*/0);
  b.Store(Gpr::kRdx, Gpr::kRbx);
  ir::Instr close;
  close.op = ir::Opcode::kWrpkru;
  close.imm = 0xfffffffc;  // every key but 0 closed
  b.Emit(close);
  b.AddImm(Gpr::kR9, 4096);
  b.AddImm(Gpr::kRcx, -1);
  b.CondBr(loop);  // falls through to `exit`
  b.SetInsertPoint(0, exit);
  b.Halt();
  return m;
}

// A PKRU write that closes key 0, then a fused Lea+Load: the load — the
// second op of its fused run — must raise kPkeyAccessDisabled at exactly the
// same address under every mode, with the preceding successful access
// already granted.
Module PkruFaultModule() {
  Module m;
  Builder b(&m);
  b.CreateFunction("pkru_fault");
  b.MovImm(Gpr::kR9, sim::kWorkingSetBase);
  b.Load(Gpr::kRbx, Gpr::kR9);  // mints a read grant for the page
  ir::Instr w;
  w.op = ir::Opcode::kWrpkru;
  w.imm = 0xffffffff;  // key 0 closed too: every data access now denied
  b.Emit(w);
  b.Lea(Gpr::kRdx, Gpr::kR9, 16);
  b.Load(Gpr::kRbx, Gpr::kRdx);  // same page, stale grant: must fault
  b.Halt();
  return m;
}

Snapshot RunModule(const Module& module, FastPathMode mode, uint64_t max_instructions,
                   uint64_t pages) {
  FastPathModeGuard guard(mode);
  sim::Machine machine;
  sim::Process process(&machine);
  EXPECT_TRUE(process.SetupStack().ok());
  EXPECT_TRUE(process.MapRange(sim::kWorkingSetBase, pages, machine::PageFlags::Data()).ok());
  Module local = module;  // fresh instance per run, as the bench harnesses do
  sim::Executor executor(&process, &local);
  sim::RunConfig rc;
  rc.max_instructions = max_instructions;
  rc.record_safe_accesses = true;
  Snapshot snap;
  snap.result = executor.Run(rc);
  snap.tlb = process.mmu().tlb().stats();
  snap.cache = process.mmu().dcache().stats();
  snap.mmu = process.mmu().stats();
  return snap;
}

void ExpectAllModesIdentical(const Module& module, uint64_t max_instructions, uint64_t pages,
                             const std::string& label, Snapshot* out_ref = nullptr) {
  const Snapshot ref = RunModule(module, FastPathMode::kOff, max_instructions, pages);
  const Snapshot fast = RunModule(module, FastPathMode::kOn, max_instructions, pages);
  const Snapshot check = RunModule(module, FastPathMode::kCheck, max_instructions, pages);
  ExpectBitIdentical(ref, fast, label + " on-vs-off");
  ExpectBitIdentical(ref, check, label + " check-vs-off");
  if (out_ref != nullptr) {
    *out_ref = ref;
  }
}

TEST(FusedMemory, DecodedFormContainsFusedMemoryRuns) {
  // The admission rule under test actually admits memory ops: without this,
  // every scenario below would vacuously pass on unfused single-op µops.
  sim::Machine machine;
  sim::Process process(&machine);
  const Module m = PageStridingModule(64, 1);
  auto decoded = sim::DecodedModule::Build(m, process);
  ASSERT_NE(decoded, nullptr);
  ASSERT_FALSE(decoded->functions.empty());
  bool found_mixed_run = false;
  for (const sim::Uop& uop : decoded->functions[0].uops) {
    if (!uop.fused()) {
      continue;
    }
    int memory_ops = 0;
    int register_ops = 0;
    for (uint32_t i = 0; i < uop.fuse_count(); ++i) {
      const sim::RegOp& op = decoded->functions[0].regops[uop.fuse_start() + i];
      if (op.op == ir::Opcode::kLoad || op.op == ir::Opcode::kStore) {
        ++memory_ops;
      } else {
        ++register_ops;
      }
    }
    if (memory_ops >= 2 && register_ops >= 1) {
      found_mixed_run = true;
    }
  }
  EXPECT_TRUE(found_mixed_run)
      << "fusion should produce runs mixing register ops with >= 2 loads/stores";
}

TEST(FusedMemory, TlbMissInsertsInsideFusedRunBitIdentical) {
  // 1024 pages at 2 sweeps: sweep one is all first-touch misses (Insert
  // ticks the version under the feet of the very run that triggered it);
  // sweep two replays through 512-entry TLB reach, so the back half evicts.
  ExpectAllModesIdentical(PageStridingModule(1024, 2), 500'000'000, 1024, "tlb-miss-stride");
  Snapshot ref;
  // A small, fully TLB-resident sweep: later sweeps are pure grant hits.
  ExpectAllModesIdentical(PageStridingModule(64, 4), 500'000'000, 64, "tlb-resident-stride",
                          &ref);
  EXPECT_TRUE(ref.result.halted);
  EXPECT_GT(ref.tlb.hits, 0u);
  EXPECT_GE(ref.tlb.misses, 64u);
}

TEST(FusedMemory, PkruWriteBetweenFusedRunsBitIdentical) {
  Snapshot ref;
  ExpectAllModesIdentical(PkruToggleModule(64), 500'000'000, 64, "pkru-toggle", &ref);
  EXPECT_TRUE(ref.result.halted);
  EXPECT_EQ(ref.result.loads, 64u);
  EXPECT_EQ(ref.result.stores, 64u);
}

TEST(FusedMemory, PkruFaultInsideFusedRunBitIdentical) {
  Snapshot ref;
  ExpectAllModesIdentical(PkruFaultModule(), 500'000'000, 4, "pkru-fault", &ref);
  ASSERT_TRUE(ref.result.fault.has_value());
  EXPECT_EQ(ref.result.fault->type, machine::FaultType::kPkeyAccessDisabled);
  EXPECT_EQ(ref.result.fault->address, sim::kWorkingSetBase + 16);
  // Both loads count (the breakdown tallies attempts; the second faulted).
  EXPECT_EQ(ref.result.loads, 2u);
}

TEST(FusedMemory, BudgetCutoffMidFusedRunBitIdentical) {
  // Odd limits land the clamp between a fused run's memory ops; the partial
  // run must match the reference exactly.
  // Eight sweeps keep the largest limit well inside the run (~1500 instrs).
  const Module m = PageStridingModule(64, 8);
  for (uint64_t limit : {1ull, 5ull, 97ull, 333ull, 1001ull}) {
    Snapshot ref;
    ExpectAllModesIdentical(m, limit, 64, "limit=" + std::to_string(limit), &ref);
    EXPECT_TRUE(ref.result.hit_instruction_limit);
    EXPECT_EQ(ref.result.instructions, limit);
  }
}

// ---- Scenarios that need a registered safe region ----

struct RegionPipeline {
  sim::Machine machine;
  std::unique_ptr<sim::Process> process;
  std::unique_ptr<core::MemSentry> ms;
  VirtAddr region_base = 0;
  Module module;
  bool injected = false;
};

constexpr uint64_t kRegionPages = 16;

// Info-hiding keeps the region plainly accessible (protection is secrecy of
// its address), so fused loads/stores sweep it freely and only injected
// corruption or an explicit kMprotect decides where — and whether — a fault
// lands inside a run.
std::unique_ptr<RegionPipeline> MakeRegionPipeline() {
  auto p = std::make_unique<RegionPipeline>();
  p->process = std::make_unique<sim::Process>(&p->machine);
  EXPECT_TRUE(p->process->SetupStack().ok());
  core::MemSentryConfig config;
  config.technique = core::TechniqueKind::kInfoHide;
  config.options.mode = core::ProtectMode::kReadWrite;
  p->ms = std::make_unique<core::MemSentry>(p->process.get(), config);
  auto region = p->ms->allocator().Alloc("secret", kRegionPages * 4096);
  EXPECT_TRUE(region.ok());
  p->region_base = region.ok() ? region.value()->base : 0;
  return p;
}

std::unique_ptr<RegionPipeline> BuildRegionSweep(std::optional<FaultSite> site, uint64_t seed) {
  auto p = MakeRegionPipeline();
  const VirtAddr base = p->region_base;

  Builder b(&p->module);
  b.CreateFunction("region_sweep");
  const int entry = 0;
  const int loop = b.NewBlock();
  const int exit = b.NewBlock();
  b.SetInsertPoint(0, entry);
  b.MovImm(Gpr::kRcx, 2);  // two sweeps: miss-grant then hit-grant
  b.Jmp(loop);
  b.SetInsertPoint(0, loop);
  b.MovImm(Gpr::kR9, base);
  for (uint64_t k = 0; k < kRegionPages; ++k) {
    b.Lea(Gpr::kRdx, Gpr::kR9, static_cast<int64_t>(k * 4096));
    b.Load(Gpr::kRbx, Gpr::kRdx);
    b.Store(Gpr::kRdx, Gpr::kRbx);
  }
  b.AddImm(Gpr::kRcx, -1);
  b.CondBr(loop);  // falls through to `exit`
  b.SetInsertPoint(0, exit);
  b.Halt();
  EXPECT_TRUE(p->ms->Protect(p->module).ok());

  if (site.has_value()) {
    sim::FaultInjector injector(p->process.get(), seed);
    p->injected = injector.Inject(*site).ok();
  }
  return p;
}

Snapshot RunRegionSweep(FastPathMode mode, std::optional<FaultSite> site, uint64_t seed) {
  FastPathModeGuard guard(mode);
  auto p = BuildRegionSweep(site, seed);
  sim::Executor executor(p->process.get(), &p->module);
  sim::RunConfig rc;
  rc.record_safe_accesses = true;
  Snapshot snap;
  snap.injected = p->injected;
  snap.result = executor.Run(rc);
  snap.tlb = p->process->mmu().tlb().stats();
  snap.cache = p->process->mmu().dcache().stats();
  snap.mmu = p->process->mmu().stats();
  return snap;
}

TEST(FusedMemory, InjectedFaultsInsideFusedRunsBitIdentical) {
  // Every fault site against the region sweep. The whole sweep is one fused
  // run per sweep iteration, so any injected PTE/TLB corruption that faults
  // (or silently revalidates) does so between two fused memory ops. Sites
  // that need state this pipeline lacks (EPT, AES keys, a kernel) fail to
  // inject identically under every mode — the comparison still must hold.
  int injected_sites = 0;
  for (int s = 0; s < sim::kNumFaultSites; ++s) {
    const auto site = static_cast<FaultSite>(s);
    const uint64_t seed = 9'100 + static_cast<uint64_t>(s);
    const Snapshot ref = RunRegionSweep(FastPathMode::kOff, site, seed);
    const Snapshot fast = RunRegionSweep(FastPathMode::kOn, site, seed);
    const Snapshot check = RunRegionSweep(FastPathMode::kCheck, site, seed);
    ExpectBitIdentical(ref, fast, std::string("site=") + sim::FaultSiteName(site) + " on");
    ExpectBitIdentical(ref, check, std::string("site=") + sim::FaultSiteName(site) + " check");
    if (ref.injected) {
      ++injected_sites;
    }
  }
  // The PTE/TLB/PKRU/bounds sites all apply to a plain region pipeline.
  EXPECT_GE(injected_sites, 4);

  // And the lost-mapping site specifically must fault inside the fused run:
  // the sweep touches every region page, so the corrupted one is hit.
  const Snapshot ref = RunRegionSweep(FastPathMode::kOff, FaultSite::kPtePresentClear, 77);
  ASSERT_TRUE(ref.injected);
  ASSERT_TRUE(ref.result.fault.has_value());
  EXPECT_FALSE(ref.result.halted);
}

TEST(FusedMemory, MprotectInvalidationInsideFusedStreamBitIdentical) {
  // kMprotect(0) closes every safe region and invalidates its pages: the
  // TLB version ticks mid-stream and the next fused access to the region
  // must take the slow path and fault, identically in every mode.
  auto run = [&](FastPathMode mode) {
    FastPathModeGuard guard(mode);
    auto p = MakeRegionPipeline();
    Module m;
    Builder b(&m);
    b.CreateFunction("mprotect_cut");
    b.MovImm(Gpr::kR9, p->region_base);
    // Gates must look pass-inserted and pair up, or the domain-gate audit
    // inside Protect() rejects the module.
    ir::Instr open;
    open.op = ir::Opcode::kMprotect;
    open.imm = 1;
    open.flags = ir::kFlagInstrumentation;
    b.Emit(open);
    b.Load(Gpr::kRbx, Gpr::kR9);   // region open: succeeds, mints a grant
    b.Store(Gpr::kR9, Gpr::kRbx);
    ir::Instr close;
    close.op = ir::Opcode::kMprotect;
    close.imm = 0;  // close the region, invalidate + version-tick its pages
    close.flags = ir::kFlagInstrumentation;
    b.Emit(close);
    b.Lea(Gpr::kRdx, Gpr::kR9, 8);
    b.Load(Gpr::kRbx, Gpr::kRdx);  // stale grant must not be honored
    b.Halt();
    EXPECT_TRUE(p->ms->Protect(m).ok());
    sim::Executor executor(p->process.get(), &m);
    sim::RunConfig rc;
    rc.record_safe_accesses = true;
    Snapshot snap;
    snap.result = executor.Run(rc);
    snap.tlb = p->process->mmu().tlb().stats();
    snap.cache = p->process->mmu().dcache().stats();
    snap.mmu = p->process->mmu().stats();
    return snap;
  };
  const Snapshot ref = run(FastPathMode::kOff);
  const Snapshot fast = run(FastPathMode::kOn);
  const Snapshot check = run(FastPathMode::kCheck);
  ExpectBitIdentical(ref, fast, "mprotect-cut on");
  ExpectBitIdentical(ref, check, "mprotect-cut check");
  ASSERT_TRUE(ref.result.fault.has_value()) << "closed region access should fault";
  EXPECT_EQ(ref.result.loads, 2u);  // one granted, one attempted post-close
  EXPECT_GT(ref.tlb.flushes + ref.tlb.misses, 0u);
}

}  // namespace
}  // namespace memsentry
