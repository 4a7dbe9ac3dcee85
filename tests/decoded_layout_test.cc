// The compact decoded layout: record sizes, derived source positions and the
// wide-immediate pool.
//  - RegOp and Uop stay within their size budgets (8 and 32 bytes).
//  - DecodedFunction::Slot maps every source (block, index) of real
//    workloads — each SPEC CPU2006 profile, uninstrumented and under SFI,
//    MPX, MPK and VMFUNC — to the same (µop, skip) a plain walk of the µop
//    stream assigns it, including positions in the middle of fused runs.
//  - Every array is allocated at exactly its used size.
//  - Immediates that need all 64 bits run bit-identically under
//    MEMSENTRY_FASTPATH=off|on|check.
#include <array>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/fastpath.h"
#include "src/core/memsentry.h"
#include "src/defenses/shadow_stack.h"
#include "src/ir/builder.h"
#include "src/sim/decoded.h"
#include "src/sim/executor.h"
#include "src/sim/process.h"
#include "src/workloads/spec_profiles.h"
#include "src/workloads/synth.h"

namespace memsentry {
namespace {

static_assert(sizeof(sim::RegOp) <= 8, "RegOp grew past 8 bytes");
static_assert(sizeof(sim::Uop) <= 32, "Uop grew past 32 bytes");

using base::FastPathMode;
using ir::Builder;
using ir::Module;
using machine::Gpr;

class FastPathModeGuard {
 public:
  explicit FastPathModeGuard(FastPathMode mode) : saved_(base::GetFastPathMode()) {
    base::SetFastPathMode(mode);
  }
  ~FastPathModeGuard() { base::SetFastPathMode(saved_); }

 private:
  FastPathMode saved_;
};

// Walks the µop stream in order and checks that Slot() agrees with the
// position each µop covers, that every source instruction is covered
// exactly once, and that every record matches its source instruction (the
// check-mode helpers abort on a mismatch). Adds to `mid_run` how many
// positions fell strictly inside a fused run. (void so ASSERT_* can bail.)
void ExpectSlotsMatchWalk(const Module& module, const sim::DecodedModule& dec,
                          const sim::Process& process, const std::string& label,
                          uint64_t* mid_run) {
  SCOPED_TRACE(label);
  uint64_t covered = 0;
  EXPECT_EQ(dec.functions.size(), module.functions.size());
  for (size_t f = 0; f < module.functions.size(); ++f) {
    const ir::Function& function = module.functions[f];
    const sim::DecodedFunction& df = dec.functions[f];
    EXPECT_EQ(df.block_head.size(), function.blocks.size() + 1);
    // Exact allocation: capacity == size for every array.
    EXPECT_EQ(df.uops.capacity(), df.uops.size());
    EXPECT_EQ(df.regops.capacity(), df.regops.size());
    EXPECT_EQ(df.wide_imms.capacity(), df.wide_imms.size());
    EXPECT_EQ(df.block_head.capacity(), df.block_head.size());
    EXPECT_EQ(df.slot_base.capacity(), df.slot_base.size());
    EXPECT_EQ(df.slot_index.capacity(), df.slot_index.size());
    size_t checkpoints = 0;
    for (const ir::BasicBlock& block : function.blocks) {
      checkpoints += (block.instrs.size() + sim::DecodedFunction::kSlotStride - 1) /
                     sim::DecodedFunction::kSlotStride;
    }
    EXPECT_EQ(df.slot_index.size(), checkpoints) << "one checkpoint per stride";
    uint32_t next_regop = 0;
    for (size_t b = 0; b < function.blocks.size(); ++b) {
      const int32_t head = df.block_head[b];
      const int32_t end = df.block_head[b + 1];
      int32_t expected_index = 0;
      for (int32_t ui = head; ui < end; ++ui) {
        const sim::Uop& u = df.uops[static_cast<size_t>(ui)];
        ASSERT_EQ(u.block, static_cast<int32_t>(b));
        ASSERT_EQ(u.index, expected_index) << "µops must tile their block in order";
        sim::CheckUop(module, static_cast<int>(f), dec, u, process.machine().cost);
        if (!u.fused() && u.op == ir::Opcode::kNop) {
          EXPECT_EQ(ui, end - 1) << "a guard µop ends its block";
          continue;
        }
        const uint32_t width = u.fused() ? u.fuse_count() : 1;
        if (u.fused()) {
          EXPECT_EQ(u.fuse_start(), next_regop) << "fused runs are laid out in order";
          next_regop += width;
        }
        for (uint32_t k = 0; k < width; ++k) {
          const int32_t index = u.index + static_cast<int32_t>(k);
          const sim::DecodedFunction::InstrSlot slot = df.Slot(static_cast<int32_t>(b), index);
          ASSERT_EQ(slot.uop, ui) << "f" << f << " b" << b << " i" << index;
          ASSERT_EQ(slot.skip, k) << "f" << f << " b" << b << " i" << index;
          if (u.fused()) {
            sim::CheckRegOp(module, static_cast<int>(f), dec, df,
                            df.regops[u.fuse_start() + k], static_cast<int32_t>(b), index,
                            process.machine().cost, process.ymm_reserved());
          }
          *mid_run += k > 0 ? 1 : 0;
          ++covered;
        }
        expected_index += static_cast<int32_t>(width);
      }
      EXPECT_EQ(expected_index, static_cast<int32_t>(function.blocks[b].instrs.size()));
    }
    EXPECT_EQ(next_regop, df.regops.size());
  }
  EXPECT_EQ(covered, module.InstrCount());
}

struct Variant {
  const char* name;
  bool isolate;
  core::TechniqueKind kind;
};

TEST(DecodedLayout, SlotsMatchStreamWalkForEveryProfileAndTechnique) {
  const std::array<Variant, 5> variants = {{
      {"none", false, core::TechniqueKind::kSfi},
      {"SFI", true, core::TechniqueKind::kSfi},
      {"MPX", true, core::TechniqueKind::kMpx},
      {"MPK", true, core::TechniqueKind::kMpk},
      {"VMFUNC", true, core::TechniqueKind::kVmfunc},
  }};
  uint64_t mid_run = 0;
  uint64_t instrs = 0;
  uint64_t bytes = 0;
  uint64_t wide = 0;
  for (const workloads::SpecProfile& profile : workloads::SpecCpu2006()) {
    for (const Variant& variant : variants) {
      sim::Machine machine;
      sim::Process process(&machine);
      if (variant.isolate && variant.kind == core::TechniqueKind::kVmfunc) {
        ASSERT_TRUE(process.EnableDune().ok());
      }
      ASSERT_TRUE(workloads::PrepareWorkloadProcess(process, profile).ok());
      core::MemSentryConfig config;
      config.technique = variant.kind;
      core::MemSentry ms(&process, config);
      auto region = ms.allocator().Alloc("shadow", 4096);
      ASSERT_TRUE(region.ok());
      workloads::SynthOptions synth;
      synth.target_instructions = 20'000;
      Module module = workloads::SynthesizeSpecProgram(profile, synth);
      if (variant.isolate) {
        // Domain techniques only instrument defense events: a shadow stack
        // gives them call/ret sites to wrap.
        defenses::ShadowStackPass shadow(region.value()->base);
        ASSERT_TRUE(shadow.Run(module).ok());
        ASSERT_TRUE(ms.Protect(module).ok());
      }
      auto dec = sim::DecodedModule::Build(module, process);
      ASSERT_NO_FATAL_FAILURE(ExpectSlotsMatchWalk(module, *dec, process,
                                                   profile.name + "/" + variant.name, &mid_run));
      instrs += module.InstrCount();
      bytes += dec->bytes();
      for (const sim::DecodedFunction& df : dec->functions) {
        wide += df.wide_imms.size();
      }
    }
  }
  EXPECT_GT(mid_run, 0u) << "the walk must cover positions inside fused runs";
  EXPECT_GT(wide, 0u) << "SFI masks and movabs constants need the wide pool";
  // The layout's budget: at most 16 bytes of decode per source instruction
  // (12 on the quick suite's modules; these are smaller, so fixed
  // per-function costs weigh more).
  EXPECT_LE(static_cast<double>(bytes) / static_cast<double>(instrs), 16.0);
}

// A straight-line module whose immediates span the inline/wide boundary:
// sign-extended 32-bit values stay inline, everything else goes through the
// per-function pool (deduplicated).
Module WideImmediateModule() {
  Module m;
  Builder b(&m);
  b.CreateFunction("main");
  const uint64_t values[] = {
      0x123456789ABCDEF0ull,  // movabs constant
      0x00007FFFFFFFFFFFull,  // SFI-style mask
      0xFFFFFFFFFFFFFFFBull,  // -5: inline, sign-extended
      0x0000000080000000ull,  // 2^31: not a sign extension, wide
      0x00000000FFFFFFFFull,  // wide
      0xFFFFFFFF80000000ull,  // INT32_MIN sign-extended: inline
      0x7FFFFFFFull,          // INT32_MAX: inline
      0x8000000000000003ull,  // wide, low bits select ALU kind 3
  };
  int reg = 0;
  for (uint64_t v : values) {
    const Gpr dst = static_cast<Gpr>(8 + (reg++ % 8));
    b.MovImm(dst, v);
    b.AndImm(dst, 0x00007FFFFFFFFFFFull);
    b.MovImm(Gpr::kRbx, v);
    b.AddImm(Gpr::kRbx, static_cast<int64_t>(v));
    b.Lea(Gpr::kRcx, Gpr::kRbx, static_cast<int64_t>(v));
    ir::Instr alu;
    alu.op = ir::Opcode::kAluRR;
    alu.dst = Gpr::kRcx;
    alu.src = dst;
    alu.imm = v;  // the ALU kind is imm & 3, whatever the upper bits
    b.Emit(alu);
    b.AluRR(Gpr::kRdx, Gpr::kRcx, static_cast<int>(v & 3));
  }
  b.VecOp(3);
  ir::Instr vec;  // a wide immediate on kVecOp scales its ymm-reserve penalty
  vec.op = ir::Opcode::kVecOp;
  vec.imm = 0x10000000000ull;
  b.Emit(vec);
  b.Halt();
  return m;
}

struct RegState {
  sim::RunResult result;
  std::array<uint64_t, machine::kNumGprs> gpr{};
  bool zero_flag = false;
};

RegState RunUnder(FastPathMode mode, const Module& module, bool ymm_reserved) {
  FastPathModeGuard guard(mode);
  sim::Machine machine;
  sim::Process process(&machine);
  EXPECT_TRUE(process.SetupStack().ok());
  process.SetYmmReserved(ymm_reserved);  // kVecOp charges its penalty from the immediate
  sim::Executor executor(&process, &module);
  RegState state;
  state.result = executor.Run({});
  state.gpr = process.regs().gpr;
  state.zero_flag = process.regs().zero_flag;
  return state;
}

TEST(DecodedLayout, WideImmediatesRunBitIdenticallyInEveryMode) {
  const Module module = WideImmediateModule();
  {
    sim::Machine machine;
    sim::Process process(&machine);
    auto dec = sim::DecodedModule::Build(module, process);
    ASSERT_EQ(dec->functions.size(), 1u);
    // Wide values are pooled once each: six distinct wide immediates.
    EXPECT_EQ(dec->functions[0].wide_imms.size(), 6u);
  }
  for (bool ymm_reserved : {false, true}) {
    SCOPED_TRACE(ymm_reserved ? "ymm reserved" : "ymm free");
    const RegState off = RunUnder(FastPathMode::kOff, module, ymm_reserved);
    ASSERT_TRUE(off.result.halted);
    for (FastPathMode mode : {FastPathMode::kOn, FastPathMode::kCheck}) {
      SCOPED_TRACE(base::FastPathModeName(mode));
      const RegState fast = RunUnder(mode, module, ymm_reserved);
      EXPECT_EQ(fast.result.instructions, off.result.instructions);
      EXPECT_EQ(fast.result.cycles, off.result.cycles);
      EXPECT_EQ(fast.result.instrumentation_cycles, off.result.instrumentation_cycles);
      EXPECT_EQ(fast.result.halted, off.result.halted);
      EXPECT_EQ(fast.gpr, off.gpr);
      EXPECT_EQ(fast.zero_flag, off.zero_flag);
    }
  }
  // The registers really hold 64-bit values (the test would pass vacuously
  // if every immediate had been truncated the same way in every mode).
  EXPECT_EQ(RunUnder(FastPathMode::kOn, module, false).gpr[8],
            0x123456789ABCDEF0ull & 0x00007FFFFFFFFFFFull);
}

}  // namespace
}  // namespace memsentry
