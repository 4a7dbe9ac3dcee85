#include <gtest/gtest.h>

#include "src/ir/builder.h"
#include "src/ir/module.h"
#include "src/ir/pass.h"
#include "src/ir/pointsto.h"
#include "src/ir/verifier.h"

namespace memsentry::ir {
namespace {

using machine::Gpr;

Module TinyValidModule() {
  Module m;
  Builder b(&m);
  b.CreateFunction("main");
  b.MovImm(Gpr::kRax, 1);
  b.Halt();
  return m;
}

TEST(BuilderTest, BuildsBlocksAndFunctions) {
  Module m;
  Builder b(&m);
  const int f = b.CreateFunction("main");
  EXPECT_EQ(f, 0);
  b.MovImm(Gpr::kRax, 5);
  const int loop = b.NewBlock();
  EXPECT_EQ(loop, 1);
  b.Jmp(loop);
  b.SetInsertPoint(f, loop);
  b.AddImm(Gpr::kRax, -1);
  b.CondBr(loop);
  const int exit = b.NewBlock();
  b.SetInsertPoint(f, exit);
  b.Halt();
  EXPECT_TRUE(Verify(m).ok());
  EXPECT_EQ(m.InstrCount(), 5u);
}

TEST(VerifierTest, AcceptsValidModule) {
  Module m = TinyValidModule();
  EXPECT_TRUE(Verify(m).ok());
}

TEST(VerifierTest, RejectsEmptyModule) {
  Module m;
  EXPECT_FALSE(Verify(m).ok());
}

TEST(VerifierTest, RejectsMissingTerminator) {
  Module m = TinyValidModule();
  m.functions[0].blocks[0].instrs.pop_back();  // drop the halt
  EXPECT_FALSE(Verify(m).ok());
}

TEST(VerifierTest, RejectsTerminatorMidBlock) {
  Module m = TinyValidModule();
  auto& instrs = m.functions[0].blocks[0].instrs;
  instrs.insert(instrs.begin(), Instr{.op = Opcode::kHalt});
  EXPECT_FALSE(Verify(m).ok());
}

TEST(VerifierTest, RejectsBadBranchTarget) {
  Module m;
  Builder b(&m);
  b.CreateFunction("main");
  b.Jmp(7);
  EXPECT_FALSE(Verify(m).ok());
}

TEST(VerifierTest, RejectsCondBrWithoutFallthrough) {
  Module m;
  Builder b(&m);
  b.CreateFunction("main");
  b.CondBr(0);  // block 0 is the last block: nowhere to fall through
  EXPECT_FALSE(Verify(m).ok());
}

TEST(VerifierTest, RejectsBadCallTarget) {
  Module m = TinyValidModule();
  auto& instrs = m.functions[0].blocks[0].instrs;
  instrs.insert(instrs.begin(), Instr{.op = Opcode::kCall, .target = 3});
  EXPECT_FALSE(Verify(m).ok());
}

TEST(VerifierTest, RejectsWideWrpkruImmediate) {
  Module m = TinyValidModule();
  auto& instrs = m.functions[0].blocks[0].instrs;
  instrs.insert(instrs.begin(), Instr{.op = Opcode::kWrpkru, .imm = uint64_t{1} << 33});
  EXPECT_FALSE(Verify(m).ok());
}

TEST(VerifierTest, RejectsBadBoundRegister) {
  Module m = TinyValidModule();
  auto& instrs = m.functions[0].blocks[0].instrs;
  instrs.insert(instrs.begin(), Instr{.op = Opcode::kBndcu, .src = Gpr::kRax, .imm = 4});
  EXPECT_FALSE(Verify(m).ok());
}

TEST(OpcodeTest, AllOpcodesHaveNames) {
  for (int op = 0; op <= static_cast<int>(Opcode::kTrapIf); ++op) {
    EXPECT_STRNE(OpcodeName(static_cast<Opcode>(op)), "?");
  }
}

class CountingPass : public ModulePass {
 public:
  explicit CountingPass(int* counter, bool corrupt = false)
      : counter_(counter), corrupt_(corrupt) {}
  std::string name() const override { return "counting"; }
  Status Run(Module& module) override {
    ++*counter_;
    if (corrupt_) {
      module.functions[0].blocks[0].instrs.clear();
    }
    return OkStatus();
  }

 private:
  int* counter_;
  bool corrupt_;
};

TEST(PassManagerTest, RunsPassesInOrder) {
  Module m = TinyValidModule();
  int count = 0;
  PassManager pm;
  pm.Add(std::make_unique<CountingPass>(&count));
  pm.Add(std::make_unique<CountingPass>(&count));
  ASSERT_TRUE(pm.Run(m).ok());
  EXPECT_EQ(count, 2);
  EXPECT_EQ(pm.executed().size(), 2u);
}

TEST(PassManagerTest, CatchesPassBreakingModule) {
  Module m = TinyValidModule();
  int count = 0;
  PassManager pm;
  pm.Add(std::make_unique<CountingPass>(&count, /*corrupt=*/true));
  Status s = pm.Run(m);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
}

TEST(PassManagerTest, VerifyMemoFollowsVersion) {
  Module m = TinyValidModule();
  EXPECT_FALSE(m.verified());
  int count = 0;
  PassManager pm;
  pm.Add(std::make_unique<CountingPass>(&count));
  ASSERT_TRUE(pm.Run(m).ok());
  EXPECT_TRUE(m.verified());  // recorded after the pass's verify
  const Module copy = m;
  EXPECT_TRUE(copy.verified());  // carried with the content and version
  m.Touch();
  EXPECT_FALSE(m.verified());  // dropped by Touch()
  EXPECT_TRUE(copy.verified());
}

TEST(PassManagerTest, ReverifiesModuleTouchedAfterItsLastVerify) {
  Module m = TinyValidModule();
  int count = 0;
  {
    PassManager pm;
    pm.Add(std::make_unique<CountingPass>(&count));
    ASSERT_TRUE(pm.Run(m).ok());
  }
  ASSERT_TRUE(m.verified());
  // An edit that breaks the module, announced with Touch(): the next run
  // must verify again and reject it before any pass sees it.
  m.functions[0].blocks[0].instrs.pop_back();  // drops the terminator
  m.Touch();
  PassManager pm;
  pm.Add(std::make_unique<CountingPass>(&count));
  const Status s = pm.Run(m);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(count, 1);  // only the first run's pass ran
  EXPECT_FALSE(m.verified());
}

TEST(PassManagerTest, CatchesPassBreakingAlreadyVerifiedModule) {
  Module m = TinyValidModule();
  ASSERT_TRUE(Verify(m).ok());
  m.MarkVerified();  // the pre-pass verify is skipped...
  int count = 0;
  PassManager pm;
  pm.Add(std::make_unique<CountingPass>(&count, /*corrupt=*/true));
  const Status s = pm.Run(m);
  EXPECT_FALSE(s.ok());  // ...but the verify after the pass still runs
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_FALSE(m.verified());
}

// ---- points-to ----

Module PointsToFixture(VirtAddr safe_base) {
  // main: r8 = safe_base; r9 = 0x1000; load via r8 (safe), store via r9
  // (not safe), load via value read from memory (unknown).
  Module m;
  Builder b(&m);
  b.CreateFunction("main");
  b.MovImm(Gpr::kR8, safe_base);
  b.MovImm(Gpr::kR9, 0x1000);
  b.Load(Gpr::kRbx, Gpr::kR8);     // safe pointer
  b.Store(Gpr::kR9, Gpr::kRbx);    // not safe
  b.Load(Gpr::kR10, Gpr::kR9);     // loads an unknown value...
  b.Load(Gpr::kRcx, Gpr::kR10);    // ...then dereferences it: unknown
  b.Halt();
  return m;
}

TEST(PointsToTest, ConservativeFlagsUnknowns) {
  const SafeRange range{0x480000000000ULL, 4096};
  Module m = PointsToFixture(range.base);
  auto result = AnalyzePointsTo(m, std::span(&range, 1), /*conservative=*/true,
                                /*annotate=*/false);
  EXPECT_EQ(result.total_mem_ops, 4u);
  // Safe-pointer load + unknown-pointer load are flagged; the 0x1000 store
  // and the load *from* 0x1000 are provably not safe.
  EXPECT_EQ(result.may_access, 2u);
}

TEST(PointsToTest, OptimisticFlagsOnlyProvenSafe) {
  const SafeRange range{0x480000000000ULL, 4096};
  Module m = PointsToFixture(range.base);
  auto result = AnalyzePointsTo(m, std::span(&range, 1), /*conservative=*/false,
                                /*annotate=*/false);
  EXPECT_EQ(result.may_access, 1u);
}

TEST(PointsToTest, AnnotationSetsFlags) {
  const SafeRange range{0x480000000000ULL, 4096};
  Module m = PointsToFixture(range.base);
  auto result = AnalyzePointsTo(m, std::span(&range, 1), /*conservative=*/false,
                                /*annotate=*/true);
  ASSERT_EQ(result.refs.size(), 1u);
  const auto& ref = result.refs[0];
  const Instr& instr = m.functions[static_cast<size_t>(ref.function)]
                           .blocks[static_cast<size_t>(ref.block)]
                           .instrs[static_cast<size_t>(ref.index)];
  EXPECT_TRUE(instr.IsSafeAccess());
}

TEST(PointsToTest, DerivedPointersKeepProvenance) {
  const SafeRange range{0x480000000000ULL, 4096};
  Module m;
  Builder b(&m);
  b.CreateFunction("main");
  b.MovImm(Gpr::kR8, range.base);
  b.Lea(Gpr::kR9, Gpr::kR8, 128);  // derived safe pointer
  b.Load(Gpr::kRbx, Gpr::kR9);
  b.Halt();
  auto result = AnalyzePointsTo(m, std::span(&range, 1), /*conservative=*/false,
                                /*annotate=*/false);
  EXPECT_EQ(result.may_access, 1u);
}

}  // namespace
}  // namespace memsentry::ir
