#include "src/defenses/shadow_stack.h"

#include "src/workloads/synth.h"

namespace memsentry::defenses {
namespace {

using workloads::kRegDefScratch;
using workloads::kRegScratch;
using workloads::kRegShadowPtr;

ir::Instr Def(ir::Instr instr, bool safe = false) {
  instr.flags |= ir::kFlagDefense | (safe ? ir::kFlagSafeAccess : 0);
  return instr;
}

}  // namespace

Status ShadowStackPass::Run(ir::Module& module) {
  prologues_ = 0;
  epilogues_ = 0;
  for (int fi = 0; fi < static_cast<int>(module.functions.size()); ++fi) {
    ir::Function& func = module.functions[static_cast<size_t>(fi)];
    // Prologue: push r11 (the just-written return address) onto the shadow
    // stack. Inserted at the top of the entry block.
    {
      auto& instrs = func.blocks[0].instrs;
      std::vector<ir::Instr> prologue = {
          Def(ir::Instr{.op = ir::Opcode::kStore,
                        .dst = kRegShadowPtr,
                        .src = machine::Gpr::kR11},
              /*safe=*/true),
          Def(ir::Instr{.op = ir::Opcode::kLea,
                        .dst = kRegShadowPtr,
                        .src = kRegShadowPtr,
                        .imm = 8}),
      };
      instrs.insert(instrs.begin(), prologue.begin(), prologue.end());
      ++prologues_;
    }
    // Entry function: initialize the shadow pointer first of all.
    if (fi == module.entry) {
      auto& instrs = func.blocks[0].instrs;
      instrs.insert(instrs.begin(), Def(ir::Instr{.op = ir::Opcode::kMovImm,
                                                  .dst = kRegShadowPtr,
                                                  .imm = shadow_base_}));
    }
    // Epilogues: before every ret, pop the shadow entry and compare it with
    // the in-memory return address the ret is about to consume. Rets are
    // counted first: a block without one stays as it is.
    for (auto& block : func.blocks) {
      size_t rets = 0;
      for (const ir::Instr& instr : block.instrs) {
        rets += instr.op == ir::Opcode::kRet;
      }
      if (rets == 0) {
        continue;
      }
      std::vector<ir::Instr> out;
      out.reserve(block.instrs.size() + 5 * rets);
      for (const ir::Instr& instr : block.instrs) {
        if (instr.op == ir::Opcode::kRet) {
          const std::vector<ir::Instr> epilogue = {
              Def(ir::Instr{.op = ir::Opcode::kLea,
                            .dst = kRegShadowPtr,
                            .src = kRegShadowPtr,
                            .imm = static_cast<uint64_t>(-8)}),
              Def(ir::Instr{.op = ir::Opcode::kLoad,
                            .dst = kRegDefScratch,
                            .src = kRegShadowPtr},
                  /*safe=*/true),
              Def(ir::Instr{.op = ir::Opcode::kLoad,
                            .dst = kRegScratch,
                            .src = machine::Gpr::kRsp}),
              Def(ir::Instr{.op = ir::Opcode::kAluRR,
                            .dst = kRegDefScratch,
                            .src = kRegScratch,
                            .imm = 2 /* xor: zero iff equal */}),
              Def(ir::Instr{.op = ir::Opcode::kTrapIf}),
          };
          out.insert(out.end(), epilogue.begin(), epilogue.end());
          ++epilogues_;
        }
        out.push_back(instr);
      }
      block.instrs = std::move(out);
    }
  }
  return OkStatus();
}

}  // namespace memsentry::defenses
