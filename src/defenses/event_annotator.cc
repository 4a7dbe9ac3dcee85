#include "src/defenses/event_annotator.h"

#include "src/workloads/synth.h"

namespace memsentry::defenses {

Status EventAnnotatorPass::Run(ir::Module& module) {
  events_ = 0;
  const auto match = [this](const ir::Instr& instr) {
    return (kind_ == EventKind::kIndirectBranch && instr.op == ir::Opcode::kIndirectCall) ||
           (kind_ == EventKind::kSyscall && instr.op == ir::Opcode::kSyscall);
  };
  for (auto& func : module.functions) {
    for (auto& block : func.blocks) {
      // Count first: a block without events stays as it is, and the others
      // are rebuilt once, at their final size.
      size_t events = 0;
      for (const ir::Instr& instr : block.instrs) {
        events += match(instr);
      }
      if (events == 0) {
        continue;
      }
      std::vector<ir::Instr> out;
      out.reserve(block.instrs.size() + 2 * events);
      for (const ir::Instr& instr : block.instrs) {
        if (match(instr)) {
          // Consult the defense's metadata: one read of the safe region.
          out.push_back(ir::Instr{.op = ir::Opcode::kMovImm,
                                  .dst = workloads::kRegDefScratch,
                                  .imm = region_base_,
                                  .flags = ir::kFlagDefense});
          out.push_back(ir::Instr{.op = ir::Opcode::kLoad,
                                  .dst = workloads::kRegDefScratch,
                                  .src = workloads::kRegDefScratch,
                                  .flags = ir::kFlagDefense | ir::kFlagSafeAccess});
        }
        out.push_back(instr);
      }
      events_ += events;
      block.instrs = std::move(out);
    }
  }
  return OkStatus();
}

}  // namespace memsentry::defenses
