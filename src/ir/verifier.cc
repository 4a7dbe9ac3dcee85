#include "src/ir/verifier.h"

#include <string>

namespace memsentry::ir {
namespace {

std::string Where(const Function& f, int block, int index) {
  return "in " + f.name + " block " + std::to_string(block) + " instr " + std::to_string(index);
}

}  // namespace

// Terminators, plus every opcode whose operands the switch below checks.
constexpr uint64_t kChecked =
    OpcodeMask({Opcode::kJmp, Opcode::kCondBr, Opcode::kRet, Opcode::kHalt, Opcode::kCall,
                Opcode::kWrpkru, Opcode::kBndcu, Opcode::kBndcl});

Status Verify(const Module& module) {
  if (module.functions.empty()) {
    return InvalidArgument("module has no functions");
  }
  if (module.entry < 0 || module.entry >= static_cast<int>(module.functions.size())) {
    return InvalidArgument("invalid entry function index");
  }
  const int num_functions = static_cast<int>(module.functions.size());
  for (const Function& f : module.functions) {
    if (f.blocks.empty()) {
      return InvalidArgument("function " + f.name + " has no blocks");
    }
    const int num_blocks = static_cast<int>(f.blocks.size());
    for (int b = 0; b < num_blocks; ++b) {
      const auto& instrs = f.blocks[static_cast<size_t>(b)].instrs;
      if (instrs.empty()) {
        return InvalidArgument("empty block " + Where(f, b, 0));
      }
      for (int i = 0; i < static_cast<int>(instrs.size()); ++i) {
        const Instr& instr = instrs[static_cast<size_t>(i)];
        const bool last = i == static_cast<int>(instrs.size()) - 1;
        if (!last && !InOpcodeMask(kChecked, instr.op)) {
          continue;  // neither a terminator nor an operand to check
        }
        if (instr.IsTerminator() != last) {
          return InvalidArgument(std::string(instr.IsTerminator() ? "terminator not at block end "
                                                                  : "block does not end in terminator ") +
                                 Where(f, b, i));
        }
        switch (instr.op) {
          case Opcode::kJmp:
          case Opcode::kCondBr:
            if (instr.target < 0 || instr.target >= num_blocks) {
              return InvalidArgument("branch target out of range " + Where(f, b, i));
            }
            // A fall-through CondBr needs a next block.
            if (instr.op == Opcode::kCondBr && b + 1 >= num_blocks) {
              return InvalidArgument("cond-br fall-through off function end " + Where(f, b, i));
            }
            break;
          case Opcode::kCall:
            if (instr.target < 0 || instr.target >= num_functions) {
              return InvalidArgument("call target out of range " + Where(f, b, i));
            }
            break;
          case Opcode::kWrpkru:
            if (instr.imm > 0xffffffffULL) {
              return InvalidArgument("wrpkru immediate exceeds 32 bits " + Where(f, b, i));
            }
            break;
          case Opcode::kBndcu:
          case Opcode::kBndcl:
            if (instr.imm >= machine::kNumBnds) {
              return InvalidArgument("bound register index out of range " + Where(f, b, i));
            }
            break;
          default:
            break;
        }
      }
    }
  }
  return OkStatus();
}

}  // namespace memsentry::ir
