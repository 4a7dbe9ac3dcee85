#include "src/core/gate_audit.h"

#include "src/mpk/mpk.h"

namespace memsentry::core {
namespace {

enum class GateKind { kNotAGate, kOpen, kClose, kToggle };

GateKind Classify(const ir::Instr& instr) {
  switch (instr.op) {
    case ir::Opcode::kWrpkru:
      return instr.imm == mpk::kOpenPkru ? GateKind::kOpen : GateKind::kClose;
    case ir::Opcode::kVmFunc:
      return instr.imm != 0 ? GateKind::kOpen : GateKind::kClose;
    case ir::Opcode::kEnclaveEnter:
      return GateKind::kOpen;
    case ir::Opcode::kEnclaveExit:
      return GateKind::kClose;
    case ir::Opcode::kMprotect:
      return instr.imm != 0 ? GateKind::kOpen : GateKind::kClose;
    case ir::Opcode::kAesCryptRegion:
      return GateKind::kToggle;
    default:
      return GateKind::kNotAGate;
  }
}

// The opcodes Classify can call a gate.
constexpr uint64_t kGateOpcodes = ir::OpcodeMask(
    {ir::Opcode::kWrpkru, ir::Opcode::kVmFunc, ir::Opcode::kEnclaveEnter,
     ir::Opcode::kEnclaveExit, ir::Opcode::kMprotect, ir::Opcode::kAesCryptRegion});

}  // namespace

GateAuditResult AuditDomainGates(const ir::Module& module) {
  GateAuditResult result;
  for (int fi = 0; fi < static_cast<int>(module.functions.size()); ++fi) {
    const ir::Function& func = module.functions[static_cast<size_t>(fi)];
    for (int bi = 0; bi < static_cast<int>(func.blocks.size()); ++bi) {
      const auto& instrs = func.blocks[static_cast<size_t>(bi)].instrs;
      bool domain_open = false;
      int crypt_toggles = 0;
      for (int ii = 0; ii < static_cast<int>(instrs.size()); ++ii) {
        const ir::Instr& instr = instrs[static_cast<size_t>(ii)];
        if (!ir::InOpcodeMask(kGateOpcodes, instr.op)) {
          continue;
        }
        const GateKind kind = Classify(instr);
        if (kind == GateKind::kNotAGate) {
          continue;
        }
        ++result.gates_checked;
        const ir::InstrRef ref{fi, bi, ii};
        if (!instr.IsInstrumentation()) {
          result.findings.push_back(
              {ref, "domain-switch instruction not inserted by MemSentry: an "
                    "attacker-reachable gate"});
        }
        switch (kind) {
          case GateKind::kOpen:
            if (domain_open) {
              result.findings.push_back({ref, "open while sensitive domain already open"});
            }
            domain_open = true;
            break;
          case GateKind::kClose:
            if (!domain_open) {
              result.findings.push_back({ref, "close without a matching open"});
            }
            domain_open = false;
            break;
          case GateKind::kToggle:
            ++crypt_toggles;
            break;
          case GateKind::kNotAGate:
            break;
        }
      }
      if (domain_open) {
        result.findings.push_back(
            {ir::InstrRef{fi, bi, static_cast<int>(instrs.size()) - 1},
             "sensitive domain left open across a block boundary"});
      }
      if (crypt_toggles % 2 != 0) {
        result.findings.push_back(
            {ir::InstrRef{fi, bi, static_cast<int>(instrs.size()) - 1},
             "unbalanced crypt toggles: region state diverges across this block"});
      }
    }
  }
  return result;
}

}  // namespace memsentry::core
