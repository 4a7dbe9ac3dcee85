// The MemSentry IR: a small, explicit instruction set standing in for LLVM IR
// at the level MemSentry cares about — loads, stores, address arithmetic,
// calls/returns, indirect branches, syscalls, and the hardware-feature
// instructions the isolation passes insert (bndcu, and-mask, wrpkru, vmfunc,
// AES region crypt, enclave crossings).
#ifndef MEMSENTRY_SRC_IR_INSTR_H_
#define MEMSENTRY_SRC_IR_INSTR_H_

#include <cstdint>
#include <initializer_list>

#include "src/machine/registers.h"

namespace memsentry::ir {

enum class Opcode : uint8_t {
  kNop = 0,
  // Data movement / arithmetic.
  kMovImm,   // dst = imm
  kAddImm,   // dst += (int64)imm; sets zero_flag = (dst == 0)
  kAndImm,   // dst &= imm (generic mask; SFI's mask is this + kFlagInstrumentation)
  kAluRR,    // dst = dst <op imm> src; op: 0 add, 1 sub, 2 xor, 3 mul; sets zero_flag
  kLea,      // dst = src + (int64)imm (address computation, no memory touch)
  kVecOp,    // xmm/ymm vector/FP work; imm = register-pressure class (0..3)
  // Memory.
  kLoad,   // dst = mem64[src]
  kStore,  // mem64[dst] = src   (address register first, like AT&T mov %src,(%dst))
  // Control flow (block terminators except kCall/kIndirectCall/kSyscall).
  kJmp,           // goto block `target`
  kCondBr,        // if !zero_flag goto block `target`, else fall through
  kCall,          // call function `target`
  kIndirectCall,  // call function whose index is in src; imm = callsite id (CFI)
  kRet,
  kHalt,
  // Kernel interface.
  kSyscall,   // imm = syscall number
  kMprotect,  // imm = 1 to open (RW) the safe region, 0 to close; the baseline technique
  // MPX.
  kBndcu,  // fault if src > bnd[imm].upper
  kBndcl,  // fault if src < bnd[imm].lower
  // MPK.
  kWrpkru,  // pkru = (uint32)imm; serializing
  kRdpkru,  // dst = pkru
  // VT-x.
  kVmFunc,  // EPTP-switch to index imm (VMFUNC leaf 0)
  kVmCall,  // hypercall: imm = nr, a0 = rdi, a1 = rsi
  kMFence,
  // AES-NI crypt technique: decrypt-use-reencrypt of the registered safe
  // region whose base is in src; imm = size in bytes, target = live xmm
  // registers the inlined AES sequence must save/restore.
  kAesCryptRegion,
  // SGX.
  kEnclaveEnter,  // ECALL: imm = entry id
  kEnclaveExit,   // EEXIT
  // Defense-internal.
  kTrap,    // defense detected a violation; halts the program with trapped=true
  kTrapIf,  // traps when zero_flag is clear (defense invariant checks)
};

const char* OpcodeName(Opcode op);

// A set of opcodes as one bit mask, for scans that must skip the common
// opcodes with one predictable test rather than a switch per instruction.
constexpr uint64_t OpcodeMask(std::initializer_list<Opcode> ops) {
  uint64_t mask = 0;
  for (Opcode op : ops) {
    mask |= uint64_t{1} << static_cast<uint8_t>(op);
  }
  return mask;
}
constexpr bool InOpcodeMask(uint64_t mask, Opcode op) {
  const auto bit = static_cast<uint8_t>(op);
  return bit < 64 && ((mask >> bit) & 1) != 0;
}
static_assert(static_cast<uint8_t>(Opcode::kTrapIf) < 64, "opcode masks are 64 bits wide");

// Instruction flags.
inline constexpr uint8_t kFlagInstrumentation = 1 << 0;  // inserted by a MemSentry pass
inline constexpr uint8_t kFlagSafeAccess = 1 << 1;       // saferegion_access(): exempt / wrapped
inline constexpr uint8_t kFlagCritical = 1 << 2;         // result feeds an address: charge latency
inline constexpr uint8_t kFlagDefense = 1 << 3;          // inserted by a defense pass

struct Instr {
  Opcode op = Opcode::kNop;
  machine::Gpr dst = machine::Gpr::kRax;
  machine::Gpr src = machine::Gpr::kRax;
  uint64_t imm = 0;
  int32_t target = 0;  // block index (branches) or function index (calls)
  uint8_t flags = 0;

  bool IsInstrumentation() const { return (flags & kFlagInstrumentation) != 0; }
  bool IsSafeAccess() const { return (flags & kFlagSafeAccess) != 0; }
  bool IsCritical() const { return (flags & kFlagCritical) != 0; }
  bool IsDefense() const { return (flags & kFlagDefense) != 0; }

  bool IsTerminator() const {
    return op == Opcode::kJmp || op == Opcode::kCondBr || op == Opcode::kRet ||
           op == Opcode::kHalt;
  }
  bool IsMemoryAccess() const { return op == Opcode::kLoad || op == Opcode::kStore; }
};

}  // namespace memsentry::ir

#endif  // MEMSENTRY_SRC_IR_INSTR_H_
