#include "src/sim/decoded.h"

#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_map>

#include "src/sim/process.h"

namespace memsentry::sim {
namespace {

// Instructions with statically known cycle contributions whose execution
// never redirects control flow on success; a maximal run of these becomes
// one fused µop (a superblock). kLoad/kStore joined the set in PR 7: their
// slot cost is static, their MMU access replays inline, and the executor
// bails out of the run on a grant miss or TLB-version tick (and on fault,
// with exact per-op bookkeeping).
bool Fusible(ir::Opcode op) {
  switch (op) {
    case ir::Opcode::kNop:
    case ir::Opcode::kMovImm:
    case ir::Opcode::kAddImm:
    case ir::Opcode::kAndImm:
    case ir::Opcode::kAluRR:
    case ir::Opcode::kLea:
    case ir::Opcode::kVecOp:
    case ir::Opcode::kLoad:
    case ir::Opcode::kStore:
      return true;
    default:
      return false;
  }
}

// Dispatch handler index for a singleton (non-fused) µop.
uint8_t HandlerFor(ir::Opcode op) {
  switch (op) {
    case ir::Opcode::kLoad:
      return kHLoad;
    case ir::Opcode::kStore:
      return kHStore;
    case ir::Opcode::kJmp:
      return kHJmp;
    case ir::Opcode::kCondBr:
      return kHCondBr;
    case ir::Opcode::kCall:
      return kHCall;
    case ir::Opcode::kIndirectCall:
      return kHIndirectCall;
    case ir::Opcode::kRet:
      return kHRet;
    case ir::Opcode::kHalt:
      return kHHalt;
    case ir::Opcode::kSyscall:
      return kHSyscall;
    case ir::Opcode::kMprotect:
      return kHMprotect;
    case ir::Opcode::kBndcu:
      return kHBndcu;
    case ir::Opcode::kBndcl:
      return kHBndcl;
    case ir::Opcode::kWrpkru:
      return kHWrpkru;
    case ir::Opcode::kRdpkru:
      return kHRdpkru;
    case ir::Opcode::kVmFunc:
      return kHVmFunc;
    case ir::Opcode::kVmCall:
      return kHVmCall;
    case ir::Opcode::kMFence:
      return kHMFence;
    case ir::Opcode::kAesCryptRegion:
      return kHAesCryptRegion;
    case ir::Opcode::kEnclaveEnter:
      return kHEnclaveEnter;
    case ir::Opcode::kEnclaveExit:
      return kHEnclaveExit;
    case ir::Opcode::kTrap:
      return kHTrap;
    case ir::Opcode::kTrapIf:
      return kHTrapIf;
    default:
      // Fusible opcodes never decode to singleton µops; treat an impossible
      // one as a guard so a decode bug faults instead of executing.
      return kHGuard;
  }
}

struct ResolvedCost {
  double cost = 0;
  double extra = 0;
  bool has_extra = false;
};

// The static cycle additions an instruction performs, in reference order:
// `cost` is always charged first; `extra` is a *second, separate* addition
// charged when `has_extra` (critical-path latency, ymm-reserve penalty,
// instrumentation clobber spills). Opcodes whose cost depends on runtime
// state (kSyscall's dune check, kAesCryptRegion's region size) resolve to
// zero here and are charged dynamically by the interpreter. The result
// depends only on the opcode and the instrumentation/critical flags.
ResolvedCost StaticCost(const ir::Instr& instr, const machine::CostModel& cost) {
  switch (instr.op) {
    case ir::Opcode::kNop:
    case ir::Opcode::kHalt:
      return {cost.nop_slot, 0, false};
    case ir::Opcode::kMovImm:
      return {instr.IsInstrumentation() ? cost.sfi_movabs_slot : cost.mov_imm_slot, 0, false};
    case ir::Opcode::kAddImm:
    case ir::Opcode::kAluRR:
      return {cost.alu_slot, 0, false};
    case ir::Opcode::kAndImm:
      return {cost.sfi_and_slot, cost.sfi_and_dep_latency, instr.IsCritical()};
    case ir::Opcode::kLea:
      return {cost.lea_slot, 0, false};
    case ir::Opcode::kVecOp:
      // The ymm-reserve penalty (imm * ymm_reserve_vec_penalty when
      // ymm_reserved) scales with the immediate, so the interpreter charges
      // it at run time as the second addition; keeping it out of the static
      // entry bounds the per-module cost table.
      return {cost.vector_slot, 0, false};
    case ir::Opcode::kLoad:
      return {cost.load_slot, 0, false};
    case ir::Opcode::kStore:
      return {cost.store_slot, 0, false};
    case ir::Opcode::kJmp:
    case ir::Opcode::kCondBr:
    case ir::Opcode::kTrapIf:
      return {cost.branch_slot, 0, false};
    case ir::Opcode::kCall:
    case ir::Opcode::kIndirectCall:
      return {cost.call_slot, 0, false};
    case ir::Opcode::kRet:
      return {cost.ret_slot, 0, false};
    case ir::Opcode::kSyscall:
      return {0, 0, false};  // dynamic: hypercall vs native syscall
    case ir::Opcode::kMprotect:
      return {cost.mprotect_call, 0, false};
    case ir::Opcode::kBndcu:
      return {cost.bndcu_slot, cost.bndcu_latency, instr.IsCritical()};
    case ir::Opcode::kBndcl:
      return {cost.bndcu_slot, cost.bndcl_pair_extra_latency, instr.IsCritical()};
    case ir::Opcode::kWrpkru:
      return {cost.wrpkru, cost.mpk_clobber_spills / 2.0, instr.IsInstrumentation()};
    case ir::Opcode::kRdpkru:
      return {cost.rdpkru, 0, false};
    case ir::Opcode::kVmFunc:
      return {cost.vmfunc, 0, false};
    case ir::Opcode::kVmCall:
      return {cost.vmcall, 0, false};
    case ir::Opcode::kMFence:
      return {20.0, 0, false};
    case ir::Opcode::kAesCryptRegion:
      return {0, 0, false};  // dynamic: region size and live-xmm count
    case ir::Opcode::kEnclaveEnter:
    case ir::Opcode::kEnclaveExit:
      return {cost.sgx_ecall_roundtrip / 2.0, 0, false};
    case ir::Opcode::kTrap:
      return {0, 0, false};
  }
  return {0, 0, false};
}

[[noreturn]] void DecodeDivergence(const char* what, int func, int32_t block, int32_t index) {
  std::fprintf(stderr, "memsentry: decode fast-path divergence: %s (f%d b%d i%d)\n", what, func,
               block, index);
  std::abort();
}

// False where the reference interpreter would fetch past the block's last
// instruction (unterminated blocks in unverified modules).
bool EndsTerminated(const std::vector<ir::Instr>& instrs) {
  return !instrs.empty() &&
         (instrs.back().IsTerminator() || instrs.back().op == ir::Opcode::kTrap);
}

// True when `imm` is the sign extension of its low 32 bits, i.e. fits
// RegOp::imm inline.
bool FitsInline(uint64_t imm) {
  return static_cast<uint64_t>(static_cast<int64_t>(static_cast<int32_t>(imm))) == imm;
}

// Interns static-cost entries for one module. Entries are a pure function of
// (opcode, instrumentation, critical, wide immediate), so a direct-mapped
// memo over that key answers almost every lookup without comparing entries.
class CostTable {
 public:
  explicit CostTable(const machine::CostModel& cost) : cost_(cost) { memo_.fill(-1); }

  uint8_t Intern(const ir::Instr& instr, bool wide_imm) {
    const size_t key = (static_cast<size_t>(instr.op) << 3) |
                       (instr.IsInstrumentation() ? 4u : 0u) | (instr.IsCritical() ? 2u : 0u) |
                       (wide_imm ? 1u : 0u);
    if (key >= memo_.size()) {
      std::abort();  // an opcode outside ir::Opcode
    }
    if (memo_[key] >= 0) {
      return static_cast<uint8_t>(memo_[key]);
    }
    const ResolvedCost rc = StaticCost(instr, cost_);
    const UopCost entry{rc.cost, rc.extra, rc.has_extra, instr.IsInstrumentation(), wide_imm};
    size_t index = 0;
    while (index < entries_.size() && !(entries_[index] == entry)) {
      ++index;
    }
    if (index == entries_.size()) {
      entries_.push_back(entry);  // at most one per memo key, so < 2^8
    }
    memo_[key] = static_cast<int16_t>(index);
    return static_cast<uint8_t>(index);
  }

  std::vector<UopCost> Take() const { return {entries_.begin(), entries_.end()}; }

 private:
  const machine::CostModel& cost_;
  std::array<int16_t, 32 * 8> memo_;
  std::vector<UopCost> entries_;
};

}  // namespace

std::shared_ptr<const DecodedModule> DecodedModule::Build(const ir::Module& module,
                                                          const Process& process) {
  auto dec = std::make_shared<DecodedModule>();
  dec->source_id = module.id();
  dec->module_version = module.version;
  dec->instr_count = module.InstrCount();
  dec->cost = process.machine().cost;
  dec->ymm_reserved = process.ymm_reserved();
  CostTable costs(dec->cost);
  std::vector<uint64_t> wide;                       // this function's pool
  std::unordered_map<uint64_t, uint32_t> wide_index;  // value -> pool index

  dec->functions.resize(module.functions.size());
  for (size_t f = 0; f < module.functions.size(); ++f) {
    const ir::Function& function = module.functions[f];
    DecodedFunction& df = dec->functions[f];
    const size_t num_blocks = function.blocks.size();

    // Counting pass: exact µop and RegOp totals, so each array is allocated
    // once at its final size.
    size_t num_uops = 0;
    size_t num_regops = 0;
    size_t num_checkpoints = 0;
    for (const ir::BasicBlock& block : function.blocks) {
      num_checkpoints += (block.instrs.size() + DecodedFunction::kSlotStride - 1) /
                         DecodedFunction::kSlotStride;
      bool in_run = false;
      for (const ir::Instr& instr : block.instrs) {
        const bool fusible = Fusible(instr.op);
        num_uops += (!fusible || !in_run) ? 1 : 0;
        num_regops += fusible ? 1 : 0;
        in_run = fusible;
      }
      num_uops += EndsTerminated(block.instrs) ? 0 : 1;  // the guard µop below
    }
    df.uops.reserve(num_uops);
    df.regops.reserve(num_regops);
    df.block_head.resize(num_blocks + 1);
    df.slot_base.resize(num_blocks);
    df.slot_index.reserve(num_checkpoints);
    wide.clear();
    wide_index.clear();

    for (size_t b = 0; b < num_blocks; ++b) {
      const auto& instrs = function.blocks[b].instrs;
      df.block_head[b] = static_cast<int32_t>(df.uops.size());
      df.slot_base[b] = static_cast<uint32_t>(df.slot_index.size());
      size_t i = 0;
      // Checkpoints: the µop about to be pushed covers every position from
      // `i` to the end of its run, so record it for each multiple of the
      // stride in that range.
      auto checkpoint = [&](size_t first, size_t last) {
        for (size_t pos = (first + DecodedFunction::kSlotStride - 1) /
                          DecodedFunction::kSlotStride * DecodedFunction::kSlotStride;
             pos < last; pos += DecodedFunction::kSlotStride) {
          df.slot_index.push_back(static_cast<int32_t>(df.uops.size()));
        }
      };
      while (i < instrs.size()) {
        if (Fusible(instrs[i].op)) {
          Uop u;
          u.handler = kHFused;
          u.block = static_cast<int32_t>(b);
          u.index = static_cast<int32_t>(i);
          u.target = static_cast<int32_t>(df.regops.size());  // fuse_start()
          uint32_t count = 0;
          while (i < instrs.size() && Fusible(instrs[i].op)) {
            const ir::Instr& instr = instrs[i];
            RegOp op;
            op.op = instr.op;
            op.dst = static_cast<uint8_t>(instr.dst);
            op.src = static_cast<uint8_t>(instr.src);
            const bool wide_imm = !FitsInline(instr.imm);
            op.cost = costs.Intern(instr, wide_imm);
            if (wide_imm) {
              const auto [it, inserted] =
                  wide_index.emplace(instr.imm, static_cast<uint32_t>(wide.size()));
              if (inserted) {
                wide.push_back(instr.imm);
              }
              op.imm = it->second;
            } else {
              op.imm = static_cast<uint32_t>(instr.imm);
            }
            df.regops.push_back(op);
            ++count;
            ++i;
          }
          u.fallthrough = static_cast<int32_t>(count);  // fuse_count()
          checkpoint(static_cast<size_t>(u.index), i);
          df.uops.push_back(u);
        } else {
          const ir::Instr& instr = instrs[i];
          Uop u;
          u.op = instr.op;
          u.handler = HandlerFor(instr.op);
          u.dst = static_cast<uint8_t>(instr.dst);
          u.src = static_cast<uint8_t>(instr.src);
          u.flags = instr.flags;
          u.cost = costs.Intern(instr, /*wide_imm=*/false);
          u.imm = instr.imm;
          u.target = instr.target;  // flat-index fixup for branches below
          u.block = static_cast<int32_t>(b);
          u.index = static_cast<int32_t>(i);
          checkpoint(i, i + 1);
          df.uops.push_back(u);
          ++i;
        }
      }
      // Where the reference interpreter would fetch past a block's last
      // instruction (unterminated blocks in unverified modules), plant a
      // guard µop that reproduces its #GP.
      if (!EndsTerminated(instrs)) {
        Uop guard;  // non-fused kNop == guard by convention
        guard.block = static_cast<int32_t>(b);
        guard.index = static_cast<int32_t>(instrs.size());
        df.uops.push_back(guard);
      }
    }
    df.block_head[num_blocks] = static_cast<int32_t>(df.uops.size());
    df.wide_imms.assign(wide.begin(), wide.end());
    // Resolve branch targets to flat µop indices. Out-of-range targets —
    // undefined behaviour in the reference interpreter — decode to -1 and
    // fault #GP if ever taken.
    for (Uop& u : df.uops) {
      if (u.op == ir::Opcode::kJmp || u.op == ir::Opcode::kCondBr) {
        const int32_t target_block = u.target;
        u.target = (target_block >= 0 && target_block < static_cast<int32_t>(num_blocks))
                       ? df.block_head[static_cast<size_t>(target_block)]
                       : -1;
        if (u.op == ir::Opcode::kCondBr) {
          const int32_t fall = u.block + 1;
          u.fallthrough =
              fall < static_cast<int32_t>(num_blocks) ? df.block_head[static_cast<size_t>(fall)] : -1;
        }
      }
    }
  }
  dec->costs = costs.Take();
  return dec;
}

bool DecodedModule::Matches(const ir::Module& module, const Process& process) const {
  return source_id == module.id() && module_version == module.version &&
         instr_count == module.InstrCount() && CostMatches(process);
}

bool DecodedModule::CostMatches(const Process& process) const {
  return ymm_reserved == process.ymm_reserved() &&
         std::memcmp(&cost, &process.machine().cost, sizeof(cost)) == 0;
}

size_t DecodedModule::bytes() const {
  size_t total = sizeof(*this) + functions.capacity() * sizeof(DecodedFunction) +
                 costs.capacity() * sizeof(UopCost);
  for (const DecodedFunction& df : functions) {
    total += df.uops.capacity() * sizeof(Uop) + df.regops.capacity() * sizeof(RegOp) +
             df.wide_imms.capacity() * sizeof(uint64_t) +
             df.block_head.capacity() * sizeof(int32_t) +
             df.slot_base.capacity() * sizeof(uint32_t) +
             df.slot_index.capacity() * sizeof(int32_t);
  }
  return total;
}

void CheckUop(const ir::Module& module, int func, const DecodedModule& dec, const Uop& uop,
              const machine::CostModel& cost) {
  const auto& blocks = module.functions[static_cast<size_t>(func)].blocks;
  if (uop.block < 0 || uop.block >= static_cast<int32_t>(blocks.size())) {
    DecodeDivergence("µop block out of range", func, uop.block, uop.index);
  }
  const auto& instrs = blocks[static_cast<size_t>(uop.block)].instrs;
  if (!uop.fused() && uop.op == ir::Opcode::kNop) {
    // Synthetic block-end guard: must sit exactly one past the last
    // instruction of an unterminated block.
    if (uop.index != static_cast<int32_t>(instrs.size())) {
      DecodeDivergence("guard µop not at block end", func, uop.block, uop.index);
    }
    if (uop.handler != kHGuard) {
      DecodeDivergence("guard µop with non-guard handler", func, uop.block, uop.index);
    }
    return;
  }
  if (uop.index < 0 || uop.index >= static_cast<int32_t>(instrs.size())) {
    DecodeDivergence("µop index out of range", func, uop.block, uop.index);
  }
  const ir::Instr& instr = instrs[static_cast<size_t>(uop.index)];
  if (uop.fused()) {
    if (!Fusible(instr.op)) {
      DecodeDivergence("fused run starts at a non-fusible instruction", func, uop.block, uop.index);
    }
    // Every op of the run is checked individually; here the run itself must
    // stay inside its block, since the ops' positions derive from it.
    if (uop.fuse_count() == 0 ||
        static_cast<size_t>(uop.index) + uop.fuse_count() > instrs.size()) {
      DecodeDivergence("fused run leaves its block", func, uop.block, uop.index);
    }
    return;
  }
  if (instr.op != uop.op || static_cast<uint8_t>(instr.dst) != uop.dst ||
      static_cast<uint8_t>(instr.src) != uop.src || instr.imm != uop.imm ||
      instr.flags != uop.flags) {
    DecodeDivergence("µop fields differ from source instruction", func, uop.block, uop.index);
  }
  if (uop.handler != HandlerFor(instr.op)) {
    DecodeDivergence("µop handler differs from opcode's", func, uop.block, uop.index);
  }
  if (uop.cost >= dec.costs.size()) {
    DecodeDivergence("µop cost index out of range", func, uop.block, uop.index);
  }
  const UopCost& entry = dec.costs[uop.cost];
  const ResolvedCost rc = StaticCost(instr, cost);
  if (rc.cost != entry.cost || rc.has_extra != entry.has_extra ||
      (rc.has_extra && rc.extra != entry.extra)) {
    DecodeDivergence("µop pre-resolved cost differs from cost model", func, uop.block, uop.index);
  }
}

void CheckRegOp(const ir::Module& module, int func, const DecodedModule& dec,
                const DecodedFunction& df, const RegOp& op, int32_t block, int32_t index,
                const machine::CostModel& cost, bool ymm_reserved) {
  const auto& blocks = module.functions[static_cast<size_t>(func)].blocks;
  if (block < 0 || block >= static_cast<int32_t>(blocks.size())) {
    DecodeDivergence("RegOp block out of range", func, block, index);
  }
  const auto& instrs = blocks[static_cast<size_t>(block)].instrs;
  if (index < 0 || index >= static_cast<int32_t>(instrs.size())) {
    DecodeDivergence("RegOp index out of range", func, block, index);
  }
  if (op.cost >= dec.costs.size()) {
    DecodeDivergence("RegOp cost index out of range", func, block, index);
  }
  const UopCost& entry = dec.costs[op.cost];
  if (entry.wide_imm && op.imm >= df.wide_imms.size()) {
    DecodeDivergence("RegOp wide-immediate index out of range", func, block, index);
  }
  const ir::Instr& instr = instrs[static_cast<size_t>(index)];
  if (instr.op != op.op || static_cast<uint8_t>(instr.dst) != op.dst ||
      static_cast<uint8_t>(instr.src) != op.src ||
      instr.imm != RegOpImm(op, entry, df.wide_imms.data()) ||
      instr.IsInstrumentation() != entry.instrumentation) {
    DecodeDivergence("RegOp fields differ from source instruction", func, block, index);
  }
  // The decode's ymm reservation must be the live one: kVecOp's penalty is
  // charged from it at run time.
  const ResolvedCost rc = StaticCost(instr, cost);
  if (rc.cost != entry.cost || rc.has_extra != entry.has_extra ||
      (rc.has_extra && rc.extra != entry.extra) || dec.ymm_reserved != ymm_reserved) {
    DecodeDivergence("RegOp pre-resolved cost differs from cost model", func, block, index);
  }
}

}  // namespace memsentry::sim
