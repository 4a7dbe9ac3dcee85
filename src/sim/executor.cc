#include "src/sim/executor.h"

#include <cassert>
#include <cstdlib>
#include <vector>

#include "src/base/fastpath.h"
#include "src/mpk/mpk.h"
#include "src/mpx/mpx.h"
#include "src/sim/decode_cache.h"

// Computed-goto threaded dispatch (the "label as value" extension) is the
// default on GCC/Clang; -DMEMSENTRY_THREADED_DISPATCH=0 (or a compiler
// without the extension) falls back to the portable switch dispatcher.
// Both drive the exact same handler bodies through the OP()/DISPATCH()
// macros below, so the choice affects only branch layout, never results.
#ifndef MEMSENTRY_THREADED_DISPATCH
#define MEMSENTRY_THREADED_DISPATCH 1
#endif
#if MEMSENTRY_THREADED_DISPATCH && (defined(__GNUC__) || defined(__clang__))
#define MEMSENTRY_USE_THREADED_DISPATCH 1
#else
#define MEMSENTRY_USE_THREADED_DISPATCH 0
#endif

// Forces the per-access helpers into their call sites; they sit on the
// hottest path (once per modeled load/store). The fused-run kernel is kept
// out of line instead (see RunFusedOps).
#if defined(__GNUC__) || defined(__clang__)
#define MEMSENTRY_HOT_INLINE __attribute__((always_inline))
#define MEMSENTRY_NOINLINE __attribute__((noinline))
#else
#define MEMSENTRY_HOT_INLINE
#define MEMSENTRY_NOINLINE
#endif

namespace memsentry::sim {
namespace {

// Return addresses pushed on the simulated stack encode an instruction
// position behind a tag; corrupting one either produces an invalid decode
// (#GP on ret) or — if the attacker forges a valid encoding — a control-flow
// hijack, both observable by tests.
inline constexpr uint64_t kRaTag = 0xCA11ULL << 48;
inline constexpr uint64_t kRaTagMask = 0xFFFFULL << 48;

uint64_t EncodeRa(int func, int block, int index) {
  return kRaTag | (static_cast<uint64_t>(func & 0xfff) << 36) |
         (static_cast<uint64_t>(block & 0x3ffff) << 18) | static_cast<uint64_t>(index & 0x3ffff);
}

bool DecodeRa(uint64_t value, int* func, int* block, int* index) {
  if ((value & kRaTagMask) != kRaTag) {
    return false;
  }
  *func = static_cast<int>((value >> 36) & 0xfff);
  *block = static_cast<int>((value >> 18) & 0x3ffff);
  *index = static_cast<int>(value & 0x3ffff);
  return true;
}

struct Position {
  int func = 0;
  int block = 0;
  int index = 0;
};

// What ended a fused run: its last op, a memory op that left the grant-hit
// path (the rest of the run is re-admitted from the dispatch loop), or a
// fault.
enum class FusedExit : uint8_t { kEnd, kBail, kFault };

struct FusedOutcome {
  FusedExit exit;
  uint64_t executed;  // ops completed, counting a bailing or faulting op
};

// What the decoded interpreter's memory path and fused-run kernel read that
// is fixed for one RunDecoded call.
struct DecodedEnv {
  const ir::Module& module;
  const DecodedModule& dec;
  Process& process;
  machine::RegisterFile& regs;
  machine::Mmu& mmu;
  machine::PhysicalMemory& pmem;
  const machine::CostModel& cost;
  bool record_safe_accesses;
};

// The grant-miss half of DecodedAccess: Mmu::Read64/Write64, which probe
// the grant again, count the miss and take the slow path. Out of line, as
// is RecordSafeAccess, so the callers' frames hold no FaultOr and no
// exception cleanup: with only plain calls on its cold paths, GCC keeps a
// caller's double accumulators in registers and saves them around those
// calls alone.
template <base::FastPathMode kMode>
MEMSENTRY_NOINLINE bool MissedAccess(const DecodedEnv& env, VirtAddr va,
                                     machine::AccessType access, uint64_t* value,
                                     Cycles* access_cycles, machine::Fault* fault) {
  if (access == machine::AccessType::kRead) {
    auto r = env.mmu.Read64(va, env.regs.pkru, access_cycles, kMode);
    if (!r.ok()) {
      *fault = r.fault();
      return false;
    }
    *value = r.value();
    return true;
  }
  auto w = env.mmu.Write64(va, *value, env.regs.pkru, access_cycles, kMode);
  if (!w.ok()) {
    *fault = w.fault();
    return false;
  }
  return true;
}

// Safe-access profiling (RunConfig::record_safe_accesses) of one access.
MEMSENTRY_NOINLINE void RecordSafeAccess(const DecodedEnv& env, VirtAddr va, RunResult& result,
                                         uint64_t ref) {
  if (env.process.InSafeRegion(va)) {
    result.safe_access_refs.insert(ref);
  }
}

// Validates, prices (into `cycles`) and performs one data access of the
// decoded interpreter, with the same effects, additions and fault payloads
// as RunReference's data_access. A grant hit is served inline: a read adds
// LoadCost(level), a write adds nothing (the reference adds the write's
// access cycles, +0.0, which is exact to drop: see DESIGN.md §9). A miss
// goes through MissedAccess; *missed tells the caller. `enclave` is the
// process's enclave; `ref` the access's PackRef position for safe-access
// profiling. The branch hints keep every call off the likely path.
template <base::FastPathMode kMode>
MEMSENTRY_HOT_INLINE inline bool DecodedAccess(const DecodedEnv& env,
                                               const sgx::Enclave* enclave, VirtAddr va,
                                               machine::AccessType access, uint64_t* value,
                                               Cycles& cycles, bool* missed,
                                               machine::Fault* fault, RunResult& result,
                                               uint64_t ref) {
  if (enclave != nullptr) [[unlikely]] {
    if (!enclave->AccessAllowed(va)) {
      *fault = machine::Fault{machine::FaultType::kEnclaveAccess, va, access};
      return false;
    }
  }
  machine::Mmu::GrantedAccess granted;
  if (env.mmu.GrantHit(va, access, env.regs.pkru, kMode, &granted)) [[likely]] {
    if (access == machine::AccessType::kRead) {
      cycles += env.cost.LoadCost(granted.level);
      *value = env.pmem.Read64(granted.phys);
    } else {
      env.pmem.Write64(granted.phys, *value);
    }
  } else {
    *missed = true;
    // 0.0 + x == x, so adding the access's own total afterwards is the
    // reference's single addition.
    Cycles access_cycles = 0;
    if (!MissedAccess<kMode>(env, va, access, value, &access_cycles, fault)) {
      return false;
    }
    cycles += access_cycles;
  }
  if (env.record_safe_accesses) [[unlikely]] {
    RecordSafeAccess(env, va, result, ref);
  }
  return true;
}

// The fused-run kernel: replays ops[0, run) of one fused µop in function
// `func`, where ops[n] is source instruction (block, first_index + n).
// `cycles`, `instrumentation_cycles`, `instrumentation_instrs`, `loads` and
// `stores` live in locals for the whole run and are written back to
// `result` at every exit, so the double-add chain stays in a register; the
// additions themselves are the reference interpreter's, operand for
// operand and in order. Adds the completed ops to result.instructions.
//
// Grant-stability admission: fused memory ops ride the MMU grant cache.
// The moment an op's verdict misses (which is also the only way the TLB
// version can tick inside a run), the run bails back to the dispatch loop:
// the op that broke stability has already completed through the full slow
// path with reference bookkeeping, and dispatch re-admits the remainder as
// a fresh run against the updated translation state. Out of line so the
// accumulators get the kernel's registers, not the dispatch loop's.
template <bool kCheck>
MEMSENTRY_NOINLINE FusedOutcome RunFusedOps(const DecodedEnv& env, int func,
                                            const DecodedFunction& df, const RegOp* ops,
                                            uint64_t run, int32_t block, int32_t first_index,
                                            RunResult& result, machine::Fault* fault) {
  constexpr base::FastPathMode kMode =
      kCheck ? base::FastPathMode::kCheck : base::FastPathMode::kOn;
  machine::RegisterFile& regs = env.regs;
  const machine::CostModel& cost = env.cost;
  const UopCost* const costs = env.dec.costs.data();
  const uint64_t* const wide = df.wide_imms.data();
  const bool ymm_reserved = env.dec.ymm_reserved;
  // Hoisted per run: no fused op creates, enters or leaves an enclave.
  const sgx::Enclave* const enclave = env.process.enclave();

  Cycles cycles = result.cycles;
  Cycles instrumentation_cycles = result.instrumentation_cycles;
  uint64_t instrumentation_instrs = result.instrumentation_instrs;
  uint64_t loads = result.loads;
  uint64_t stores = result.stores;
  FusedExit exit = FusedExit::kEnd;
  uint64_t n = 0;
  for (; n < run; ++n) {
    const RegOp& r = ops[n];
    // This op's source index; only checks and safe-access profiling read it.
    const int32_t index = first_index + static_cast<int32_t>(n);
    if constexpr (kCheck) {
      CheckRegOp(env.module, func, env.dec, df, r, block, index, cost,
                 env.process.ymm_reserved());
    }
    const UopCost& c = costs[r.cost];
    const Cycles cycles_before = cycles;
    // Static cost first (slot, then extra): the same additions the
    // reference interpreter performs, in the same order. Memory ops then
    // append their MMU pricing, also reference-order.
    cycles += c.cost;
    if (c.has_extra) {
      cycles += c.extra;
    }
    bool missed = false;
    switch (r.op) {
      case ir::Opcode::kNop:
        break;
      case ir::Opcode::kVecOp:
        // The ymm-reserve penalty scales with the immediate, so it is
        // charged here rather than pre-resolved: still the second
        // addition, as in the reference.
        if (ymm_reserved) {
          cycles += static_cast<double>(RegOpImm(r, c, wide)) * cost.ymm_reserve_vec_penalty;
        }
        break;
      case ir::Opcode::kMovImm:
        regs[static_cast<machine::Gpr>(r.dst)] = RegOpImm(r, c, wide);
        break;
      case ir::Opcode::kAddImm: {
        uint64_t& dst = regs[static_cast<machine::Gpr>(r.dst)];
        dst += static_cast<int64_t>(RegOpImm(r, c, wide));
        regs.zero_flag = dst == 0;
        break;
      }
      case ir::Opcode::kAndImm:
        regs[static_cast<machine::Gpr>(r.dst)] &= RegOpImm(r, c, wide);
        break;
      case ir::Opcode::kAluRR: {
        uint64_t& dst = regs[static_cast<machine::Gpr>(r.dst)];
        const uint64_t src = regs[static_cast<machine::Gpr>(r.src)];
        // The ALU kind is imm & 3; an inline immediate keeps its low bits.
        switch (RegOpImm(r, c, wide) & 3) {
          case 0:
            dst += src;
            break;
          case 1:
            dst -= src;
            break;
          case 2:
            dst ^= src;
            break;
          case 3:
            dst *= src;
            break;
        }
        regs.zero_flag = dst == 0;
        break;
      }
      case ir::Opcode::kLea:
        regs[static_cast<machine::Gpr>(r.dst)] =
            regs[static_cast<machine::Gpr>(r.src)] + static_cast<int64_t>(RegOpImm(r, c, wide));
        break;
      case ir::Opcode::kLoad: {
        ++loads;
        uint64_t value = 0;
        if (!DecodedAccess<kMode>(env, enclave, regs[static_cast<machine::Gpr>(r.src)],
                                  machine::AccessType::kRead, &value, cycles, &missed, fault,
                                  result, PackRef(func, block, index))) {
          exit = FusedExit::kFault;
        } else {
          regs[static_cast<machine::Gpr>(r.dst)] = value;
        }
        break;
      }
      case ir::Opcode::kStore: {
        ++stores;
        uint64_t value = regs[static_cast<machine::Gpr>(r.src)];
        if (!DecodedAccess<kMode>(env, enclave, regs[static_cast<machine::Gpr>(r.dst)],
                                  machine::AccessType::kWrite, &value, cycles, &missed, fault,
                                  result, PackRef(func, block, index))) {
          exit = FusedExit::kFault;
        }
        break;
      }
      default:
        assert(false && "non-fusible op inside a fused run");
        std::abort();
    }
    if (exit == FusedExit::kFault) {
      ++n;  // the faulting op counts, as in the reference; it is not attributed
      break;
    }
    if (c.instrumentation) {
      ++instrumentation_instrs;
      instrumentation_cycles += cycles - cycles_before;
    }
    if (missed && n + 1 < run) {
      ++n;  // this op completed (via the slow path); count it and bail
      exit = FusedExit::kBail;
      break;
    }
  }
  result.cycles = cycles;
  result.instrumentation_cycles = instrumentation_cycles;
  result.instrumentation_instrs = instrumentation_instrs;
  result.loads = loads;
  result.stores = stores;
  result.instructions += n;
  return {exit, n};
}

}  // namespace

RunResult Executor::Run(const RunConfig& config) {
  const base::FastPathMode mode = base::GetFastPathMode();
  if (mode == base::FastPathMode::kOff) {
    return RunReference(config);
  }
  EnsureDecoded();
  return mode == base::FastPathMode::kCheck ? RunDecoded<true>(config) : RunDecoded<false>(config);
}

void Executor::EnsureDecoded() {
  if (decoded_ != nullptr) {
    if (decoded_for_ == decoded_.get() && decoded_for_id_ == module_->id() &&
        decoded_for_version_ == module_->version &&
        decoded_->instr_count == module_->InstrCount() && decoded_->CostMatches(*process_)) {
      return;  // revalidated without re-digesting the module
    }
    if (decoded_->Matches(*module_, *process_)) {
      // A decode handed in via SetDecoded that was built from this very
      // module state; pin the cheap revalidation to it.
      decoded_for_ = decoded_.get();
      decoded_for_id_ = module_->id();
      decoded_for_version_ = module_->version;
      return;
    }
  }
  decoded_ = DecodeCache::Global().Get(*module_, *process_);
  decoded_for_ = decoded_.get();
  decoded_for_id_ = module_->id();
  decoded_for_version_ = module_->version;
}

RunResult Executor::RunReference(const RunConfig& config) {
  RunResult result;
  auto& regs = process_->regs();
  auto& mmu = process_->mmu();
  auto& functions = module_->functions;

  Position pos{module_->entry, 0, 0};
  int call_depth = 0;

  auto fault_out = [&](const machine::Fault& fault) {
    result.fault = fault;
    return result;
  };

  // Profiling flag hoisted out of the per-access path: data_access runs for
  // every load/store, and reading a loop-invariant local lets the compiler
  // keep it in a register instead of reloading config each access.
  const bool record_safe_accesses = config.record_safe_accesses;

  // Validates + prices + performs one data access; returns false on fault.
  auto data_access = [&](VirtAddr va, machine::AccessType access, uint64_t* value,
                         machine::Fault* fault) -> bool {
    // SGX rule: enclave pages are untouchable from outside the enclave.
    if (process_->enclave() != nullptr && !process_->enclave()->AccessAllowed(va)) {
      *fault = machine::Fault{machine::FaultType::kEnclaveAccess, va, access};
      return false;
    }
    if (access == machine::AccessType::kRead) {
      auto r = mmu.Read64(va, regs.pkru, &result.cycles);
      if (!r.ok()) {
        *fault = r.fault();
        return false;
      }
      *value = r.value();
    } else {
      auto w = mmu.Write64(va, *value, regs.pkru, &result.cycles);
      if (!w.ok()) {
        *fault = w.fault();
        return false;
      }
    }
    if (record_safe_accesses && process_->InSafeRegion(va)) {
      result.safe_access_refs.insert(PackRef(pos.func, pos.block, pos.index));
    }
    return true;
  };

  while (result.instructions < config.max_instructions) {
    const auto& func = functions[static_cast<size_t>(pos.func)];
    const auto& block = func.blocks[static_cast<size_t>(pos.block)];
    if (pos.index >= static_cast<int>(block.instrs.size())) {
      // Structurally impossible after verification; guard anyway.
      return fault_out({machine::FaultType::kGeneralProtection, 0, machine::AccessType::kExecute});
    }
    const ir::Instr& instr = block.instrs[static_cast<size_t>(pos.index)];
    ++result.instructions;
    const Cycles cycles_before = result.cycles;
    bool advance = true;

    switch (instr.op) {
      case ir::Opcode::kNop:
        result.cycles += cost_->nop_slot;
        break;
      case ir::Opcode::kMovImm:
        regs[instr.dst] = instr.imm;
        result.cycles += instr.IsInstrumentation() ? cost_->sfi_movabs_slot : cost_->mov_imm_slot;
        break;
      case ir::Opcode::kAddImm:
        regs[instr.dst] += static_cast<int64_t>(instr.imm);
        regs.zero_flag = regs[instr.dst] == 0;
        result.cycles += cost_->alu_slot;
        break;
      case ir::Opcode::kAndImm:
        regs[instr.dst] &= instr.imm;
        result.cycles += cost_->sfi_and_slot;
        if (instr.IsCritical()) {
          result.cycles += cost_->sfi_and_dep_latency;
        }
        break;
      case ir::Opcode::kAluRR: {
        uint64_t& dst = regs[instr.dst];
        const uint64_t src = regs[instr.src];
        switch (instr.imm & 3) {
          case 0:
            dst += src;
            break;
          case 1:
            dst -= src;
            break;
          case 2:
            dst ^= src;
            break;
          case 3:
            dst *= src;
            break;
        }
        regs.zero_flag = dst == 0;
        result.cycles += cost_->alu_slot;
        break;
      }
      case ir::Opcode::kLea:
        regs[instr.dst] = regs[instr.src] + static_cast<int64_t>(instr.imm);
        result.cycles += cost_->lea_slot;
        break;
      case ir::Opcode::kVecOp:
        result.cycles += cost_->vector_slot;
        if (process_->ymm_reserved()) {
          result.cycles += static_cast<double>(instr.imm) * cost_->ymm_reserve_vec_penalty;
        }
        break;
      case ir::Opcode::kLoad: {
        ++result.loads;
        result.cycles += cost_->load_slot;
        uint64_t value = 0;
        machine::Fault fault;
        if (!data_access(regs[instr.src], machine::AccessType::kRead, &value, &fault)) {
          return fault_out(fault);
        }
        regs[instr.dst] = value;
        break;
      }
      case ir::Opcode::kStore: {
        ++result.stores;
        result.cycles += cost_->store_slot;
        uint64_t value = regs[instr.src];
        machine::Fault fault;
        if (!data_access(regs[instr.dst], machine::AccessType::kWrite, &value, &fault)) {
          return fault_out(fault);
        }
        break;
      }
      case ir::Opcode::kJmp:
        result.cycles += cost_->branch_slot;
        mpx::OnLegacyBranch(regs);  // no-op when BNDPRESERVE is set
        pos.block = instr.target;
        pos.index = 0;
        advance = false;
        break;
      case ir::Opcode::kCondBr:
        result.cycles += cost_->branch_slot;
        mpx::OnLegacyBranch(regs);
        if (!regs.zero_flag) {
          pos.block = instr.target;
        } else {
          pos.block = pos.block + 1;
        }
        pos.index = 0;
        advance = false;
        break;
      case ir::Opcode::kCall:
      case ir::Opcode::kIndirectCall: {
        int callee = instr.target;
        if (instr.op == ir::Opcode::kIndirectCall) {
          ++result.indirect_calls;
          callee = static_cast<int>(regs[instr.src]);
          if (callee < 0 || callee >= static_cast<int>(functions.size())) {
            return fault_out({machine::FaultType::kGeneralProtection, regs[instr.src],
                              machine::AccessType::kExecute});
          }
        }
        ++result.calls;
        result.cycles += cost_->call_slot;
        mpx::OnLegacyBranch(regs);
        if (call_depth >= 4096) {
          return fault_out({machine::FaultType::kGeneralProtection, regs[machine::Gpr::kRsp],
                            machine::AccessType::kWrite});
        }
        const uint64_t ra = EncodeRa(pos.func, pos.block, pos.index + 1);
        regs[machine::Gpr::kRsp] -= 8;
        uint64_t value = ra;
        machine::Fault fault;
        if (!data_access(regs[machine::Gpr::kRsp], machine::AccessType::kWrite, &value, &fault)) {
          return fault_out(fault);
        }
        // The call also exposes the return address in r11, the "link
        // register" convention that shadow-stack instrumentation consumes.
        regs[machine::Gpr::kR11] = ra;
        ++call_depth;
        pos = Position{callee, 0, 0};
        advance = false;
        break;
      }
      case ir::Opcode::kRet: {
        ++result.rets;
        result.cycles += cost_->ret_slot;
        mpx::OnLegacyBranch(regs);
        if (call_depth == 0) {
          // Returning from the entry function ends the program (there is no
          // caller frame to pop).
          result.halted = true;
          return result;
        }
        uint64_t ra = 0;
        machine::Fault fault;
        if (!data_access(regs[machine::Gpr::kRsp], machine::AccessType::kRead, &ra, &fault)) {
          return fault_out(fault);
        }
        regs[machine::Gpr::kRsp] += 8;
        int f = 0, b = 0, i = 0;
        if (!DecodeRa(ra, &f, &b, &i) || f >= static_cast<int>(functions.size())) {
          return fault_out({machine::FaultType::kGeneralProtection, ra,
                            machine::AccessType::kExecute});
        }
        const auto& rf = functions[static_cast<size_t>(f)];
        if (b >= static_cast<int>(rf.blocks.size()) ||
            i >= static_cast<int>(rf.blocks[static_cast<size_t>(b)].instrs.size())) {
          return fault_out({machine::FaultType::kGeneralProtection, ra,
                            machine::AccessType::kExecute});
        }
        --call_depth;
        pos = Position{f, b, i};
        advance = false;
        break;
      }
      case ir::Opcode::kHalt:
        result.cycles += cost_->nop_slot;
        result.halted = true;
        return result;
      case ir::Opcode::kSyscall: {
        ++result.syscalls;
        if (process_->dune_enabled()) {
          // Dune's libOS converts every syscall into a hypercall.
          result.cycles += cost_->vmcall;
          auto r = process_->dune()->vmx().VmCall(dune::kHcSyscall, instr.imm,
                                                  regs[machine::Gpr::kRdi],
                                                  regs[machine::Gpr::kRsi]);
          if (!r.ok()) {
            return fault_out(r.fault());
          }
          regs[machine::Gpr::kRax] = r.value();
        } else {
          result.cycles += cost_->syscall;
          regs[machine::Gpr::kRax] = process_->DispatchSyscall(
              instr.imm, regs[machine::Gpr::kRdi], regs[machine::Gpr::kRsi]);
        }
        break;
      }
      case ir::Opcode::kMprotect: {
        ++result.domain_switches;
        result.cycles += cost_->mprotect_call;
        const bool open = instr.imm != 0;
        for (auto& region : process_->safe_regions()) {
          machine::PageFlags flags = machine::PageFlags::Data();
          flags.user = open;
          flags.pkey = region.pkey;
          const uint64_t pages = PageAlignUp(region.size) >> kPageShift;
          for (uint64_t p = 0; p < pages; ++p) {
            (void)process_->page_table().Protect(region.base + p * kPageSize, flags);
            process_->mmu().InvalidatePage(region.base + p * kPageSize);
          }
          region.mprotected = !open;
        }
        break;
      }
      case ir::Opcode::kBndcu: {
        result.cycles += cost_->bndcu_slot;
        if (instr.IsCritical()) {
          result.cycles += cost_->bndcu_latency;
        }
        // A legacy-branch reset left this register in INIT state: reload it
        // from the bound table (the BNDPRESERVE=0 cost the paper avoids).
        auto& bnd = regs.bnd[instr.imm];
        if (bnd.upper == ~uint64_t{0} && process_->bnd_reload(static_cast<int>(instr.imm))) {
          bnd = *process_->bnd_reload(static_cast<int>(instr.imm));
          result.cycles += cost_->bnd_table_load;
        }
        auto fault = mpx::CheckUpper(bnd, regs[instr.src]);
        if (fault.has_value()) {
          return fault_out(*fault);
        }
        break;
      }
      case ir::Opcode::kBndcl: {
        result.cycles += cost_->bndcu_slot;
        if (instr.IsCritical()) {
          result.cycles += cost_->bndcl_pair_extra_latency;
        }
        auto& bnd = regs.bnd[instr.imm];
        if (bnd.upper == ~uint64_t{0} && process_->bnd_reload(static_cast<int>(instr.imm))) {
          bnd = *process_->bnd_reload(static_cast<int>(instr.imm));
          result.cycles += cost_->bnd_table_load;
        }
        auto fault = mpx::CheckLower(bnd, regs[instr.src]);
        if (fault.has_value()) {
          return fault_out(*fault);
        }
        break;
      }
      case ir::Opcode::kWrpkru: {
        ++result.domain_switches;
        result.cycles += cost_->wrpkru;
        if (instr.IsInstrumentation()) {
          // rax/rcx/rdx clobbers force spills around dense call sites.
          result.cycles += cost_->mpk_clobber_spills / 2.0;
        }
        mpk::WritePkru(regs, static_cast<uint32_t>(instr.imm));
        break;
      }
      case ir::Opcode::kRdpkru:
        result.cycles += cost_->rdpkru;
        regs[instr.dst] = mpk::ReadPkru(regs);
        break;
      case ir::Opcode::kVmFunc: {
        ++result.domain_switches;
        result.cycles += cost_->vmfunc;
        if (!process_->dune_enabled()) {
          return fault_out({machine::FaultType::kGeneralProtection, instr.imm,
                            machine::AccessType::kExecute});
        }
        auto r = process_->dune()->vmx().VmFunc(0, instr.imm);
        if (!r.ok()) {
          return fault_out(r.fault());
        }
        break;
      }
      case ir::Opcode::kVmCall: {
        result.cycles += cost_->vmcall;
        if (!process_->dune_enabled()) {
          return fault_out({machine::FaultType::kGeneralProtection, instr.imm,
                            machine::AccessType::kExecute});
        }
        auto r = process_->dune()->vmx().VmCall(instr.imm, regs[machine::Gpr::kRdi],
                                                regs[machine::Gpr::kRsi], 0);
        if (!r.ok()) {
          return fault_out(r.fault());
        }
        regs[machine::Gpr::kRax] = r.value();
        break;
      }
      case ir::Opcode::kMFence:
        result.cycles += 20.0;
        break;
      case ir::Opcode::kAesCryptRegion: {
        ++result.domain_switches;
        SafeRegion* region = process_->FindSafeRegion(regs[instr.src]);
        if (region == nullptr || !region->crypt) {
          return fault_out({machine::FaultType::kGeneralProtection, regs[instr.src],
                            machine::AccessType::kRead});
        }
        const uint64_t size = instr.imm == 0 ? region->size : instr.imm;
        const uint64_t blocks = (size + aes::kBlockSize - 1) / aes::kBlockSize;
        result.cycles += cost_->ymm_to_xmm_all_keys +
                         static_cast<double>(blocks) * (cost_->aes_encdec_block / 2.0) +
                         static_cast<double>(instr.target) * cost_->xmm_spill;
        // CTR keystream XOR: the same operation encrypts and decrypts.
        if (!process_->CryptToggle(*region, size, base::FastPathMode::kOff).ok()) {
          return fault_out({machine::FaultType::kPageNotPresent, region->base,
                            machine::AccessType::kRead});
        }
        break;
      }
      case ir::Opcode::kEnclaveEnter: {
        ++result.domain_switches;
        result.cycles += cost_->sgx_ecall_roundtrip / 2.0;
        if (process_->enclave() == nullptr) {
          return fault_out({machine::FaultType::kEnclaveExit, 0, machine::AccessType::kExecute});
        }
        auto r = process_->enclave()->Enter(static_cast<uint32_t>(instr.imm));
        if (!r.ok()) {
          return fault_out(r.fault());
        }
        break;
      }
      case ir::Opcode::kEnclaveExit: {
        result.cycles += cost_->sgx_ecall_roundtrip / 2.0;
        if (process_->enclave() == nullptr) {
          return fault_out({machine::FaultType::kEnclaveExit, 0, machine::AccessType::kExecute});
        }
        auto r = process_->enclave()->Exit();
        if (!r.ok()) {
          return fault_out(r.fault());
        }
        break;
      }
      case ir::Opcode::kTrap:
        result.trapped = true;
        return result;
      case ir::Opcode::kTrapIf:
        result.cycles += cost_->branch_slot;
        if (!regs.zero_flag) {
          result.trapped = true;
          return result;
        }
        break;
    }

    if (instr.IsInstrumentation()) {
      ++result.instrumentation_instrs;
      result.instrumentation_cycles += result.cycles - cycles_before;
    }
    if (advance) {
      ++pos.index;
      // Fall off the end of a block only after kCall-style non-terminators;
      // the verifier guarantees blocks end in terminators, so this index is
      // always valid.
    }
  }

  result.hit_instruction_limit = true;
  return result;
}

// The µop-stream interpreter. Mirrors RunReference case by case: every cycle
// addition happens with the same operands in the same order (pre-resolved
// static costs are charged as the same cost-then-extra pair of adds), every
// counter bumps at the same architectural points, and every fault carries
// the same payload — so all modeled results are bit-identical. Only dispatch
// changes: flat µop indices replace (block, index) walking, fused runs of
// straight-line ops — pure-register ops plus grant-stable loads/stores —
// execute back-to-back in RunFusedOps without re-entering the dispatch
// loop, and every µop carries a pre-resolved handler index that drives
// either the computed-goto table or the portable switch. Templated on the
// check mode, so the kOn instantiation carries no kCheck tests.
//
// The OP()/DISPATCH() macros select the dispatch flavour at compile time:
//   threaded: OP(X) is a label, DISPATCH() is `goto *kDispatch[handler]`
//   portable: OP(X) is a switch case, DISPATCH() loops back to the switch
// Every handler body ends in a `return` or a DISPATCH(), so the bodies are
// flavour-independent and execute identically under both dispatchers.
#if MEMSENTRY_USE_THREADED_DISPATCH
#define OP(name) h_##name:
#define DISPATCH()                                        \
  do {                                                    \
    if (result.instructions >= config.max_instructions) { \
      goto limit_exit;                                    \
    }                                                     \
    u = &df->uops[static_cast<size_t>(ui)];               \
    goto* kDispatch[u->handler];                          \
  } while (0)
#else
#define OP(name) case kH##name:
#define DISPATCH() goto dispatch
#endif

// Prologue/epilogue shared by every non-guard handler, replicating the
// reference loop's per-instruction frame: count the instruction, snapshot
// the cycle accumulator for instrumentation attribution, execute, then
// attribute. Handlers that redirect control set `ui` themselves and end
// with END_UOP_JMP(); straight-line handlers end with END_UOP_ADV().
#define BEGIN_UOP()                           \
  if constexpr (kCheck) {                     \
    CheckUop(*module_, func, dec, *u, cost);  \
  }                                           \
  ++result.instructions;                      \
  const Cycles cycles_before = result.cycles; \
  (void)cycles_before

#define END_UOP_COMMON()                                            \
  if (u->instrumentation()) {                                       \
    ++result.instrumentation_instrs;                                \
    result.instrumentation_cycles += result.cycles - cycles_before; \
  }

#define END_UOP_ADV() \
  END_UOP_COMMON();   \
  ++ui;               \
  DISPATCH()

#define END_UOP_JMP() \
  END_UOP_COMMON();   \
  DISPATCH()

template <bool kCheck>
RunResult Executor::RunDecoded(const RunConfig& config) {
  constexpr base::FastPathMode kMode =
      kCheck ? base::FastPathMode::kCheck : base::FastPathMode::kOn;
  RunResult result;
  auto& regs = process_->regs();
  const auto& functions = module_->functions;
  const DecodedModule& dec = *decoded_;
  const UopCost* const costs = dec.costs.data();
  const machine::CostModel& cost = *cost_;
  const DecodedEnv env{.module = *module_,
                       .dec = dec,
                       .process = *process_,
                       .regs = regs,
                       .mmu = process_->mmu(),
                       .pmem = process_->mmu().pmem(),
                       .cost = cost,
                       .record_safe_accesses = config.record_safe_accesses};

  int func = module_->entry;
  const DecodedFunction* df = &dec.functions[static_cast<size_t>(func)];
  int32_t ui = 0;       // flat µop index within *df
  uint32_t skip = 0;    // RegOps to skip on entering a fused µop mid-run
  int call_depth = 0;

  auto fault_out = [&](const machine::Fault& fault) {
    result.fault = fault;
    return result;
  };

  // A singleton µop's data access, at its own (block, index).
  auto data_access = [&](VirtAddr va, machine::AccessType access, uint64_t* value,
                         machine::Fault* fault, int32_t block,
                         int32_t index) MEMSENTRY_HOT_INLINE -> bool {
    bool missed = false;
    return DecodedAccess<kMode>(env, process_->enclave(), va, access, value, result.cycles,
                                &missed, fault, result, PackRef(func, block, index));
  };

  const Uop* u = nullptr;
#if MEMSENTRY_USE_THREADED_DISPATCH
  // Label-address dispatch table, indexed by UopHandler (same order as the
  // enum). Static: label addresses are link-time constants under the GCC
  // extension, and the table is shared by every invocation.
  static const void* const kDispatch[kNumUopHandlers] = {
      &&h_Fused,        &&h_Guard,       &&h_Load,   &&h_Store,
      &&h_Jmp,          &&h_CondBr,      &&h_Call,   &&h_IndirectCall,
      &&h_Ret,          &&h_Halt,        &&h_Syscall, &&h_Mprotect,
      &&h_Bndcu,        &&h_Bndcl,       &&h_Wrpkru, &&h_Rdpkru,
      &&h_VmFunc,       &&h_VmCall,      &&h_MFence, &&h_AesCryptRegion,
      &&h_EnclaveEnter, &&h_EnclaveExit, &&h_Trap,   &&h_TrapIf,
  };
#endif

  DISPATCH();

#if !MEMSENTRY_USE_THREADED_DISPATCH
dispatch:
  if (result.instructions >= config.max_instructions) {
    goto limit_exit;
  }
  u = &df->uops[static_cast<size_t>(ui)];
  switch (static_cast<UopHandler>(u->handler)) {
#endif

  OP(Fused) {
    // Replay the pre-resolved straight-line run. `skip` is nonzero only
    // when a ret landed mid-run or a bail-out re-enters it; the budget
    // clamp makes the instruction limit hit at exactly the same op as the
    // reference loop.
    if constexpr (kCheck) {
      CheckUop(*module_, func, dec, *u, cost);
    }
    const uint64_t want = u->fuse_count() - skip;
    const uint64_t budget = config.max_instructions - result.instructions;
    const uint64_t run = want < budget ? want : budget;
    const uint32_t entered_skip = skip;
    skip = 0;
    machine::Fault fault;
    const FusedOutcome outcome = RunFusedOps<kCheck>(
        env, func, *df, df->regops.data() + u->fuse_start() + entered_skip, run, u->block,
        u->index + static_cast<int32_t>(entered_skip), result, &fault);
    if (outcome.exit == FusedExit::kFault) {
      return fault_out(fault);
    }
    if (outcome.exit == FusedExit::kBail) {
      // Re-enter this µop at the next unexecuted op without advancing `ui`;
      // the re-admission probe sees the refilled grant / new TLB version.
      skip = entered_skip + static_cast<uint32_t>(outcome.executed);
      DISPATCH();
    }
    if (run < want) {
      // Instruction budget exhausted mid-run, at the same op the reference
      // loop stops at.
      goto limit_exit;
    }
    ++ui;
    DISPATCH();
  }

  OP(Guard) {
    // Synthetic block-end guard: the reference loop faults here when it
    // fetches past an unterminated block, before counting an instruction.
    if constexpr (kCheck) {
      CheckUop(*module_, func, dec, *u, cost);
    }
    return fault_out({machine::FaultType::kGeneralProtection, 0, machine::AccessType::kExecute});
  }

  OP(Load) {
    // Loads/stores normally fuse; these singleton handlers stay for decode
    // robustness and the portable dispatcher's exhaustiveness.
    BEGIN_UOP();
    ++result.loads;
    result.cycles += costs[u->cost].cost;
    uint64_t value = 0;
    machine::Fault fault;
    if (!data_access(regs[static_cast<machine::Gpr>(u->src)], machine::AccessType::kRead,
                     &value, &fault, u->block, u->index)) {
      return fault_out(fault);
    }
    regs[static_cast<machine::Gpr>(u->dst)] = value;
    END_UOP_ADV();
  }

  OP(Store) {
    BEGIN_UOP();
    ++result.stores;
    result.cycles += costs[u->cost].cost;
    uint64_t value = regs[static_cast<machine::Gpr>(u->src)];
    machine::Fault fault;
    if (!data_access(regs[static_cast<machine::Gpr>(u->dst)], machine::AccessType::kWrite,
                     &value, &fault, u->block, u->index)) {
      return fault_out(fault);
    }
    END_UOP_ADV();
  }

  OP(Jmp) {
    BEGIN_UOP();
    result.cycles += costs[u->cost].cost;
    mpx::OnLegacyBranch(regs);  // no-op when BNDPRESERVE is set
    if (u->target < 0) {
      // Out-of-range block target (undefined behaviour in the reference
      // interpreter; decode resolves it to a #GP instead of crashing).
      return fault_out(
          {machine::FaultType::kGeneralProtection, 0, machine::AccessType::kExecute});
    }
    ui = u->target;
    END_UOP_JMP();
  }

  OP(CondBr) {
    BEGIN_UOP();
    result.cycles += costs[u->cost].cost;
    mpx::OnLegacyBranch(regs);
    const int32_t next = !regs.zero_flag ? u->target : u->fallthrough;
    if (next < 0) {
      return fault_out(
          {machine::FaultType::kGeneralProtection, 0, machine::AccessType::kExecute});
    }
    ui = next;
    END_UOP_JMP();
  }

  OP(Call)
  OP(IndirectCall) {
    BEGIN_UOP();
    int callee = u->target;
    if (u->op == ir::Opcode::kIndirectCall) {
      ++result.indirect_calls;
      callee = static_cast<int>(regs[static_cast<machine::Gpr>(u->src)]);
      if (callee < 0 || callee >= static_cast<int>(functions.size())) {
        return fault_out({machine::FaultType::kGeneralProtection,
                          regs[static_cast<machine::Gpr>(u->src)],
                          machine::AccessType::kExecute});
      }
    }
    ++result.calls;
    result.cycles += costs[u->cost].cost;
    mpx::OnLegacyBranch(regs);
    if (call_depth >= 4096) {
      return fault_out({machine::FaultType::kGeneralProtection, regs[machine::Gpr::kRsp],
                        machine::AccessType::kWrite});
    }
    const uint64_t ra = EncodeRa(func, u->block, u->index + 1);
    regs[machine::Gpr::kRsp] -= 8;
    uint64_t value = ra;
    machine::Fault fault;
    if (!data_access(regs[machine::Gpr::kRsp], machine::AccessType::kWrite, &value, &fault,
                     u->block, u->index)) {
      return fault_out(fault);
    }
    // The call also exposes the return address in r11, the "link register"
    // convention that shadow-stack instrumentation consumes.
    regs[machine::Gpr::kR11] = ra;
    ++call_depth;
    if (callee >= static_cast<int>(dec.functions.size()) ||
        dec.functions[static_cast<size_t>(callee)].uops.empty()) {
      // Direct call to a bad function index (undefined behaviour in the
      // reference; #GP here instead of crashing).
      return fault_out(
          {machine::FaultType::kGeneralProtection, 0, machine::AccessType::kExecute});
    }
    func = callee;
    df = &dec.functions[static_cast<size_t>(callee)];
    ui = 0;  // block_head[0] is always the function's first µop
    END_UOP_JMP();
  }

  OP(Ret) {
    BEGIN_UOP();
    ++result.rets;
    result.cycles += costs[u->cost].cost;
    mpx::OnLegacyBranch(regs);
    if (call_depth == 0) {
      // Returning from the entry function ends the program (there is no
      // caller frame to pop).
      result.halted = true;
      return result;
    }
    uint64_t ra = 0;
    machine::Fault fault;
    if (!data_access(regs[machine::Gpr::kRsp], machine::AccessType::kRead, &ra, &fault,
                     u->block, u->index)) {
      return fault_out(fault);
    }
    regs[machine::Gpr::kRsp] += 8;
    int f = 0, b = 0, i = 0;
    if (!DecodeRa(ra, &f, &b, &i) || f >= static_cast<int>(functions.size())) {
      return fault_out({machine::FaultType::kGeneralProtection, ra,
                        machine::AccessType::kExecute});
    }
    const auto& rf = functions[static_cast<size_t>(f)];
    if (b >= static_cast<int>(rf.blocks.size()) ||
        i >= static_cast<int>(rf.blocks[static_cast<size_t>(b)].instrs.size())) {
      return fault_out({machine::FaultType::kGeneralProtection, ra,
                        machine::AccessType::kExecute});
    }
    --call_depth;
    func = f;
    df = &dec.functions[static_cast<size_t>(f)];
    const DecodedFunction::InstrSlot slot = df->Slot(b, i);
    ui = slot.uop;
    skip = slot.skip;  // forged-but-valid RAs may land mid-fused-run
    END_UOP_JMP();
  }

  OP(Halt) {
    BEGIN_UOP();
    result.cycles += costs[u->cost].cost;
    result.halted = true;
    return result;
  }

  OP(Syscall) {
    BEGIN_UOP();
    ++result.syscalls;
    if (process_->dune_enabled()) {
      // Dune's libOS converts every syscall into a hypercall.
      result.cycles += cost.vmcall;
      auto r = process_->dune()->vmx().VmCall(dune::kHcSyscall, u->imm,
                                              regs[machine::Gpr::kRdi],
                                              regs[machine::Gpr::kRsi]);
      if (!r.ok()) {
        return fault_out(r.fault());
      }
      regs[machine::Gpr::kRax] = r.value();
    } else {
      result.cycles += cost.syscall;
      regs[machine::Gpr::kRax] = process_->DispatchSyscall(
          u->imm, regs[machine::Gpr::kRdi], regs[machine::Gpr::kRsi]);
    }
    END_UOP_ADV();
  }

  OP(Mprotect) {
    BEGIN_UOP();
    ++result.domain_switches;
    result.cycles += costs[u->cost].cost;
    const bool open = u->imm != 0;
    for (auto& region : process_->safe_regions()) {
      machine::PageFlags flags = machine::PageFlags::Data();
      flags.user = open;
      flags.pkey = region.pkey;
      const uint64_t pages = PageAlignUp(region.size) >> kPageShift;
      for (uint64_t p = 0; p < pages; ++p) {
        (void)process_->page_table().Protect(region.base + p * kPageSize, flags);
        process_->mmu().InvalidatePage(region.base + p * kPageSize);
      }
      region.mprotected = !open;
    }
    END_UOP_ADV();
  }

  OP(Bndcu) {
    BEGIN_UOP();
    result.cycles += costs[u->cost].cost;
    if (costs[u->cost].has_extra) {
      result.cycles += costs[u->cost].extra;
    }
    // A legacy-branch reset left this register in INIT state: reload it
    // from the bound table (the BNDPRESERVE=0 cost the paper avoids).
    auto& bnd = regs.bnd[u->imm];
    if (bnd.upper == ~uint64_t{0} && process_->bnd_reload(static_cast<int>(u->imm))) {
      bnd = *process_->bnd_reload(static_cast<int>(u->imm));
      result.cycles += cost.bnd_table_load;
    }
    auto fault = mpx::CheckUpper(bnd, regs[static_cast<machine::Gpr>(u->src)]);
    if (fault.has_value()) {
      return fault_out(*fault);
    }
    END_UOP_ADV();
  }

  OP(Bndcl) {
    BEGIN_UOP();
    result.cycles += costs[u->cost].cost;
    if (costs[u->cost].has_extra) {
      result.cycles += costs[u->cost].extra;
    }
    auto& bnd = regs.bnd[u->imm];
    if (bnd.upper == ~uint64_t{0} && process_->bnd_reload(static_cast<int>(u->imm))) {
      bnd = *process_->bnd_reload(static_cast<int>(u->imm));
      result.cycles += cost.bnd_table_load;
    }
    auto fault = mpx::CheckLower(bnd, regs[static_cast<machine::Gpr>(u->src)]);
    if (fault.has_value()) {
      return fault_out(*fault);
    }
    END_UOP_ADV();
  }

  OP(Wrpkru) {
    BEGIN_UOP();
    ++result.domain_switches;
    result.cycles += costs[u->cost].cost;
    if (costs[u->cost].has_extra) {
      // rax/rcx/rdx clobbers force spills around dense call sites.
      result.cycles += costs[u->cost].extra;
    }
    mpk::WritePkru(regs, static_cast<uint32_t>(u->imm));
    END_UOP_ADV();
  }

  OP(Rdpkru) {
    BEGIN_UOP();
    result.cycles += costs[u->cost].cost;
    regs[static_cast<machine::Gpr>(u->dst)] = mpk::ReadPkru(regs);
    END_UOP_ADV();
  }

  OP(VmFunc) {
    BEGIN_UOP();
    ++result.domain_switches;
    result.cycles += costs[u->cost].cost;
    if (!process_->dune_enabled()) {
      return fault_out({machine::FaultType::kGeneralProtection, u->imm,
                        machine::AccessType::kExecute});
    }
    auto r = process_->dune()->vmx().VmFunc(0, u->imm);
    if (!r.ok()) {
      return fault_out(r.fault());
    }
    END_UOP_ADV();
  }

  OP(VmCall) {
    BEGIN_UOP();
    result.cycles += costs[u->cost].cost;
    if (!process_->dune_enabled()) {
      return fault_out({machine::FaultType::kGeneralProtection, u->imm,
                        machine::AccessType::kExecute});
    }
    auto r = process_->dune()->vmx().VmCall(u->imm, regs[machine::Gpr::kRdi],
                                            regs[machine::Gpr::kRsi], 0);
    if (!r.ok()) {
      return fault_out(r.fault());
    }
    regs[machine::Gpr::kRax] = r.value();
    END_UOP_ADV();
  }

  OP(MFence) {
    BEGIN_UOP();
    result.cycles += costs[u->cost].cost;
    END_UOP_ADV();
  }

  OP(AesCryptRegion) {
    BEGIN_UOP();
    ++result.domain_switches;
    SafeRegion* region = process_->FindSafeRegion(regs[static_cast<machine::Gpr>(u->src)]);
    if (region == nullptr || !region->crypt) {
      return fault_out({machine::FaultType::kGeneralProtection,
                        regs[static_cast<machine::Gpr>(u->src)],
                        machine::AccessType::kRead});
    }
    const uint64_t size = u->imm == 0 ? region->size : u->imm;
    const uint64_t blocks = (size + aes::kBlockSize - 1) / aes::kBlockSize;
    result.cycles += cost.ymm_to_xmm_all_keys +
                     static_cast<double>(blocks) * (cost.aes_encdec_block / 2.0) +
                     static_cast<double>(u->target) * cost.xmm_spill;
    // Crypt cells fire this on every domain switch: XOR in place from the
    // region's reused keystream (recomputed and compared under kCheck).
    if (!process_->CryptToggle(*region, size, kMode).ok()) {
      return fault_out({machine::FaultType::kPageNotPresent, region->base,
                        machine::AccessType::kRead});
    }
    END_UOP_ADV();
  }

  OP(EnclaveEnter) {
    BEGIN_UOP();
    ++result.domain_switches;
    result.cycles += costs[u->cost].cost;
    if (process_->enclave() == nullptr) {
      return fault_out({machine::FaultType::kEnclaveExit, 0, machine::AccessType::kExecute});
    }
    auto r = process_->enclave()->Enter(static_cast<uint32_t>(u->imm));
    if (!r.ok()) {
      return fault_out(r.fault());
    }
    END_UOP_ADV();
  }

  OP(EnclaveExit) {
    BEGIN_UOP();
    result.cycles += costs[u->cost].cost;
    if (process_->enclave() == nullptr) {
      return fault_out({machine::FaultType::kEnclaveExit, 0, machine::AccessType::kExecute});
    }
    auto r = process_->enclave()->Exit();
    if (!r.ok()) {
      return fault_out(r.fault());
    }
    END_UOP_ADV();
  }

  OP(Trap) {
    BEGIN_UOP();
    result.trapped = true;
    return result;
  }

  OP(TrapIf) {
    BEGIN_UOP();
    result.cycles += costs[u->cost].cost;
    if (!regs.zero_flag) {
      result.trapped = true;
      return result;
    }
    END_UOP_ADV();
  }

#if !MEMSENTRY_USE_THREADED_DISPATCH
    default:
      assert(false && "µop with out-of-range handler index");
      std::abort();
  }
  std::abort();  // unreachable: every case returns or DISPATCH()es
#endif

limit_exit:
  result.hit_instruction_limit = true;
  return result;
}

#undef OP
#undef DISPATCH
#undef BEGIN_UOP
#undef END_UOP_COMMON
#undef END_UOP_ADV
#undef END_UOP_JMP

}  // namespace memsentry::sim
