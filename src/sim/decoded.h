// Pre-decoded µop streams for the executor's hot loop. A DecodedModule
// lowers every function into a dense, flat µop array: branch targets are
// pre-resolved to flat indices, register numbers are pre-bound, and the
// static per-instruction cycle costs (including the instrumentation/critical
// flag outcomes) are pre-computed against the active CostModel. Maximal runs
// of straight-line instructions — pure-register ops and, since PR 7,
// kLoad/kStore — fuse into a single superblock µop whose RegOps the
// interpreter replays back-to-back without touching the dispatch loop;
// fused memory ops ride the MMU grant cache and bail out of the run on a
// verdict miss or TLB-version tick.
//
// Compact by design, so a resident cache can hold every decode a suite
// needs: a RegOp is 8 bytes (static costs live in a small per-module table
// of deduplicated entries, immediates wider than 32 bits in a per-function
// pool), a µop is 32 bytes (a fused run's RegOp range overlays the branch
// fields), source positions of fused ops are derived from their run rather
// than stored, and the (block, index) -> µop map is a sparse per-block index
// (one entry per 16 instructions) plus a short forward scan instead of a
// per-instruction table. Every array is sized
// by a counting pass, so capacity equals use; bytes() reports the total.
//
// Bit-identity by construction: fused execution performs the *same sequence
// of floating-point additions* to the cycle accumulator as the reference
// interpreter — per-op, in order, never pre-summed (the cost model's
// non-dyadic values make (a+b)+c != a+(b+c) in general, and the
// instrumentation-cycle delta depends on the live accumulator). Decoding
// changes how the adds are driven, never their operands or order.
#ifndef MEMSENTRY_SRC_SIM_DECODED_H_
#define MEMSENTRY_SRC_SIM_DECODED_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/ir/module.h"
#include "src/machine/cost_model.h"

namespace memsentry::sim {

class Process;

// Dispatch handler index, pre-resolved at decode so the interpreter's
// dispatch (computed-goto table or portable switch) is a single indexed
// jump with no opcode re-classification. kHFused covers every fused run;
// kHGuard is the synthetic block-end guard; the rest map 1:1 onto the
// non-fusible opcodes.
enum UopHandler : uint8_t {
  kHFused = 0,
  kHGuard,
  kHLoad,
  kHStore,
  kHJmp,
  kHCondBr,
  kHCall,
  kHIndirectCall,
  kHRet,
  kHHalt,
  kHSyscall,
  kHMprotect,
  kHBndcu,
  kHBndcl,
  kHWrpkru,
  kHRdpkru,
  kHVmFunc,
  kHVmCall,
  kHMFence,
  kHAesCryptRegion,
  kHEnclaveEnter,
  kHEnclaveExit,
  kHTrap,
  kHTrapIf,
  kNumUopHandlers,
};

// One entry of a module's static-cost table. `cost` and (when `has_extra`)
// `extra` are charged as two separate additions, exactly as the reference
// interpreter charges slot + critical-latency (kAndImm, kBndcu/kBndcl) or
// slot + clobber spills (kWrpkru). Every µop and RegOp names its entry by a
// one-byte index. The entry is a function of (opcode, instrumentation flag,
// critical flag, wide immediate) alone — kVecOp's immediate-scaled
// ymm-reserve penalty is charged from the immediate at run time — so a
// module never needs more than 2^8 distinct entries.
struct UopCost {
  double cost = 0;
  double extra = 0;
  bool has_extra = false;
  bool instrumentation = false;  // attribute the op's cycles to instrumentation
  bool wide_imm = false;         // RegOp::imm indexes DecodedFunction::wide_imms

  bool operator==(const UopCost&) const = default;
};

// One pre-resolved operation inside a fused run: 8 bytes. The immediate is
// stored inline when it is the sign extension of 32 bits (almost all of
// them); wider values — SFI masks, movabs constants — live once per function
// in DecodedFunction::wide_imms and `imm` holds their index. A RegOp stores
// no source position: the k-th op of a fused µop `u` is instruction
// (u.block, u.index + k), since a run never crosses a block. Fused runs
// extend across kLoad/kStore: a fused memory op replays the full MMU access
// (grant probe, pricing, safe-access profiling) inline, and the run bails
// back to the dispatch loop the moment the op's grant verdict misses or the
// TLB version ticks — see Executor::RunDecoded.
struct RegOp {
  ir::Opcode op = ir::Opcode::kNop;
  uint8_t dst = 0;
  uint8_t src = 0;
  uint8_t cost = 0;  // index into DecodedModule::costs
  uint32_t imm = 0;
};
static_assert(sizeof(RegOp) <= 8, "RegOp must stay one 8-byte word");

// One µop: 32 bytes. Either a fused run of RegOps (handler == kHFused) or a
// single non-fusible instruction carrying its original opcode. A non-fused
// µop with op == kNop is a synthetic block-end guard replicating the
// reference interpreter's fetch-past-terminator #GP for unverified modules.
struct Uop {
  ir::Opcode op = ir::Opcode::kNop;
  uint8_t handler = kHGuard;  // pre-resolved dispatch index (UopHandler)
  uint8_t dst = 0;
  uint8_t src = 0;
  uint8_t flags = 0;  // the source instruction's ir::kFlag* bits
  uint8_t cost = 0;   // index into DecodedModule::costs
  // Source position (of the first op, for a fused run), for return-address
  // encoding, safe-access profiling refs, return-target slot lookup and
  // kCheck re-derivation.
  int32_t block = 0;
  int32_t index = 0;
  // kJmp/kCondBr: flat µop index of the taken target's block head. kCall:
  // callee function index. kIndirectCall and the rest: the original
  // instruction's target field. Fused runs overlay (first RegOp in
  // DecodedFunction::regops, RegOp count) on target/fallthrough — read them
  // through fuse_start()/fuse_count().
  int32_t target = 0;
  // kCondBr only: flat µop index of the fall-through block head.
  int32_t fallthrough = 0;
  uint64_t imm = 0;

  bool fused() const { return handler == kHFused; }
  uint32_t fuse_start() const { return static_cast<uint32_t>(target); }
  uint32_t fuse_count() const { return static_cast<uint32_t>(fallthrough); }
  bool instrumentation() const { return (flags & ir::kFlagInstrumentation) != 0; }
};
static_assert(sizeof(Uop) <= 32, "Uop must stay half a cache line");

struct DecodedFunction {
  // Source positions per checkpoint of the sparse slot index below.
  static constexpr int32_t kSlotStride = 16;

  std::vector<Uop> uops;
  std::vector<RegOp> regops;
  std::vector<uint64_t> wide_imms;  // deduplicated immediates that need 64 bits
  // Block b's µops are [block_head[b], block_head[b + 1]); the trailing
  // entry is uops.size().
  std::vector<int32_t> block_head;
  // The sparse slot index: for block b, slot_index[slot_base[b] + j] is the
  // µop covering instruction j * kSlotStride of the block.
  std::vector<uint32_t> slot_base;
  std::vector<int32_t> slot_index;

  // A source instruction position on the µop stream: its µop plus the number
  // of RegOps to skip inside it (nonzero only mid-fused-run).
  struct InstrSlot {
    int32_t uop = 0;
    uint32_t skip = 0;
  };
  // Maps (block, index) onto the µop stream. A forged-but-valid return
  // address may land mid-fused-run. Instead of a per-instruction table, the
  // sparse index names the µop covering the nearest checkpoint at or before
  // `index`, and a short forward scan (at most kSlotStride µops, usually one
  // or two) reaches the µop covering `index`: µops tile their block in
  // source order. `block`/`index` must be bounds-checked against the source
  // module first.
  InstrSlot Slot(int32_t block, int32_t index) const {
    const size_t b = static_cast<size_t>(block);
    int32_t ui = slot_index[slot_base[b] + static_cast<uint32_t>(index / kSlotStride)];
    const int32_t end = block_head[b + 1];
    while (ui + 1 < end && uops[static_cast<size_t>(ui) + 1].index <= index) {
      ++ui;
    }
    return {ui, static_cast<uint32_t>(index - uops[static_cast<size_t>(ui)].index)};
  }

};

// The immediate of RegOp `op`, whose cost entry is `cost`, in a function
// whose wide-immediate pool is `wide_imms`.
inline uint64_t RegOpImm(const RegOp& op, const UopCost& cost, const uint64_t* wide_imms) {
  return cost.wide_imm ? wide_imms[op.imm]
                       : static_cast<uint64_t>(static_cast<int64_t>(static_cast<int32_t>(op.imm)));
}

// The decoded form of a whole module, tied to the (module id and version,
// cost model, ymm reservation) it was built against. Shareable across
// executors: bench harnesses that construct a fresh Executor per run can
// build one DecodedModule up front and hand it to each.
struct DecodedModule {
  std::vector<DecodedFunction> functions;
  std::vector<UopCost> costs;        // deduplicated; indexed by Uop/RegOp::cost
  uint64_t source_id = 0;            // ir::Module::id() of the module decoded
  uint64_t module_version = 0;
  uint64_t instr_count = 0;          // belt-and-suspenders vs missed Touch()
  machine::CostModel cost;           // snapshot; memcmp-validated
  bool ymm_reserved = false;

  static std::shared_ptr<const DecodedModule> Build(const ir::Module& module,
                                                    const Process& process);

  // True when this decode is still valid for (module, process): same module
  // identity and version, same instruction count, identical cost model and
  // ymm reservation. Identity is ir::Module::id(), never the address: a
  // module built where a freed one lived is a different module.
  bool Matches(const ir::Module& module, const Process& process) const;

  // The cost-model half of Matches: identical cost snapshot and ymm
  // reservation. Used by Executor for decodes obtained from the shared
  // DecodeCache, whose `source_id` names whichever module instance first
  // populated the entry (content-identical, not the same instance).
  bool CostMatches(const Process& process) const;

  // Heap bytes this decode holds: every array's allocated capacity plus the
  // objects themselves. The DecodeCache budgets by this.
  size_t bytes() const;
};

// kCheck helpers: re-derive a µop/RegOp from its source instruction and the
// live cost model, aborting the process with a diagnostic on any mismatch.
// This is the decode-layer half of the differential oracle (the MMU grant
// check is the other half); tests additionally compare full fast-vs-
// reference RunResults bitwise.
void CheckUop(const ir::Module& module, int func, const DecodedModule& dec, const Uop& uop,
              const machine::CostModel& cost);
// `block`/`index` are the op's derived source position: (u.block,
// u.index + k) for the k-th op of fused µop `u`.
void CheckRegOp(const ir::Module& module, int func, const DecodedModule& dec,
                const DecodedFunction& df, const RegOp& op, int32_t block, int32_t index,
                const machine::CostModel& cost, bool ymm_reserved);

}  // namespace memsentry::sim

#endif  // MEMSENTRY_SRC_SIM_DECODED_H_
