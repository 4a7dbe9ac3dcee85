#include "src/core/instrument.h"

#include <array>
#include <cassert>

namespace memsentry::core {

std::string MemSentryPass::name() const {
  return std::string("memsentry-") + TechniqueKindName(technique_->kind());
}

Status MemSentryPass::Run(ir::Module& module) {
  checks_inserted_ = 0;
  switch_pairs_inserted_ = 0;
  switch (technique_->category()) {
    case Category::kAddressBased:
      return RunAddressBased(module);
    case Category::kDomainBased:
      return RunDomainBased(module);
    case Category::kNone:
      return OkStatus();  // information hiding: no instrumentation at all
  }
  return OkStatus();
}

Status MemSentryPass::RunAddressBased(ir::Module& module) {
  const bool instrument_loads = options_.mode != ProtectMode::kWriteOnly;
  const bool instrument_stores = options_.mode != ProtectMode::kReadOnly;
  // A check sequence depends only on the address register and whether the
  // access is a load, so each one is built once per run, on first use.
  std::array<std::vector<ir::Instr>, 2 * machine::kNumGprs> sequences;
  std::array<bool, 2 * machine::kNumGprs> built{};
  // The check in front of `instr`, or nullptr when it stays unchecked.
  // saferegion_access-annotated instructions are the ones *allowed* to
  // touch sensitive data: they stay unchecked (Section 3.2).
  const auto check_for = [&](const ir::Instr& instr) -> const std::vector<ir::Instr>* {
    const bool is_load = instr.op == ir::Opcode::kLoad;
    const bool is_store = instr.op == ir::Opcode::kStore;
    const bool wants = (is_load && instrument_loads) || (is_store && instrument_stores);
    if (!wants || instr.IsSafeAccess()) {
      return nullptr;
    }
    const machine::Gpr addr_reg = is_load ? instr.src : instr.dst;
    const size_t slot = 2 * static_cast<size_t>(addr_reg) + (is_load ? 1 : 0);
    assert(slot < sequences.size() && "address register out of range");
    if (!built[slot]) {
      sequences[slot] = technique_->MakeAccessCheck(addr_reg, is_load, options_);
      built[slot] = true;
    }
    return &sequences[slot];
  };
  for (auto& func : module.functions) {
    for (auto& block : func.blocks) {
      uint64_t checks = 0;
      size_t added = 0;
      for (const ir::Instr& instr : block.instrs) {
        if (const std::vector<ir::Instr>* check = check_for(instr)) {
          ++checks;
          added += check->size();
        }
      }
      checks_inserted_ += checks;
      if (added == 0) {
        continue;  // nothing to insert: the block stays as it is
      }
      std::vector<ir::Instr> out;
      out.reserve(block.instrs.size() + added);
      for (const ir::Instr& instr : block.instrs) {
        if (const std::vector<ir::Instr>* check = check_for(instr)) {
          out.insert(out.end(), check->begin(), check->end());
        }
        out.push_back(instr);
      }
      block.instrs = std::move(out);
    }
  }
  return OkStatus();
}

Status MemSentryPass::RunDomainBased(ir::Module& module) {
  const std::vector<ir::Instr> open = technique_->MakeDomainOpen(*process_, options_);
  const std::vector<ir::Instr> close = technique_->MakeDomainClose(*process_, options_);
  const auto is_safe = [](const ir::Instr& instr) {
    return instr.IsSafeAccess() && !instr.IsTerminator();
  };
  for (auto& func : module.functions) {
    for (auto& block : func.blocks) {
      // Each maximal run of safe-access instructions gets one open/close
      // pair; count the runs so the block is rebuilt once, at its final size.
      uint64_t runs = 0;
      bool in_run = false;
      for (const ir::Instr& instr : block.instrs) {
        const bool safe = is_safe(instr);
        runs += safe && !in_run;
        in_run = safe;
      }
      switch_pairs_inserted_ += runs;
      if (runs == 0) {
        continue;  // no safe-access run: the block stays as it is
      }
      std::vector<ir::Instr> out;
      out.reserve(block.instrs.size() + runs * (open.size() + close.size()));
      in_run = false;
      for (const ir::Instr& instr : block.instrs) {
        const bool safe = is_safe(instr);
        if (safe && !in_run) {
          out.insert(out.end(), open.begin(), open.end());
        } else if (!safe && in_run) {
          out.insert(out.end(), close.begin(), close.end());
        }
        in_run = safe;
        out.push_back(instr);
      }
      if (in_run) {
        // A safe-access run ending at the block boundary closes before the
        // terminator... which cannot happen (the terminator ended the run),
        // so this closes runs in blocks whose last instruction is annotated.
        out.insert(out.end(), close.begin(), close.end());
      }
      block.instrs = std::move(out);
    }
  }
  return OkStatus();
}

}  // namespace memsentry::core
