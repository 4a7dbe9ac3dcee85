// The executor: interprets MemSentry IR against a Process, enforcing every
// isolation mechanism architecturally (page permissions, protection keys,
// EPT presence, MPX bounds, enclave membership, encryption state) and
// accruing cycles through the cost model. Architectural faults terminate the
// run and are reported in the result — they are the observable evidence that
// deterministic isolation held.
#ifndef MEMSENTRY_SRC_SIM_EXECUTOR_H_
#define MEMSENTRY_SRC_SIM_EXECUTOR_H_

#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "src/base/types.h"
#include "src/ir/module.h"
#include "src/machine/fault.h"
#include "src/sim/decoded.h"
#include "src/sim/process.h"

namespace memsentry::sim {

struct RunConfig {
  uint64_t max_instructions = 500'000'000;
  // Dynamic (PIN-style) points-to profiling: record which instructions
  // touched a safe region (paper Section 5.5).
  bool record_safe_accesses = false;
};

// Packs an instruction position for the profiling set.
constexpr uint64_t PackRef(int func, int block, int index) {
  return (static_cast<uint64_t>(func) << 40) | (static_cast<uint64_t>(block) << 20) |
         static_cast<uint64_t>(index);
}

struct RunResult {
  uint64_t instructions = 0;
  Cycles cycles = 0;
  bool halted = false;                   // reached kHalt (or returned from entry)
  bool trapped = false;                  // a defense's kTrap fired
  bool hit_instruction_limit = false;
  std::optional<machine::Fault> fault;   // architectural fault stopped the run

  // Breakdown.
  uint64_t loads = 0;
  uint64_t stores = 0;
  uint64_t calls = 0;
  uint64_t rets = 0;
  uint64_t indirect_calls = 0;
  uint64_t syscalls = 0;
  uint64_t domain_switches = 0;          // wrpkru/vmfunc/crypt/ecall/mprotect events
  uint64_t instrumentation_instrs = 0;
  Cycles instrumentation_cycles = 0;

  // Populated when profiling. An unordered set keeps the hot-path insert
  // O(1); consumers that need a stable order (annotation passes, reports)
  // take the sorted view below instead of iterating the raw set.
  std::unordered_set<uint64_t> safe_access_refs;

  std::vector<uint64_t> SortedSafeAccessRefs() const {
    std::vector<uint64_t> refs(safe_access_refs.begin(), safe_access_refs.end());
    std::sort(refs.begin(), refs.end());
    return refs;
  }

  double Cpi() const {
    return instructions == 0 ? 0.0 : cycles / static_cast<double>(instructions);
  }
};

class Executor {
 public:
  Executor(Process* process, const ir::Module* module)
      : process_(process), module_(module), cost_(&process->machine().cost) {}

  // Interprets the module until halt/trap/fault/instruction limit. Under
  // base::FastPathMode::kOn (the default) this runs the pre-decoded µop
  // stream — bit-identical to the reference interpreter by construction;
  // kOff runs the reference loop; kCheck runs the µop stream with every
  // dispatched µop re-derived from its source instruction (aborting on any
  // divergence).
  RunResult Run(const RunConfig& config = {});

  // Hands this executor a pre-built decoded form, so harnesses constructing
  // a fresh Executor per run don't re-decode each time. Validated against
  // the live (module, cost model, ymm) state before use; refetched from the
  // shared DecodeCache if stale.
  void SetDecoded(std::shared_ptr<const DecodedModule> decoded) { decoded_ = std::move(decoded); }
  const std::shared_ptr<const DecodedModule>& decoded() const { return decoded_; }

 private:
  RunResult RunReference(const RunConfig& config);
  // kCheck: re-derive every dispatched µop and RegOp (FastPathMode::kCheck).
  template <bool kCheck>
  RunResult RunDecoded(const RunConfig& config);

  // Makes decoded_ valid for the live (module, cost model, ymm) state,
  // consulting the shared DecodeCache (content-keyed, so concurrent cells
  // lowering the same module share one decode). Cache-fetched decodes are
  // revalidated cheaply by (module id, version) without re-digesting.
  void EnsureDecoded();

  Process* process_;
  const ir::Module* module_;
  const machine::CostModel* cost_;
  std::shared_ptr<const DecodedModule> decoded_;
  // Which decode was last validated, and for which (module id, version);
  // lets a cache-shared decode (whose `source_id` names some other
  // content-identical module instance) skip the content digest on every
  // Run. Ids, not addresses: a module re-created in the same storage must
  // not inherit the validation.
  const DecodedModule* decoded_for_ = nullptr;
  uint64_t decoded_for_id_ = 0;
  uint64_t decoded_for_version_ = 0;
};

}  // namespace memsentry::sim

#endif  // MEMSENTRY_SRC_SIM_EXECUTOR_H_
