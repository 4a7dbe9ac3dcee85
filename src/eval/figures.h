// Experiment pipelines for every figure in the paper's evaluation
// (Section 6.2). A CellRecipe names one baseline-vs-protected cell;
// RunExperiment builds a fresh machine/process for each run, synthesizes the
// benchmark program, applies the defense and (protected run only) the
// MemSentry pass, executes both, and returns the normalized runtime
// (1.0 == baseline). Shared by the suite workloads, the CLI and the
// calibration tests.
#ifndef MEMSENTRY_SRC_EVAL_FIGURES_H_
#define MEMSENTRY_SRC_EVAL_FIGURES_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/technique.h"
#include "src/eval/run_memo.h"
#include "src/ir/module.h"
#include "src/sim/machine.h"
#include "src/sim/process.h"
#include "src/workloads/spec_profiles.h"
#include "src/workloads/synth.h"

namespace memsentry::eval {

using workloads::SpecProfile;

struct ExperimentOptions {
  uint64_t target_instructions = 400'000;
  uint64_t seed = 0xbe7cd06eULL;
  core::InstrumentOptions instrument;
  // Nothing reads this: the campaign engine is the only parallel layer and
  // every sweep here is a plain loop. It stays declared only because the
  // benchmark tool under perfbench/ still assigns it.
  int jobs = 0;
};

// One baseline-vs-protected execution pair. normalized is protected/baseline
// cycles (1.0 == baseline, < 0 on failure); the raw cycle counts feed the
// perf series of the machine-readable benchmark reports. The retired
// instruction counts feed the suite's simulated-instruction throughput
// (info) metrics.
struct ExperimentResult {
  double normalized = -1;
  double base_cycles = 0;
  double prot_cycles = 0;
  double base_instructions = 0;
  double prot_instructions = 0;
  bool ok() const { return normalized > 0; }
};

// The defense a cell runs before the MemSentry pass. The order is part of
// the baseline memo key.
enum class Defense {
  kNone,            // Figure 3: the program as synthesized
  kShadowStack,     // Figure 4: ShadowStackPass at every call and ret
  kIndirectBranch,  // Figure 5: a domain switch at every indirect branch (CFI)
  kSyscall,         // Figure 6: a domain switch at every system call (TASR)
  kSafeStack,       // SafeStack: the stack moves into a safe region; the
                    // baseline keeps the ordinary stack
};

// The Figure 4-6 scenarios, each numbered one below its Defense. Only the
// benchmark tool under perfbench/ still uses them: its copy of the baseline
// key hashes a scenario as its value + 1, that is, as its Defense.
enum class DomainScenario { kCallRet, kIndirectBranch, kSyscall };

// Everything a baseline-vs-protected cell is built from. Both runs use the
// same synthesized program; the protected run adds MemSentry after the
// defense.
struct CellRecipe {
  SpecProfile profile;
  core::TechniqueKind technique = core::TechniqueKind::kMpx;
  core::InstrumentOptions instrument;
  Defense defense = Defense::kNone;
  // The safe region the defense keeps its metadata in (0 = none).
  uint64_t region_bytes = 0;
  // When nonzero, the region's size after allocation; the protected run maps
  // the extra pages (the crypt region-size sweep).
  uint64_t region_size = 0;
  uint64_t target_instructions = 400'000;
  uint64_t seed = workloads::SynthOptions{}.seed;
};

// The recipe of a Figure 3-6 cell: the options' budget, seed and
// instrumentation, and the paper's region (a single 128-bit value for crypt,
// a page otherwise).
CellRecipe ExperimentRecipe(const SpecProfile& profile, core::TechniqueKind kind,
                            Defense defense, const ExperimentOptions& options = {});

// What the baseline run reads, and nothing else. The baseline runs the
// defense's own pass, so the defense's cost appears in both numerator and
// denominator, as in the paper. It never calls Protect(), so of the
// technique it sees only the region the allocator hands out. Two cells whose
// baselines read the same values share one memo entry (the MPK and VMFUNC
// columns of a domain figure, for example).
struct BaselineRecipe {
  SpecProfile profile;
  Defense defense = Defense::kNone;  // the defense pass (never kSafeStack)
  uint64_t target_instructions = 0;
  uint64_t seed = 0;
  uint64_t region_bytes = 0;  // after the technique's granularity rounding
  bool info_hide_placement = false;  // placed by probabilistic mmap
  uint64_t region_size = 0;
  uint64_t max_instructions = 0;  // the run budget

  // The run memo key: every field above, in declaration order.
  RunMemo::Key Key() const;
};

BaselineRecipe BaselineOf(const CellRecipe& recipe);

// Runs a baseline, or replays it from the run memo when the memo is on.
RunMemo::Result RunBaseline(const BaselineRecipe& baseline);

// The protected half of a cell, ready to run: a fresh process with the
// workload mapped, the region allocated, the defense applied and MemSentry
// prepared, plus the protected module. status is the first failing step.
struct PreparedCell {
  Status status;
  std::unique_ptr<sim::Machine> machine;
  std::unique_ptr<sim::Process> process;
  ir::Module module;
};
PreparedCell PrepareCell(const CellRecipe& recipe);

// The memoized baseline, then the protected run.
ExperimentResult RunExperiment(const CellRecipe& recipe);

// One row of a figure: per-benchmark normalized runtimes per configuration,
// plus the suite-total cycle counts behind them (for perf regression series).
struct FigureSeries {
  std::string config;                 // e.g. "MPX-w" or "MPK"
  std::vector<double> normalized;     // one per benchmark, suite order
  double geomean = 0;
  double total_base_cycles = 0;       // summed over the suite
  double total_prot_cycles = 0;
  double total_instructions = 0;      // baseline + protected retired instrs
};

// The figure sweeps' configuration columns, exposed so the campaign engine
// can enumerate and run single (config, profile) cells that are
// bit-identical to the full sweeps below.
struct AddressSweepConfig {
  const char* name;  // Figure 3 column, e.g. "MPX-w"
  core::TechniqueKind kind;
  core::ProtectMode mode;
};
const std::vector<AddressSweepConfig>& AddressSweepConfigs();

struct DomainSweepConfig {
  const char* name;  // Figures 4-6 column: "MPK", "VMFUNC", "crypt"
  core::TechniqueKind kind;
};
const std::vector<DomainSweepConfig>& DomainSweepConfigs();

// Serial assembly of config-major per-cell results (cells[c * profiles + p])
// into FigureSeries — the exact floating-point accumulation order of the
// sweeps, shared with the campaign engine.
std::vector<FigureSeries> AssembleFigureSeries(const std::vector<const char*>& config_names,
                                               size_t profiles,
                                               const std::vector<ExperimentResult>& cells);

// Convenience sweeps over the whole SPEC suite.
std::vector<FigureSeries> RunFigure3(const ExperimentOptions& options = {});
std::vector<FigureSeries> RunFigure4(const ExperimentOptions& options = {});
std::vector<FigureSeries> RunFigure5(const ExperimentOptions& options = {});
std::vector<FigureSeries> RunFigure6(const ExperimentOptions& options = {});

// The crypt region-size sweep (Section 6.2: cost grows linearly; ~15x at
// 1 KiB): normalized runtime of the call/ret scenario vs safe-region size.
struct CryptSizePoint {
  uint64_t region_bytes;
  double normalized;
  double prot_cycles = 0;
  double instructions = 0;  // baseline + protected retired instrs
};
std::vector<CryptSizePoint> RunCryptSizeSweep(const SpecProfile& profile,
                                              const std::vector<uint64_t>& sizes,
                                              const ExperimentOptions& options = {});

// Synthesis is independent of the technique and the isolation flag, so the
// suite's cells re-derive byte-identical modules dozens of times per
// profile. This returns a copy of a cached module, keyed on every
// SpecProfile and SynthOptions field, so it always equals what
// workloads::SynthesizeSpecProgram would build. The cached module was
// verified once and the copy carries that memo (ir::Module::verified()).
ir::Module SynthesizeSpecProgramCached(const SpecProfile& profile,
                                       const workloads::SynthOptions& synth);

// Feeds every SpecProfile field into a recipe hasher: the first input of
// BaselineRecipe::Key, and of the benchmark tool's copy of that key
// (perfbench/tool/replay.cc), which must hash the same bytes.
void HashSpecProfile(RunKeyHasher& h, const SpecProfile& profile);

}  // namespace memsentry::eval

#endif  // MEMSENTRY_SRC_EVAL_FIGURES_H_
