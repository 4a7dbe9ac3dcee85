// Experiment pipelines for every figure in the paper's evaluation
// (Section 6.2). Each function builds a fresh machine/process, synthesizes
// the benchmark program, applies the defense pass and the MemSentry pass,
// executes both baseline and protected builds, and returns the normalized
// runtime (1.0 == baseline). Shared by bench/ binaries and the calibration
// tests.
#ifndef MEMSENTRY_SRC_EVAL_FIGURES_H_
#define MEMSENTRY_SRC_EVAL_FIGURES_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/technique.h"
#include "src/eval/run_memo.h"
#include "src/workloads/spec_profiles.h"
#include "src/workloads/synth.h"

namespace memsentry::eval {

using workloads::SpecProfile;

struct ExperimentOptions {
  uint64_t target_instructions = 400'000;
  uint64_t seed = 0xbe7cd06eULL;
  core::InstrumentOptions instrument;
  // Worker threads for the suite sweeps (RunFigure3..6, RunCryptSizeSweep).
  // 0 = hardware_concurrency; 1 = serial. Every (profile, config) cell builds
  // its own machine/process/module from the deterministic seed, so results
  // are bit-identical for every jobs value — enforced by
  // tests/parallel_determinism_test.cc.
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

// Figure 3: address-based techniques (SFI/MPX), instrumenting all loads
// (-r), stores (-w) or both (-rw) of the whole program.
ExperimentResult RunAddressBasedExperimentFull(const SpecProfile& profile,
                                               core::TechniqueKind kind, core::ProtectMode mode,
                                               const ExperimentOptions& options = {});
double RunAddressBasedExperiment(const SpecProfile& profile, core::TechniqueKind kind,
                                 core::ProtectMode mode, const ExperimentOptions& options = {});

// Figures 4-6: domain-based techniques switching at every...
enum class DomainScenario {
  kCallRet,         // Figure 4: shadow stack (the real ShadowStackPass)
  kIndirectBranch,  // Figure 5: CFI / layout randomization metadata
  kSyscall,         // Figure 6: TASR-style / allocator metadata
};

const char* DomainScenarioName(DomainScenario scenario);

ExperimentResult RunDomainBasedExperimentFull(const SpecProfile& profile,
                                              core::TechniqueKind kind, DomainScenario scenario,
                                              const ExperimentOptions& options = {});
double RunDomainBasedExperiment(const SpecProfile& profile, core::TechniqueKind kind,
                                DomainScenario scenario, const ExperimentOptions& options = {});

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

// The mprotect baseline (Section 1: "20-50x in our experiments") on the
// call/ret scenario.
double RunMprotectBaseline(const SpecProfile& profile, const ExperimentOptions& options = {});

// Synthesis is independent of the technique and the isolation flag, so the
// suite's cells re-derive byte-identical modules dozens of times per
// profile. This returns a copy of a cached module, keyed on every
// SpecProfile and SynthOptions field, so it always equals what
// workloads::SynthesizeSpecProgram would build. The cached module was
// verified once and the copy carries that memo (ir::Module::verified()).
// Shared with the suite workloads (e.g. the SafeStack case study).
ir::Module SynthesizeSpecProgramCached(const SpecProfile& profile,
                                       const workloads::SynthOptions& synth);

// The same cached module without the copy, for runs that never rewrite it.
std::shared_ptr<const ir::Module> SharedSpecProgram(const SpecProfile& profile,
                                                    const workloads::SynthOptions& synth);

// Feeds every SpecProfile field into a recipe hasher, for memo keys built
// outside figures.cc.
void HashSpecProfile(RunKeyHasher& h, const SpecProfile& profile);

}  // namespace memsentry::eval

#endif  // MEMSENTRY_SRC_EVAL_FIGURES_H_
