#include "src/eval/figures.h"

#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "src/base/stats_util.h"
#include "src/core/memsentry.h"
#include "src/defenses/event_annotator.h"
#include "src/defenses/shadow_stack.h"
#include "src/eval/run_memo.h"
#include "src/ir/verifier.h"
#include "src/sim/executor.h"
#include "src/workloads/synth.h"

namespace memsentry::eval {

using workloads::PrepareWorkloadProcess;
using workloads::SpecCpu2006;
using workloads::SynthesizeSpecProgram;
using workloads::SynthOptions;
namespace {

struct Run {
  bool ok = false;
  Cycles cycles = 0;
  uint64_t instructions = 0;
};

Run Execute(sim::Process& process, const ir::Module& module) {
  sim::Executor executor(&process, &module);
  const sim::RunResult result = executor.Run(sim::RunConfig{});
  return Run{result.halted && !result.fault.has_value(), result.cycles, result.instructions};
}

std::shared_ptr<const ir::Module> CachedSynthesize(const SpecProfile& profile,
                                                   const SynthOptions& synth);

// Baseline: the synthesized program plus (for domain scenarios) the defense
// pass, but no isolation. The paper's SafeStack observation holds here too:
// the defense's own cost appears in both numerator and denominator.
struct Pipeline {
  sim::Machine machine;
  std::unique_ptr<sim::Process> process;
  std::unique_ptr<core::MemSentry> memsentry;
  // The cached synthesized module, shared read-only: a pipeline that runs
  // no pass (the address-based baseline) executes it as it is.
  std::shared_ptr<const ir::Module> synthesized;
  // This pipeline's own copy, made before the first pass rewrites it.
  std::optional<ir::Module> rewritten;
  VirtAddr region_base = 0;

  Pipeline(const SpecProfile& profile, core::TechniqueKind kind,
           const ExperimentOptions& options, bool with_isolation) {
    process = std::make_unique<sim::Process>(&machine);
    if (with_isolation && kind == core::TechniqueKind::kVmfunc) {
      // Dune wraps the whole process; its residual cost (syscall->hypercall,
      // nested walks) is part of VMFUNC's overhead, as in the paper.
      Status dune = process->EnableDune();
      (void)dune;
    }
    Status prepared = PrepareWorkloadProcess(*process, profile);
    (void)prepared;
    core::MemSentryConfig config;
    config.technique = kind;
    config.options = options.instrument;
    memsentry = std::make_unique<core::MemSentry>(process.get(), config);
    // The paper's crypt figures protect "a single native 128-bit value";
    // page-granular techniques get a page.
    const uint64_t region_bytes = kind == core::TechniqueKind::kCrypt ? 16 : 4096;
    auto region = memsentry->allocator().Alloc("defense-metadata", region_bytes);
    if (region.ok()) {
      region_base = region.value()->base;
    }
    SynthOptions synth;
    synth.target_instructions = options.target_instructions;
    synth.seed = options.seed;
    synthesized = CachedSynthesize(profile, synth);
  }

  const ir::Module& module() const { return rewritten ? *rewritten : *synthesized; }
  ir::Module& MutableModule() {
    if (!rewritten) {
      rewritten.emplace(*synthesized);
    }
    return *rewritten;
  }

  Status Protect() { return memsentry->Protect(MutableModule()); }
};

Status RunDefensePass(ir::ModulePass& pass, ir::Module& module) {
  MEMSENTRY_RETURN_IF_ERROR(pass.Run(module));
  module.Touch();  // a new module state: Protect verifies it before its pass
  return OkStatus();
}

Status ApplyDefense(Pipeline& p, DomainScenario scenario) {
  switch (scenario) {
    case DomainScenario::kCallRet: {
      defenses::ShadowStackPass pass(p.region_base);
      return RunDefensePass(pass, p.MutableModule());
    }
    case DomainScenario::kIndirectBranch: {
      defenses::EventAnnotatorPass pass(defenses::EventKind::kIndirectBranch, p.region_base);
      return RunDefensePass(pass, p.MutableModule());
    }
    case DomainScenario::kSyscall: {
      defenses::EventAnnotatorPass pass(defenses::EventKind::kSyscall, p.region_base);
      return RunDefensePass(pass, p.MutableModule());
    }
  }
  return OkStatus();
}

// Recipe key for a baseline (with_isolation == false) pipeline. A baseline
// never calls Protect(), so of the technique under evaluation it observes
// only what SafeRegionAllocator::Alloc reads: the requested region size
// (16 bytes for crypt, one page otherwise), the technique's granularity
// rounding, and whether placement is InfoHide's probabilistic mmap. Keying
// on that effective geometry — rather than the raw kind — is what lets the
// MPK and VMFUNC columns of a domain figure, and cross-workload repeats
// like the mprotect baseline sweep, share one baseline per profile.
// Everything else the pipeline constructor, the defense pass, and the
// executor read is hashed explicitly: all profile fields, the synthesis
// seed and budget, the scenario, and the run budget. instrument options are
// deliberately absent — only Protect() reads them.
RunMemo::Key BaselineRecipeKey(const SpecProfile& profile, core::TechniqueKind kind,
                               int scenario_tag, const ExperimentOptions& options,
                               uint64_t region_size_override) {
  const uint64_t region_bytes = kind == core::TechniqueKind::kCrypt ? 16 : 4096;
  const uint64_t granularity = core::CreateTechnique(kind)->limits().granularity;
  const uint64_t rounded = (region_bytes + granularity - 1) / granularity * granularity;
  RunKeyHasher h;
  HashSpecProfile(h, profile);
  h.U64(static_cast<uint64_t>(scenario_tag) + 1);  // -1 == address-based
  h.U64(options.target_instructions);
  h.U64(options.seed);
  h.U64(rounded);
  h.U64(kind == core::TechniqueKind::kInfoHide);
  h.U64(region_size_override);
  h.U64(sim::RunConfig{}.max_instructions);
  return h.Finish();
}

// One synthesized program per (profile, synthesis options): synthesis reads
// neither the technique nor the isolation flag, so the engine's cells
// re-derive byte-identical modules dozens of times per profile. Entries are
// immutable and shared: a pipeline copies one only before a pass rewrites
// it. Each is verified once, when cached, and copies carry that memo. The
// key covers every SpecProfile and SynthOptions field, so a hit is exactly
// the module synthesis would return; entries stay valid across engine runs
// in one process (serve mode reuses them).
std::shared_ptr<const ir::Module> CachedSynthesize(const SpecProfile& profile,
                                                   const SynthOptions& synth) {
  struct KeyHash {
    size_t operator()(const RunMemo::Key& k) const {
      return static_cast<size_t>(k.lo ^ (k.hi * 0x9e3779b97f4a7c15ULL));
    }
  };
  static std::mutex* mutex = new std::mutex();
  static auto* cache =
      new std::unordered_map<RunMemo::Key, std::shared_ptr<const ir::Module>, KeyHash>();
  RunKeyHasher h;
  HashSpecProfile(h, profile);
  h.U64(synth.target_instructions);
  h.U64(synth.seed);
  h.U64(static_cast<uint64_t>(synth.num_callees));
  h.F64(synth.safe_accesses_per_ki);
  h.U64(synth.safe_region_base);
  h.U64(synth.safe_region_size);
  const RunMemo::Key key = h.Finish();
  std::lock_guard<std::mutex> lock(*mutex);
  auto it = cache->find(key);
  if (it == cache->end()) {
    auto module = std::make_shared<ir::Module>(SynthesizeSpecProgram(profile, synth));
    if (ir::Verify(*module).ok()) {
      module->MarkVerified();
    }
    it = cache->emplace(key, std::move(module)).first;
  }
  return it->second;
}

// Consults the run memo before any pipeline work: a hit replays the
// recorded outcome without synthesizing, preparing, or interpreting
// anything.
template <typename MakeRun>
Run MemoizedBaseline(const RunMemo::Key& key, MakeRun&& make) {
  if (!RunMemo::Enabled()) {
    return make();
  }
  RunMemo& memo = RunMemo::Global();
  if (const auto hit = memo.Lookup(key)) {
    return Run{hit->ok, hit->cycles, hit->instructions};
  }
  const Run run = make();
  memo.Insert(key, RunMemo::Result{run.ok, run.cycles, run.instructions});
  return run;
}

}  // namespace

const char* DomainScenarioName(DomainScenario scenario) {
  switch (scenario) {
    case DomainScenario::kCallRet:
      return "call/ret";
    case DomainScenario::kIndirectBranch:
      return "indirect-branch";
    case DomainScenario::kSyscall:
      return "syscall";
  }
  return "?";
}

ExperimentResult RunAddressBasedExperimentFull(const SpecProfile& profile,
                                               core::TechniqueKind kind, core::ProtectMode mode,
                                               const ExperimentOptions& options) {
  // Baseline: plain program on a fresh machine.
  const Run base =
      MemoizedBaseline(BaselineRecipeKey(profile, kind, /*scenario_tag=*/-1, options, 0), [&] {
        Pipeline baseline(profile, kind, options, /*with_isolation=*/false);
        return Execute(*baseline.process, baseline.module());
      });
  if (!base.ok) {
    return {};
  }
  // Protected: same program, instrumented.
  ExperimentOptions configured = options;
  configured.instrument.mode = mode;
  Pipeline protected_run(profile, kind, configured, /*with_isolation=*/true);
  if (!protected_run.Protect().ok()) {
    return {};
  }
  const Run isolated = Execute(*protected_run.process, protected_run.module());
  if (!isolated.ok) {
    return {};
  }
  return ExperimentResult{isolated.cycles / base.cycles, base.cycles, isolated.cycles,
                          static_cast<double>(base.instructions),
                          static_cast<double>(isolated.instructions)};
}

double RunAddressBasedExperiment(const SpecProfile& profile, core::TechniqueKind kind,
                                 core::ProtectMode mode, const ExperimentOptions& options) {
  return RunAddressBasedExperimentFull(profile, kind, mode, options).normalized;
}

ExperimentResult RunDomainBasedExperimentFull(const SpecProfile& profile,
                                              core::TechniqueKind kind, DomainScenario scenario,
                                              const ExperimentOptions& options) {
  // Baseline: program + defense pass, no isolation.
  const Run base = MemoizedBaseline(
      BaselineRecipeKey(profile, kind, static_cast<int>(scenario), options, 0), [&] {
        Pipeline baseline(profile, kind, options, /*with_isolation=*/false);
        if (!ApplyDefense(baseline, scenario).ok()) {
          return Run{};
        }
        return Execute(*baseline.process, baseline.module());
      });
  if (!base.ok) {
    return {};
  }
  // Protected: defense pass + Prepare + MemSentry pass.
  Pipeline protected_run(profile, kind, options, /*with_isolation=*/true);
  if (!ApplyDefense(protected_run, scenario).ok()) {
    return {};
  }
  if (!protected_run.Protect().ok()) {
    return {};
  }
  const Run isolated = Execute(*protected_run.process, protected_run.module());
  if (!isolated.ok) {
    return {};
  }
  return ExperimentResult{isolated.cycles / base.cycles, base.cycles, isolated.cycles,
                          static_cast<double>(base.instructions),
                          static_cast<double>(isolated.instructions)};
}

double RunDomainBasedExperiment(const SpecProfile& profile, core::TechniqueKind kind,
                                DomainScenario scenario, const ExperimentOptions& options) {
  return RunDomainBasedExperimentFull(profile, kind, scenario, options).normalized;
}

const std::vector<AddressSweepConfig>& AddressSweepConfigs() {
  using core::ProtectMode;
  using core::TechniqueKind;
  static const std::vector<AddressSweepConfig>* configs = new std::vector<AddressSweepConfig>{
      {"MPX-w", TechniqueKind::kMpx, ProtectMode::kWriteOnly},
      {"SFI-w", TechniqueKind::kSfi, ProtectMode::kWriteOnly},
      {"MPX-r", TechniqueKind::kMpx, ProtectMode::kReadOnly},
      {"SFI-r", TechniqueKind::kSfi, ProtectMode::kReadOnly},
      {"MPX-rw", TechniqueKind::kMpx, ProtectMode::kReadWrite},
      {"SFI-rw", TechniqueKind::kSfi, ProtectMode::kReadWrite},
  };
  return *configs;
}

const std::vector<DomainSweepConfig>& DomainSweepConfigs() {
  using core::TechniqueKind;
  static const std::vector<DomainSweepConfig>* configs = new std::vector<DomainSweepConfig>{
      {"MPK", TechniqueKind::kMpk},
      {"VMFUNC", TechniqueKind::kVmfunc},
      {"crypt", TechniqueKind::kCrypt},
  };
  return *configs;
}

// Serial config-major assembly (cells[c * profiles + p]): sums and geomeans
// see operands in the same order as a serial sweep — floating point stays
// byte-stable no matter how the cells were scheduled. Shared by the sweeps
// below and the campaign engine's per-cell figure workloads.
std::vector<FigureSeries> AssembleFigureSeries(const std::vector<const char*>& config_names,
                                               size_t profiles,
                                               const std::vector<ExperimentResult>& cells) {
  std::vector<FigureSeries> series;
  for (size_t c = 0; c < config_names.size(); ++c) {
    FigureSeries s;
    s.config = config_names[c];
    for (size_t p = 0; p < profiles; ++p) {
      const ExperimentResult& r = cells[c * profiles + p];
      s.normalized.push_back(r.normalized);
      s.total_base_cycles += r.base_cycles;
      s.total_prot_cycles += r.prot_cycles;
      s.total_instructions += r.base_instructions + r.prot_instructions;
    }
    s.geomean = GeoMean(s.normalized);
    series.push_back(std::move(s));
  }
  return series;
}

namespace {

// Every (config, profile) cell builds its own Machine/Process/Module pair
// from the deterministic seed (inside the Run*ExperimentFull pipelines), so
// the cells of a sweep are independent; the campaign engine runs suite
// cells in parallel, and these whole-figure sweeps are plain loops.
std::vector<FigureSeries> SweepAddress(const ExperimentOptions& options) {
  const auto profiles = SpecCpu2006();
  std::vector<const char*> names;
  std::vector<ExperimentResult> cells;
  for (const AddressSweepConfig& config : AddressSweepConfigs()) {
    names.push_back(config.name);
    for (const SpecProfile& profile : profiles) {
      cells.push_back(RunAddressBasedExperimentFull(profile, config.kind, config.mode, options));
    }
  }
  return AssembleFigureSeries(names, profiles.size(), cells);
}

std::vector<FigureSeries> SweepDomain(DomainScenario scenario,
                                      const ExperimentOptions& options) {
  const auto profiles = SpecCpu2006();
  std::vector<const char*> names;
  std::vector<ExperimentResult> cells;
  for (const DomainSweepConfig& config : DomainSweepConfigs()) {
    names.push_back(config.name);
    for (const SpecProfile& profile : profiles) {
      cells.push_back(RunDomainBasedExperimentFull(profile, config.kind, scenario, options));
    }
  }
  return AssembleFigureSeries(names, profiles.size(), cells);
}

// One point of the crypt region-size sweep; region_bytes == 0 on failure.
CryptSizePoint RunCryptSizePoint(const SpecProfile& profile, uint64_t size,
                                 const ExperimentOptions& options) {
  // Baseline: defense only; the region size is irrelevant without crypt
  // but is part of the recorded state, so it keys the memo.
  const Run base = MemoizedBaseline(
      BaselineRecipeKey(profile, core::TechniqueKind::kCrypt,
                        static_cast<int>(DomainScenario::kCallRet), options, size),
      [&]() -> Run {
        Pipeline base_pipeline(profile, core::TechniqueKind::kCrypt, options, false);
        base_pipeline.process->safe_regions()[0].size = size;
        if (!ApplyDefense(base_pipeline, DomainScenario::kCallRet).ok()) {
          return {};
        }
        return Execute(*base_pipeline.process, base_pipeline.module());
      });
  // Protected with the resized region.
  Pipeline prot(profile, core::TechniqueKind::kCrypt, options, true);
  auto& region = prot.process->safe_regions()[0];
  // Grow the region (remap additional pages if needed).
  const uint64_t old_pages = PageAlignUp(region.size) >> kPageShift;
  const uint64_t new_pages = PageAlignUp(size) >> kPageShift;
  if (new_pages > old_pages) {
    (void)prot.process->MapRange(region.base + old_pages * kPageSize, new_pages - old_pages,
                                 machine::PageFlags::Data());
  }
  region.size = size;
  if (!ApplyDefense(prot, DomainScenario::kCallRet).ok()) {
    return {};
  }
  if (!prot.Protect().ok()) {
    return {};
  }
  const Run isolated = Execute(*prot.process, prot.module());
  if (!base.ok || !isolated.ok) {
    return {};
  }
  return CryptSizePoint{size, isolated.cycles / base.cycles, isolated.cycles,
                        static_cast<double>(base.instructions + isolated.instructions)};
}

}  // namespace

std::vector<FigureSeries> RunFigure3(const ExperimentOptions& options) {
  return SweepAddress(options);
}
std::vector<FigureSeries> RunFigure4(const ExperimentOptions& options) {
  return SweepDomain(DomainScenario::kCallRet, options);
}
std::vector<FigureSeries> RunFigure5(const ExperimentOptions& options) {
  return SweepDomain(DomainScenario::kIndirectBranch, options);
}
std::vector<FigureSeries> RunFigure6(const ExperimentOptions& options) {
  return SweepDomain(DomainScenario::kSyscall, options);
}

std::vector<CryptSizePoint> RunCryptSizeSweep(const SpecProfile& profile,
                                              const std::vector<uint64_t>& sizes,
                                              const ExperimentOptions& options) {
  // Failed sizes are skipped; the rest keep input order.
  std::vector<CryptSizePoint> points;
  for (const uint64_t size : sizes) {
    const CryptSizePoint point = RunCryptSizePoint(profile, size, options);
    if (point.region_bytes != 0) {
      points.push_back(point);
    }
  }
  return points;
}

double RunMprotectBaseline(const SpecProfile& profile, const ExperimentOptions& options) {
  return RunDomainBasedExperiment(profile, core::TechniqueKind::kMprotect,
                                  DomainScenario::kCallRet, options);
}

void HashSpecProfile(RunKeyHasher& h, const SpecProfile& profile) {
  h.Str(profile.name);
  h.U64(profile.is_cpp);
  h.F64(profile.loads_per_ki);
  h.F64(profile.stores_per_ki);
  h.F64(profile.calls_per_ki);
  h.F64(profile.indirect_frac);
  h.F64(profile.syscalls_per_ki);
  h.F64(profile.vec_frac);
  h.U64(static_cast<uint64_t>(profile.vec_pressure));
  h.U64(profile.ws_kb);
  h.F64(profile.cold_frac);
  h.F64(profile.mem_exposure);
}

ir::Module SynthesizeSpecProgramCached(const SpecProfile& profile, const SynthOptions& synth) {
  return *CachedSynthesize(profile, synth);
}

std::shared_ptr<const ir::Module> SharedSpecProgram(const SpecProfile& profile,
                                                    const SynthOptions& synth) {
  return CachedSynthesize(profile, synth);
}

}  // namespace memsentry::eval
