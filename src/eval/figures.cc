#include "src/eval/figures.h"

#include <memory>
#include <mutex>
#include <unordered_map>

#include "src/base/stats_util.h"
#include "src/core/memsentry.h"
#include "src/defenses/event_annotator.h"
#include "src/defenses/safestack.h"
#include "src/defenses/shadow_stack.h"
#include "src/eval/run_memo.h"
#include "src/ir/pass.h"
#include "src/ir/verifier.h"
#include "src/sim/executor.h"
#include "src/workloads/synth.h"

namespace memsentry::eval {

using workloads::PrepareWorkloadProcess;
using workloads::SpecCpu2006;
using workloads::SynthesizeSpecProgram;
using workloads::SynthOptions;
namespace {

RunMemo::Result Execute(sim::Process& process, const ir::Module& module,
                        const sim::RunConfig& config = {}) {
  sim::Executor executor(&process, &module);
  const sim::RunResult result = executor.Run(config);
  return RunMemo::Result{result.halted && !result.fault.has_value(), result.cycles,
                         result.instructions};
}

// One synthesized program per (profile, synthesis options): synthesis reads
// neither the technique nor the isolation flag, so the engine's cells
// re-derive byte-identical modules dozens of times per profile. Entries are
// immutable and shared: a run copies one only before a pass rewrites it.
// Each is verified once, when cached, and copies carry that memo. The key
// covers every SpecProfile and SynthOptions field, so a hit is exactly the
// module synthesis would return; entries stay valid across engine runs in
// one process (serve mode reuses them).
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

std::shared_ptr<const ir::Module> CachedSynthesize(const SpecProfile& profile,
                                                   uint64_t target_instructions,
                                                   uint64_t seed) {
  SynthOptions synth;
  synth.target_instructions = target_instructions;
  synth.seed = seed;
  return CachedSynthesize(profile, synth);
}

// Allocates the defense's metadata region (none when bytes == 0) and applies
// a size override; returns the region's base (0 when there is none).
StatusOr<VirtAddr> AllocRegion(core::SafeRegionAllocator& allocator, uint64_t bytes,
                               uint64_t size_override) {
  if (bytes == 0) {
    return VirtAddr{0};
  }
  MEMSENTRY_ASSIGN_OR_RETURN(sim::SafeRegion * region,
                             allocator.Alloc("defense-metadata", bytes));
  if (size_override != 0) {
    region->size = size_override;
  }
  return region->base;
}

// The defense's module pass, through a PassManager so the defended module
// is verified once before the MemSentry pass reads it. kNone and kSafeStack
// rewrite nothing here.
Status RunDefensePass(Defense defense, VirtAddr region_base, ir::Module& module) {
  ir::PassManager passes;
  switch (defense) {
    case Defense::kNone:
    case Defense::kSafeStack:
      return OkStatus();
    case Defense::kShadowStack:
      passes.Add(std::make_unique<defenses::ShadowStackPass>(region_base));
      break;
    case Defense::kIndirectBranch:
      passes.Add(std::make_unique<defenses::EventAnnotatorPass>(
          defenses::EventKind::kIndirectBranch, region_base));
      break;
    case Defense::kSyscall:
      passes.Add(std::make_unique<defenses::EventAnnotatorPass>(defenses::EventKind::kSyscall,
                                                                region_base));
      break;
  }
  return passes.Run(module);
}

RunMemo::Result RunBaselineUncached(const BaselineRecipe& b) {
  sim::Machine machine;
  sim::Process process(&machine);
  if (!PrepareWorkloadProcess(process, b.profile).ok()) {
    return {};
  }
  // region_bytes is already rounded, so any technique with the same
  // placement reproduces the region: SFI (granularity 1) for deterministic
  // placement, InfoHide (whose granularity rounded it) for mmap placement.
  core::SafeRegionAllocator allocator(
      &process, b.info_hide_placement ? core::TechniqueKind::kInfoHide : core::TechniqueKind::kSfi);
  const StatusOr<VirtAddr> region_base = AllocRegion(allocator, b.region_bytes, b.region_size);
  if (!region_base.ok()) {
    return {};
  }
  const std::shared_ptr<const ir::Module> synthesized =
      CachedSynthesize(b.profile, b.target_instructions, b.seed);
  sim::RunConfig config;
  config.max_instructions = b.max_instructions;
  if (b.defense == Defense::kNone) {
    return Execute(process, *synthesized, config);
  }
  ir::Module module = *synthesized;
  if (!RunDefensePass(b.defense, *region_base, module).ok()) {
    return {};
  }
  return Execute(process, module, config);
}

}  // namespace

CellRecipe ExperimentRecipe(const SpecProfile& profile, core::TechniqueKind kind,
                            Defense defense, const ExperimentOptions& options) {
  CellRecipe recipe;
  recipe.profile = profile;
  recipe.technique = kind;
  recipe.instrument = options.instrument;
  recipe.defense = defense;
  // The paper's crypt figures protect "a single native 128-bit value";
  // page-granular techniques get a page.
  recipe.region_bytes = kind == core::TechniqueKind::kCrypt ? 16 : 4096;
  recipe.target_instructions = options.target_instructions;
  recipe.seed = options.seed;
  return recipe;
}

BaselineRecipe BaselineOf(const CellRecipe& recipe) {
  BaselineRecipe b;
  b.profile = recipe.profile;
  // SafeStack's baseline is the program on its ordinary stack.
  b.defense = recipe.defense == Defense::kSafeStack ? Defense::kNone : recipe.defense;
  b.target_instructions = recipe.target_instructions;
  b.seed = recipe.seed;
  if (recipe.region_bytes != 0) {
    const uint64_t granularity = core::CreateTechnique(recipe.technique)->limits().granularity;
    b.region_bytes = (recipe.region_bytes + granularity - 1) / granularity * granularity;
    b.info_hide_placement = recipe.technique == core::TechniqueKind::kInfoHide;
  }
  b.region_size = recipe.region_size;
  b.max_instructions = sim::RunConfig{}.max_instructions;
  return b;
}

RunMemo::Key BaselineRecipe::Key() const {
  RunKeyHasher h;
  HashSpecProfile(h, profile);
  h.U64(static_cast<uint64_t>(defense));
  h.U64(target_instructions);
  h.U64(seed);
  h.U64(region_bytes);
  h.U64(info_hide_placement);
  h.U64(region_size);
  h.U64(max_instructions);
  return h.Finish();
}

// Consults the run memo before any work: a hit replays the recorded outcome
// without synthesizing, preparing, or interpreting anything.
RunMemo::Result RunBaseline(const BaselineRecipe& baseline) {
  if (!RunMemo::Enabled()) {
    return RunBaselineUncached(baseline);
  }
  RunMemo& memo = RunMemo::Global();
  const RunMemo::Key key = baseline.Key();
  if (const auto hit = memo.Lookup(key)) {
    return *hit;
  }
  const RunMemo::Result run = RunBaselineUncached(baseline);
  memo.Insert(key, run);
  return run;
}

PreparedCell PrepareCell(const CellRecipe& recipe) {
  PreparedCell cell;
  cell.machine = std::make_unique<sim::Machine>();
  cell.process = std::make_unique<sim::Process>(cell.machine.get());
  sim::Process& process = *cell.process;
  cell.status = [&]() -> Status {
    if (recipe.technique == core::TechniqueKind::kVmfunc) {
      // Dune wraps the whole process; its residual cost (syscall->hypercall,
      // nested walks) is part of VMFUNC's overhead, as in the paper.
      MEMSENTRY_RETURN_IF_ERROR(process.EnableDune());
    }
    MEMSENTRY_RETURN_IF_ERROR(PrepareWorkloadProcess(process, recipe.profile));
    core::MemSentryConfig config;
    config.technique = recipe.technique;
    config.options = recipe.instrument;
    core::MemSentry memsentry(&process, config);
    MEMSENTRY_ASSIGN_OR_RETURN(
        const VirtAddr region_base,
        AllocRegion(memsentry.allocator(), recipe.region_bytes, recipe.region_size));
    if (recipe.region_size != 0) {
      // Map the pages a grown region needs beyond its allocation.
      const uint64_t mapped = PageAlignUp(recipe.region_bytes) >> kPageShift;
      const uint64_t needed = PageAlignUp(recipe.region_size) >> kPageShift;
      if (needed > mapped) {
        MEMSENTRY_RETURN_IF_ERROR(process.MapRange(region_base + mapped * kPageSize,
                                                   needed - mapped,
                                                   machine::PageFlags::Data()));
      }
    }
    if (recipe.defense == Defense::kSafeStack) {
      MEMSENTRY_RETURN_IF_ERROR(
          defenses::SafeStackDefense::Install(process, memsentry.allocator()).status());
    }
    cell.module = *CachedSynthesize(recipe.profile, recipe.target_instructions, recipe.seed);
    MEMSENTRY_RETURN_IF_ERROR(RunDefensePass(recipe.defense, region_base, cell.module));
    return memsentry.Protect(cell.module);
  }();
  return cell;
}

ExperimentResult RunExperiment(const CellRecipe& recipe) {
  const RunMemo::Result base = RunBaseline(BaselineOf(recipe));
  if (!base.ok) {
    return {};
  }
  PreparedCell cell = PrepareCell(recipe);
  if (!cell.status.ok()) {
    return {};
  }
  const RunMemo::Result isolated = Execute(*cell.process, cell.module);
  if (!isolated.ok) {
    return {};
  }
  return ExperimentResult{isolated.cycles / base.cycles, base.cycles, isolated.cycles,
                          static_cast<double>(base.instructions),
                          static_cast<double>(isolated.instructions)};
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

// Every (config, profile) cell builds its own machines and processes from
// the deterministic seed (inside RunExperiment), so the cells of a sweep are
// independent; the campaign engine runs suite cells in parallel, and these
// whole-figure sweeps are plain loops.
std::vector<FigureSeries> RunFigure3(const ExperimentOptions& options) {
  const auto profiles = SpecCpu2006();
  std::vector<const char*> names;
  std::vector<ExperimentResult> cells;
  for (const AddressSweepConfig& config : AddressSweepConfigs()) {
    names.push_back(config.name);
    ExperimentOptions configured = options;
    configured.instrument.mode = config.mode;
    for (const SpecProfile& profile : profiles) {
      cells.push_back(
          RunExperiment(ExperimentRecipe(profile, config.kind, Defense::kNone, configured)));
    }
  }
  return AssembleFigureSeries(names, profiles.size(), cells);
}

namespace {

std::vector<FigureSeries> SweepDomain(Defense defense, const ExperimentOptions& options) {
  const auto profiles = SpecCpu2006();
  std::vector<const char*> names;
  std::vector<ExperimentResult> cells;
  for (const DomainSweepConfig& config : DomainSweepConfigs()) {
    names.push_back(config.name);
    for (const SpecProfile& profile : profiles) {
      cells.push_back(RunExperiment(ExperimentRecipe(profile, config.kind, defense, options)));
    }
  }
  return AssembleFigureSeries(names, profiles.size(), cells);
}

}  // namespace

std::vector<FigureSeries> RunFigure4(const ExperimentOptions& options) {
  return SweepDomain(Defense::kShadowStack, options);
}
std::vector<FigureSeries> RunFigure5(const ExperimentOptions& options) {
  return SweepDomain(Defense::kIndirectBranch, options);
}
std::vector<FigureSeries> RunFigure6(const ExperimentOptions& options) {
  return SweepDomain(Defense::kSyscall, options);
}

std::vector<CryptSizePoint> RunCryptSizeSweep(const SpecProfile& profile,
                                              const std::vector<uint64_t>& sizes,
                                              const ExperimentOptions& options) {
  // Failed sizes are skipped; the rest keep input order.
  std::vector<CryptSizePoint> points;
  for (const uint64_t size : sizes) {
    CellRecipe recipe =
        ExperimentRecipe(profile, core::TechniqueKind::kCrypt, Defense::kShadowStack, options);
    recipe.region_size = size;
    const ExperimentResult r = RunExperiment(recipe);
    if (r.ok()) {
      points.push_back(CryptSizePoint{size, r.normalized, r.prot_cycles,
                                      r.base_instructions + r.prot_instructions});
    }
  }
  return points;
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

}  // namespace memsentry::eval
