// Figure-family workloads: fig3/4/5/6, the mprotect baseline, the crypt
// region-size sweep and the SafeStack case study. Cell granularity is one
// (configuration, benchmark) experiment — the unit the engine steals across
// workers — and assembly reproduces the monolithic sweeps' floating-point
// accumulation order exactly (eval::AssembleFigureSeries), so the metric
// stream is bit-identical to the historical binaries for every schedule.
#include <cmath>
#include <optional>

#include "src/base/stats_util.h"
#include "src/core/memsentry.h"
#include "src/defenses/safestack.h"
#include "src/sim/executor.h"
#include "src/suite/suite_internal.h"
#include "src/suite/workloads.h"
#include "src/workloads/spec_profiles.h"
#include "src/workloads/synth.h"

namespace memsentry::suite {
namespace {

using eval::ReportBuilder;
using eval::Workload;
using eval::WorkloadCell;
using eval::WorkloadOptions;

// --- fig3..fig6 ------------------------------------------------------------

struct FigureSpec {
  const char* name;    // workload name
  const char* prefix;  // metric prefix
  const char* title;   // PrintHeader banner
  bool address;        // fig3 (address sweep) vs fig4..6 (domain sweep)
  eval::DomainScenario scenario;
  std::vector<double> paper;
};

const std::vector<FigureSpec>& FigureSpecs() {
  static const std::vector<FigureSpec>* specs = new std::vector<FigureSpec>{
      {"fig3_address", "fig3",
       "Figure 3 — address-based isolation (MPX vs SFI), all loads/stores instrumented",
       true, eval::DomainScenario::kCallRet, {1.028, 1.040, 1.120, 1.171, 1.147, 1.196}},
      {"fig4_callret", "fig4",
       "Figure 4 — domain-based isolation at every call+ret (shadow stack)",
       false, eval::DomainScenario::kCallRet, {2.30, 4.57, 3.17}},
      {"fig5_indirect", "fig5",
       "Figure 5 — domain-based isolation at every indirect branch (CFI)",
       false, eval::DomainScenario::kIndirectBranch, {1.34, 1.82, 1.60}},
      {"fig6_syscall", "fig6",
       "Figure 6 — domain-based isolation at every system call",
       false, eval::DomainScenario::kSyscall, {1.011, 1.055, 1.22}},
  };
  return *specs;
}

size_t FigureConfigCount(const FigureSpec& spec) {
  return spec.address ? eval::AddressSweepConfigs().size() : eval::DomainSweepConfigs().size();
}

const char* FigureConfigName(const FigureSpec& spec, size_t c) {
  return spec.address ? eval::AddressSweepConfigs()[c].name : eval::DomainSweepConfigs()[c].name;
}

Workload MakeFigureWorkload(const FigureSpec& spec) {
  Workload workload;
  workload.name = spec.name;
  workload.cells = [&spec](const WorkloadOptions&) {
    std::vector<WorkloadCell> cells;
    const auto profiles = workloads::SpecCpu2006();
    for (size_t c = 0; c < FigureConfigCount(spec); ++c) {
      for (size_t p = 0; p < profiles.size(); ++p) {
        WorkloadCell cell;
        cell.name = std::string(FigureConfigName(spec, c)) + "/" + profiles[p].name;
        cell.run = [&spec, c, p](const WorkloadOptions& options) {
          const auto cell_profiles = workloads::SpecCpu2006();
          eval::ExperimentResult result;
          if (spec.address) {
            const eval::AddressSweepConfig& config = eval::AddressSweepConfigs()[c];
            result = eval::RunAddressBasedExperimentFull(cell_profiles[p], config.kind,
                                                         config.mode, options.experiment);
          } else {
            const eval::DomainSweepConfig& config = eval::DomainSweepConfigs()[c];
            result = eval::RunDomainBasedExperimentFull(cell_profiles[p], config.kind,
                                                        spec.scenario, options.experiment);
          }
          return ExperimentToJson(result);
        };
        cells.push_back(std::move(cell));
      }
    }
    return cells;
  };
  workload.assemble = [&spec](const WorkloadOptions& options,
                              const std::vector<json::Value>& payloads,
                              ReportBuilder& report) {
    std::vector<const char*> names;
    for (size_t c = 0; c < FigureConfigCount(spec); ++c) {
      names.push_back(FigureConfigName(spec, c));
    }
    std::vector<eval::ExperimentResult> cells;
    cells.reserve(payloads.size());
    for (const json::Value& payload : payloads) {
      cells.push_back(ExperimentFromJson(payload));
    }
    const auto series =
        eval::AssembleFigureSeries(names, workloads::SpecCpu2006().size(), cells);
    if (options.print) {
      PrintHeader(spec.title);
      PrintFigure(series, spec.paper);
    }
    report.AddFigure(spec.prefix, series, spec.paper);
    return 0;
  };
  return workload;
}

// --- mprotect_baseline -----------------------------------------------------

Workload MakeMprotectBaseline() {
  Workload workload;
  workload.name = "mprotect_baseline";
  workload.cells = [](const WorkloadOptions&) {
    std::vector<WorkloadCell> cells;
    const auto profiles = workloads::SpecCpu2006();
    for (size_t p = 0; p < profiles.size(); ++p) {
      WorkloadCell cell;
      cell.name = profiles[p].name;
      cell.run = [p](const WorkloadOptions& options) {
        const auto r = eval::RunDomainBasedExperimentFull(
            workloads::SpecCpu2006()[p], core::TechniqueKind::kMprotect,
            eval::DomainScenario::kCallRet, options.experiment);
        return ExperimentToJson(r);
      };
      cells.push_back(std::move(cell));
    }
    return cells;
  };
  workload.assemble = [](const WorkloadOptions& options,
                         const std::vector<json::Value>& payloads, ReportBuilder& report) {
    if (options.print) {
      PrintHeader("mprotect baseline — page-protection toggling at every call+ret");
      std::printf("%-16s %12s\n", "benchmark", "normalized");
    }
    const auto profiles = workloads::SpecCpu2006();
    std::vector<double> values;
    double total_cycles = 0;
    for (size_t p = 0; p < profiles.size(); ++p) {
      const eval::ExperimentResult r = ExperimentFromJson(payloads[p]);
      values.push_back(r.normalized);
      total_cycles += r.prot_cycles;
      report.AddFidelity("mprotect/norm/" + profiles[p].name, r.normalized,
                         eval::kPerBenchmarkTol);
      if (options.print) {
        std::printf("%-16s %12.1f\n", profiles[p].name.c_str(), r.normalized);
      }
    }
    if (options.print) {
      std::printf("%-16s %12.1f   (paper: 20-50x)\n", "geomean", GeoMean(values));
    }
    report.AddFidelity("mprotect/geomean", GeoMean(values), eval::kGeomeanTol, NAN,
                       "paper: 20-50x on call-dense benchmarks");
    report.AddPerf("mprotect/cycles/total", total_cycles);
    return 0;
  };
  return workload;
}

// --- crypt_size_sweep ------------------------------------------------------

const std::vector<uint64_t>& CryptSizes() {
  static const std::vector<uint64_t>* sizes =
      new std::vector<uint64_t>{16, 32, 64, 128, 256, 512, 1024, 2048};
  return *sizes;
}

Workload MakeCryptSizeSweep() {
  Workload workload;
  workload.name = "crypt_size_sweep";
  workload.cells = [](const WorkloadOptions&) {
    std::vector<WorkloadCell> cells;
    for (size_t i = 0; i < CryptSizes().size(); ++i) {
      WorkloadCell cell;
      cell.name = std::to_string(CryptSizes()[i]);
      cell.run = [i](const WorkloadOptions& options) {
        // One-size sweep: RunCryptSizeSweep's cells are independent, so the
        // single-point call is bit-identical to the full sweep's i-th point.
        const auto points = eval::RunCryptSizeSweep(
            *workloads::FindProfile("401.bzip2"), {CryptSizes()[i]}, options.experiment);
        json::Value payload = json::Value::Object();
        payload.Set("ok", !points.empty());
        if (!points.empty()) {
          payload.Set("region_bytes", points[0].region_bytes);
          payload.Set("normalized", points[0].normalized);
          payload.Set("prot_cycles", points[0].prot_cycles);
          payload.Set("instructions", points[0].instructions);
        }
        return payload;
      };
      cells.push_back(std::move(cell));
    }
    return cells;
  };
  workload.assemble = [](const WorkloadOptions& options,
                         const std::vector<json::Value>& payloads, ReportBuilder& report) {
    if (options.print) {
      PrintHeader("crypt region-size sweep (call/ret scenario, 401.bzip2)");
      std::printf("%12s %14s %18s\n", "region bytes", "normalized", "overhead vs 16 B");
    }
    double base_overhead = 0;
    for (const json::Value& payload : payloads) {
      if (!payload.BoolOr("ok", false)) {
        continue;  // failed sizes drop out in input order, like the sweep
      }
      const uint64_t region_bytes = static_cast<uint64_t>(payload.NumberOr("region_bytes", 0));
      const double normalized = payload.NumberOr("normalized", 0);
      if (region_bytes == 16) {
        base_overhead = normalized - 1.0;
      }
      const double relative = base_overhead > 0 ? (normalized - 1.0) / base_overhead : 1.0;
      const std::string bytes = std::to_string(region_bytes);
      report.AddFidelity("crypt_sweep/norm/" + bytes, normalized, eval::kPerBenchmarkTol);
      report.AddPerf("crypt_sweep/cycles/" + bytes, payload.NumberOr("prot_cycles", 0));
      report.AddSimulatedInstructions(payload.NumberOr("instructions", 0));
      if (region_bytes == 1024) {
        report.AddFidelity("crypt_sweep/relative_overhead_1024", relative,
                           eval::kPerBenchmarkTol, NAN,
                           "paper: ~15x total overhead at 1024 bytes, linear growth");
      }
      if (options.print) {
        std::printf("%12llu %14.2f %17.1fx\n",
                    static_cast<unsigned long long>(region_bytes), normalized, relative);
      }
    }
    if (options.print) {
      std::printf("(paper: linear growth; ~15x total at 1024 bytes)\n");
    }
    return 0;
  };
  return workload;
}

// --- safestack_casestudy ---------------------------------------------------

double RunSafeStack(const workloads::SpecProfile& profile, core::TechniqueKind kind,
                    const eval::ExperimentOptions& options) {
  // Baseline: plain program, ordinary stack. Nothing below reads the
  // technique — the MPX and SFI columns run the same baseline — so under the
  // engine's run memo it executes once per (profile, budget) and replays
  // thereafter. The recipe key hashes exactly the inputs this block reads: a
  // domain tag, every profile field, and the synthesis/run budgets.
  double base_cycles = 0;
  {
    eval::RunKeyHasher h;
    h.Str("safestack/base");
    eval::HashSpecProfile(h, profile);
    h.U64(options.target_instructions);
    h.U64(sim::RunConfig{}.max_instructions);
    const eval::RunMemo::Key key = h.Finish();
    std::optional<eval::RunMemo::Result> hit;
    if (eval::RunMemo::Enabled()) {
      hit = eval::RunMemo::Global().Lookup(key);
    }
    if (hit) {
      if (!hit->ok) return -1;
      base_cycles = hit->cycles;
    } else {
      sim::Machine machine;
      sim::Process process(&machine);
      (void)workloads::PrepareWorkloadProcess(process, profile);
      workloads::SynthOptions synth;
      synth.target_instructions = options.target_instructions;
      const std::shared_ptr<const ir::Module> module = eval::SharedSpecProgram(profile, synth);
      sim::Executor executor(&process, module.get());
      auto result = executor.Run();
      if (eval::RunMemo::Enabled()) {
        eval::RunMemo::Global().Insert(
            key, eval::RunMemo::Result{result.halted, result.cycles, result.instructions});
      }
      if (!result.halted) return -1;
      base_cycles = result.cycles;
    }
  }
  // SafeStack + MemSentry: stack relocated above the split, all explicit
  // stores instrumented; implicit call/ret pushes stay exempt.
  sim::Machine machine;
  sim::Process process(&machine);
  (void)workloads::PrepareWorkloadProcess(process, profile);
  core::MemSentryConfig config;
  config.technique = kind;
  config.options.mode = core::ProtectMode::kWriteOnly;
  core::MemSentry ms(&process, config);
  auto base = defenses::SafeStackDefense::Install(process, ms.allocator());
  if (!base.ok()) return -1;
  workloads::SynthOptions synth;
  synth.target_instructions = options.target_instructions;
  ir::Module module = eval::SynthesizeSpecProgramCached(profile, synth);
  if (!ms.Protect(module).ok()) return -1;
  sim::Executor executor(&process, &module);
  auto result = executor.Run();
  if (!result.halted) return -1;
  return result.cycles / base_cycles;
}

Workload MakeSafeStackCaseStudy() {
  Workload workload;
  workload.name = "safestack_casestudy";
  workload.cells = [](const WorkloadOptions&) {
    std::vector<WorkloadCell> cells;
    const auto profiles = workloads::SpecCpu2006();
    for (size_t p = 0; p < profiles.size(); ++p) {
      WorkloadCell cell;
      cell.name = profiles[p].name;
      cell.run = [p](const WorkloadOptions& options) {
        const auto& profile = workloads::SpecCpu2006()[p];
        json::Value payload = json::Value::Object();
        payload.Set("mpx",
                    RunSafeStack(profile, core::TechniqueKind::kMpx, options.experiment));
        payload.Set("sfi",
                    RunSafeStack(profile, core::TechniqueKind::kSfi, options.experiment));
        return payload;
      };
      cells.push_back(std::move(cell));
    }
    return cells;
  };
  workload.assemble = [](const WorkloadOptions& options,
                         const std::vector<json::Value>& payloads, ReportBuilder& report) {
    if (options.print) {
      PrintHeader("SafeStack case study — MemSentry-hardened production shadow stack");
      std::printf("%-16s %10s %10s\n", "benchmark", "MPX-w", "SFI-w");
    }
    const auto profiles = workloads::SpecCpu2006();
    std::vector<double> mpx, sfi;
    for (size_t p = 0; p < profiles.size(); ++p) {
      const double m = payloads[p].NumberOr("mpx", -1);
      const double s = payloads[p].NumberOr("sfi", -1);
      mpx.push_back(m);
      sfi.push_back(s);
      report.AddFidelity("safestack/norm/MPX-w/" + profiles[p].name, m,
                         eval::kPerBenchmarkTol);
      report.AddFidelity("safestack/norm/SFI-w/" + profiles[p].name, s,
                         eval::kPerBenchmarkTol);
      if (options.print) {
        std::printf("%-16s %10.2f %10.2f\n", profiles[p].name.c_str(), m, s);
      }
    }
    if (options.print) {
      std::printf("%-16s %10.3f %10.3f\n", "geomean", GeoMean(mpx), GeoMean(sfi));
      std::printf(
          "(paper: identical to Figure 3 -w: MPX 1.028, SFI 1.040 — SafeStack itself\n");
      std::printf(" introduces no additional overhead)\n");
    }
    report.AddFidelity("safestack/geomean/MPX-w", GeoMean(mpx), eval::kGeomeanTol, 1.028);
    report.AddFidelity("safestack/geomean/SFI-w", GeoMean(sfi), eval::kGeomeanTol, 1.040);
    return 0;
  };
  return workload;
}

}  // namespace

void RegisterFigureWorkloads(eval::WorkloadRegistry& registry) {
  for (const FigureSpec& spec : FigureSpecs()) {
    registry.Register(MakeFigureWorkload(spec));
  }
  registry.Register(MakeMprotectBaseline());
  registry.Register(MakeCryptSizeSweep());
  registry.Register(MakeSafeStackCaseStudy());
}

}  // namespace memsentry::suite
