// Table workloads: the survey/applicability/limits tables, the Table 4
// microbenchmark latencies (seven section cells), and the microarchitecture
// profile (one cell per SPEC stand-in).
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/advisor.h"
#include "src/core/memsentry.h"
#include "src/core/technique.h"
#include "src/defenses/registry.h"
#include "src/ir/builder.h"
#include "src/mpx/mpx.h"
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

// --- table1_defenses ---

json::Value RunTable1Cell(const WorkloadOptions&) {
  json::Value rows = json::Value::Array();
  for (const auto& d : defenses::SurveyedDefenses()) {
    json::Value row = json::Value::Object();
    row.Set("name", d.name);
    row.Set("vuln_read", d.vuln_read);
    row.Set("vuln_write", d.vuln_write);
    row.Set("probabilistic", d.probabilistic);
    row.Set("deterministic", d.deterministic);
    row.Set("instrumentation_points", d.instrumentation_points);
    rows.Append(std::move(row));
  }
  return rows;
}

int AssembleTable1(const WorkloadOptions& options, const std::vector<json::Value>& payloads,
                   ReportBuilder& report) {
  const json::Value& rows = payloads[0];
  if (options.print) {
    std::printf("\n================================================================\n");
    std::printf("Table 1 — defense systems based on memory isolation\n");
    std::printf("================================================================\n");
    std::printf("%-14s %4s %4s %6s %5s  %s\n", "defense", "r", "w", "prob.", "det.",
                "instrumentation points");
  }
  int probabilistic = 0;
  for (const json::Value& row : rows.items()) {
    const bool prob = row.BoolOr("probabilistic", false);
    if (options.print) {
      std::printf("%-14s %4s %4s %6s %5s  %s\n", row.StringOr("name", "").c_str(),
                  row.BoolOr("vuln_read", false) ? "x" : "",
                  row.BoolOr("vuln_write", false) ? "x" : "", prob ? "x" : "",
                  row.BoolOr("deterministic", false) ? "x" : "",
                  row.StringOr("instrumentation_points", "").c_str());
    }
    probabilistic += prob ? 1 : 0;
  }
  if (options.print) {
    std::printf("\n%d of %zu surveyed defenses rely on probabilistic isolation\n", probabilistic,
                static_cast<size_t>(rows.size()));
    std::printf("(information hiding) for their safe regions — the paper's motivation.\n");
  }
  // Structural fidelity: the survey must keep matching the paper row counts.
  report.AddFidelity("table1/surveyed_defenses", static_cast<double>(rows.size()), 0.0, 13);
  report.AddFidelity("table1/probabilistic", probabilistic, 0.0, 10);
  return 0;
}

// --- table2_applicability ---

json::Value RunTable2Cell(const WorkloadOptions&) {
  using namespace memsentry::core;
  json::Value payload = json::Value::Object();
  json::Value rows = json::Value::Array();
  for (const auto& row : ApplicabilityTable()) {
    json::Value r = json::Value::Object();
    r.Set("address", row.category == Category::kAddressBased);
    r.Set("instrumentation_points", row.instrumentation_points);
    r.Set("application", row.application);
    rows.Append(std::move(r));
  }
  payload.Set("rows", std::move(rows));

  struct Named {
    const char* scenario;
    const char* key;
    ScenarioSpec spec;
  };
  const Named scenarios[] = {
      {"shadow stack (every call/ret)", "shadow_stack",
       {.point = InstrumentationPoint::kCallRet, .events_per_kinstr = 25}},
      {"CFI metadata (indirect branches)", "cfi_metadata",
       {.point = InstrumentationPoint::kIndirectBranch, .events_per_kinstr = 3,
        .region_bytes = 4096}},
      {"heap metadata (allocator calls)", "heap_metadata",
       {.point = InstrumentationPoint::kAllocatorCall, .events_per_kinstr = 0.3}},
      {"TASR pointer list (system calls)", "tasr_pointers",
       {.point = InstrumentationPoint::kSyscall, .events_per_kinstr = 0.05}},
      {"private key (16 bytes, rare use)", "private_key",
       {.point = InstrumentationPoint::kMemAccess, .events_per_kinstr = 0.1,
        .region_bytes = 16, .needs_confidentiality = true}},
      {"old CPU (2012), shadow stack", "old_cpu_shadow_stack",
       {.point = InstrumentationPoint::kCallRet, .events_per_kinstr = 25, .cpu_year = 2012}},
      {"future CPU with MPK, CFI metadata", "mpk_cfi_metadata",
       {.point = InstrumentationPoint::kIndirectBranch, .events_per_kinstr = 3,
        .mpk_available = true}},
  };
  json::Value advise = json::Value::Array();
  for (const auto& [name, key, spec] : scenarios) {
    const Recommendation rec = Advise(spec);
    json::Value a = json::Value::Object();
    a.Set("scenario", name);
    a.Set("key", key);
    a.Set("primary", static_cast<int>(rec.primary));
    a.Set("primary_name", TechniqueKindName(rec.primary));
    a.Set("rationale80", rec.rationale.substr(0, 80));
    advise.Append(std::move(a));
  }
  payload.Set("advise", std::move(advise));
  return payload;
}

int AssembleTable2(const WorkloadOptions& options, const std::vector<json::Value>& payloads,
                   ReportBuilder& report) {
  const json::Value& payload = payloads[0];
  const json::Value* rows = payload.Find("rows");
  const json::Value* advise = payload.Find("advise");
  if (options.print) {
    std::printf("\n================================================================\n");
    std::printf("Table 2 — instrumentation points and applications per isolation type\n");
    std::printf("================================================================\n");
    std::printf("%-15s %-26s %s\n", "isolation", "instrumentation points", "application");
    for (const json::Value& row : rows->items()) {
      std::printf("%-15s %-26s %s\n",
                  row.BoolOr("address", false) ? "Address-based" : "Domain-based",
                  row.StringOr("instrumentation_points", "").c_str(),
                  row.StringOr("application", "").c_str());
    }
  }
  report.AddFidelity("table2/rows", static_cast<double>(rows->size()), 0.0);

  if (options.print) {
    std::printf("\nAdvisor recommendations (Section 6.3 discussion as executable logic):\n");
  }
  for (const json::Value& a : advise->items()) {
    const std::string name = a.StringOr("scenario", "");
    const std::string primary_name = a.StringOr("primary_name", "");
    if (options.print) {
      std::printf("  %-36s -> %-8s (%s)\n", name.c_str(), primary_name.c_str(),
                  a.StringOr("rationale80", "").c_str());
    }
    // The recommended technique, as its enum index: a change in the advisor's
    // Section 6.3 mapping shifts the value and trips the fidelity gate.
    report.AddFidelity(std::string("table2/advise/") + a.StringOr("key", ""),
                       a.NumberOr("primary", -1), 0.0, NAN, primary_name);
  }
  return 0;
}

// --- table3_limits ---

json::Value RunTable3Cell(const WorkloadOptions&) {
  using namespace memsentry::core;
  json::Value rows = json::Value::Array();
  for (int k = 0; k < kNumTechniques; ++k) {
    const auto kind = static_cast<TechniqueKind>(k);
    auto technique = CreateTechnique(kind);
    const TechniqueLimits limits = technique->limits();
    json::Value row = json::Value::Object();
    row.Set("name", TechniqueKindName(kind));
    row.Set("max_domains", limits.max_domains);
    row.Set("granularity", static_cast<uint64_t>(limits.granularity));
    row.Set("hw_since_year", limits.hw_since_year);
    row.Set("notes", limits.notes);
    rows.Append(std::move(row));
  }
  return rows;
}

int AssembleTable3(const WorkloadOptions& options, const std::vector<json::Value>& payloads,
                   ReportBuilder& report) {
  if (options.print) {
    std::printf("\n================================================================\n");
    std::printf("Table 3 — limitations of memory isolation techniques\n");
    std::printf("================================================================\n");
    std::printf("%-12s %-12s %-12s %-6s %s\n", "technique", "max domains", "granularity",
                "since", "notes");
  }
  for (const json::Value& row : payloads[0].items()) {
    const double max_domains = row.NumberOr("max_domains", -1);
    const auto granularity = static_cast<uint64_t>(row.NumberOr("granularity", 0));
    const std::string name = row.StringOr("name", "");
    if (options.print) {
      char domains[16];
      if (max_domains == 0) {
        std::snprintf(domains, sizeof(domains), "unbounded");
      } else {
        std::snprintf(domains, sizeof(domains), "%d", static_cast<int>(max_domains));
      }
      char gran[16];
      if (granularity >= 4096) {
        std::snprintf(gran, sizeof(gran), "page");
      } else {
        std::snprintf(gran, sizeof(gran), "%llu bytes",
                      static_cast<unsigned long long>(granularity));
      }
      std::printf("%-12s %-12s %-12s %-6d %s\n", name.c_str(), domains, gran,
                  static_cast<int>(row.NumberOr("hw_since_year", 0)),
                  row.StringOr("notes", "").c_str());
    }
    const std::string prefix = "table3/" + name;
    report.AddFidelity(prefix + "/max_domains", max_domains, 0.0);
    report.AddFidelity(prefix + "/granularity", static_cast<double>(granularity), 0.0);
  }
  return 0;
}

// --- table4_micro ---
//
// Each section of the Table 4 microbenchmark is one cell; a cell returns the
// rows it measured as {key, name, paper, measured, model, note} so assembly
// can replay the exact Row/RowModel print + metric sequence.

using ir::Instr;
using ir::Opcode;
using machine::Gpr;
using workloads::BuildLoop;

constexpr uint64_t kIters = 10'000;

struct Env {
  sim::Machine machine;
  sim::Process process{&machine};
};

// Runs `body` as a loop and returns cycles per iteration.
double PerIteration(sim::Process& process, const std::vector<Instr>& body) {
  ir::Module module = BuildLoop(body, kIters);
  sim::Executor executor(&process, &module);
  auto result = executor.Run();
  if (!result.halted) {
    std::printf("  !! loop faulted: %s\n",
                result.fault ? result.fault->ToString().c_str() : "?");
    return -1;
  }
  return result.cycles / static_cast<double>(kIters);
}

double Delta(sim::Process& process, const std::vector<Instr>& with_op,
             const std::vector<Instr>& reference) {
  // Warm the TLB and caches first so cold walks don't pollute the delta.
  (void)PerIteration(process, with_op);
  (void)PerIteration(process, reference);
  return PerIteration(process, with_op) - PerIteration(process, reference);
}

Instr Critical(Instr instr) {
  instr.flags |= ir::kFlagCritical | ir::kFlagInstrumentation;
  return instr;
}
Instr Plain(Instr instr) {
  instr.flags |= ir::kFlagInstrumentation;
  return instr;
}

json::Value T4Row(const char* key, const char* name, const char* paper, double measured,
                  const char* note = "") {
  json::Value row = json::Value::Object();
  row.Set("key", key);
  row.Set("name", name);
  row.Set("paper", paper);
  row.Set("measured", measured);
  row.Set("model", false);
  row.Set("note", note);
  return row;
}

json::Value T4RowModel(const char* key, const char* name, const char* paper, double model) {
  json::Value row = T4Row(key, name, paper, model);
  row.Set("model", true);
  return row;
}

json::Value RunTable4ModelCell(const WorkloadOptions&) {
  const machine::CostModel cost;  // defaults = the calibrated machine
  json::Value rows = json::Value::Array();
  rows.Append(T4RowModel("l1_access", "L1 cache access", "4", cost.lat_l1));
  rows.Append(T4RowModel("l2_access", "L2 cache access", "12", cost.lat_l2));
  rows.Append(T4RowModel("l3_access", "L3 cache access", "44", cost.lat_l3));
  rows.Append(T4RowModel("dram_access", "DRAM access", "251", cost.lat_dram));
  return rows;
}

json::Value RunTable4SfiMpxCell(const WorkloadOptions&) {
  Env env;
  (void)env.process.SetupStack();
  (void)env.process.MapRange(sim::kWorkingSetBase, 4, machine::PageFlags::Data());
  const std::vector<Instr> lea_load = {
      Instr{.op = Opcode::kLea, .dst = Gpr::kR9, .src = Gpr::kR8},
      Instr{.op = Opcode::kLoad, .dst = Gpr::kRbx, .src = Gpr::kR9},
  };
  const std::vector<Instr> lea_store = {
      Instr{.op = Opcode::kLea, .dst = Gpr::kR9, .src = Gpr::kR8},
      Instr{.op = Opcode::kStore, .dst = Gpr::kR9, .src = Gpr::kRbx},
  };
  auto with = [](std::vector<Instr> seq, Instr op, size_t at = 1) {
    seq.insert(seq.begin() + static_cast<long>(at), op);
    return seq;
  };
  json::Value rows = json::Value::Array();
  rows.Append(T4Row(
      "sfi_and_load", "SFI (and, result used by load)", "0.22",
      Delta(env.process,
            with(lea_load, Critical({.op = Opcode::kAndImm, .dst = Gpr::kR9, .imm = kSfiMask})),
            lea_load),
      "(0.22 dep + 0.25 slot)"));
  rows.Append(T4Row(
      "sfi_and_store", "SFI (and, result used by store)", "0",
      Delta(env.process,
            with(lea_store, Plain({.op = Opcode::kAndImm, .dst = Gpr::kR9, .imm = kSfiMask})),
            lea_store),
      "(slot only; store buffer hides dep)"));
  env.process.regs().bnd[0] = mpx::MakeBounds(0, kPartitionSplit);
  rows.Append(T4Row(
      "mpx_single_bndcu", "MPX (single bndcu)", "<0.1",
      Delta(env.process, with(lea_load, Plain({.op = Opcode::kBndcu, .src = Gpr::kR9, .imm = 0})),
            lea_load),
      "(no pointer modification -> no dep)"));
  auto both = with(lea_load, Plain({.op = Opcode::kBndcu, .src = Gpr::kR9, .imm = 0}));
  both = with(both, Critical({.op = Opcode::kBndcl, .src = Gpr::kR9, .imm = 0}), 2);
  rows.Append(T4Row("mpx_both_bounds", "MPX (both bndcl and bndcu)", "0.50",
                    Delta(env.process, both, lea_load), "(second check serializes: +0.42)"));
  return rows;
}

json::Value RunTable4MpkCell(const WorkloadOptions&) {
  Env env;
  (void)env.process.SetupStack();
  (void)env.process.MapRange(sim::kWorkingSetBase, 4, machine::PageFlags::Data());
  const std::vector<Instr> wrpkru = {Instr{.op = Opcode::kWrpkru, .imm = 0}};
  json::Value rows = json::Value::Array();
  rows.Append(T4Row("mpk_wrpkru", "MPK (wrpkru, simulated)", "42",
                    PerIteration(env.process, wrpkru),
                    "(the paper's xmm-moves + mfence approximation)"));
  return rows;
}

json::Value RunTable4VirtCell(const WorkloadOptions&) {
  Env env;
  (void)env.process.EnableDune();
  (void)env.process.SetupStack();
  (void)env.process.MapRange(sim::kWorkingSetBase, 4, machine::PageFlags::Data());
  (void)env.process.dune()->CreateEpt();
  const std::vector<Instr> vmfunc_pair = {
      Instr{.op = Opcode::kVmFunc, .imm = 1},
      Instr{.op = Opcode::kVmFunc, .imm = 0},
  };
  json::Value rows = json::Value::Array();
  rows.Append(T4Row("vmfunc_ept_switch", "vmfunc (EPT switch)", "147",
                    PerIteration(env.process, vmfunc_pair) / 2.0));
  const std::vector<Instr> vmcall = {Instr{.op = Opcode::kVmCall, .imm = 0}};
  rows.Append(T4Row("vmcall", "vmcall", "613", PerIteration(env.process, vmcall)));
  return rows;
}

json::Value RunTable4SyscallCell(const WorkloadOptions&) {
  Env env;
  (void)env.process.SetupStack();
  (void)env.process.MapRange(sim::kWorkingSetBase, 4, machine::PageFlags::Data());
  const std::vector<Instr> syscall = {Instr{.op = Opcode::kSyscall, .imm = 0}};
  json::Value rows = json::Value::Array();
  rows.Append(T4Row("syscall", "syscall", "108", PerIteration(env.process, syscall)));
  return rows;
}

json::Value RunTable4SgxCell(const WorkloadOptions&) {
  Env env;
  (void)env.process.SetupStack();
  core::MemSentryConfig config;
  config.technique = core::TechniqueKind::kSgx;
  core::MemSentry ms(&env.process, config);
  (void)ms.allocator().Alloc("enclave-data", 4096);
  (void)ms.PrepareRuntime();
  const std::vector<Instr> crossing = {
      Instr{.op = Opcode::kEnclaveEnter, .imm = 0},
      Instr{.op = Opcode::kEnclaveExit},
  };
  json::Value rows = json::Value::Array();
  rows.Append(T4Row("sgx_ecall_roundtrip", "SGX enter + exit enclave (empty ECALL)", "7664",
                    PerIteration(env.process, crossing)));
  return rows;
}

json::Value RunTable4AesCell(const WorkloadOptions&) {
  Env env;
  (void)env.process.SetupStack();
  core::MemSentryConfig config;
  config.technique = core::TechniqueKind::kCrypt;
  core::MemSentry ms(&env.process, config);
  auto region = ms.allocator().Alloc("chunk", 16);
  (void)ms.PrepareRuntime();
  const std::vector<Instr> encdec = {
      Instr{.op = Opcode::kMovImm, .dst = Gpr::kRax, .imm = region.value()->base},
      Instr{.op = Opcode::kAesCryptRegion, .src = Gpr::kRax, .target = 0},
      Instr{.op = Opcode::kMovImm, .dst = Gpr::kRax, .imm = region.value()->base},
      Instr{.op = Opcode::kAesCryptRegion, .src = Gpr::kRax, .target = 0},
  };
  const machine::CostModel& cm = env.machine.cost;
  json::Value rows = json::Value::Array();
  rows.Append(T4Row(
      "aes_encdec_block", "AES encryption and decryption (11 rounds)", "41",
      PerIteration(env.process, encdec) - 2 * cm.ymm_to_xmm_all_keys - 2 * cm.mov_imm_slot,
      "(one 128-bit chunk, keys already in xmm)"));
  rows.Append(T4RowModel("aes_keygen10", "AES keygen (10 rounds)", "121", cm.aes_keygen10));
  rows.Append(T4RowModel("aes_imc9", "AES imc (9 rounds)", "71", cm.aes_imc9));
  rows.Append(
      T4RowModel("ymm_to_xmm_keys", "Loading ymm into xmm (11 times)", "10", cm.ymm_to_xmm_all_keys));
  return rows;
}

int AssembleTable4(const WorkloadOptions& options, const std::vector<json::Value>& payloads,
                   ReportBuilder& report) {
  if (options.print) {
    std::printf("\n================================================================\n");
    std::printf("Table 4 — microbenchmark latencies (cycles)\n");
    std::printf("================================================================\n");
    std::printf("%-46s %10s %12s\n", "instruction/operation", "paper", "measured");
  }
  for (const json::Value& cell : payloads) {
    for (const json::Value& row : cell.items()) {
      const std::string key = row.StringOr("key", "");
      const std::string paper = row.StringOr("paper", "");
      const double measured = row.NumberOr("measured", -1);
      if (row.BoolOr("model", false)) {
        if (options.print) {
          std::printf("%-46s %10s %12.2f  (machine description)\n",
                      row.StringOr("name", "").c_str(), paper.c_str(), measured);
        }
        report.AddFidelity("table4/" + key, measured, 0.0, NAN,
                           "machine description; paper: " + paper);
      } else {
        if (options.print) {
          std::printf("%-46s %10s %12.2f  %s\n", row.StringOr("name", "").c_str(), paper.c_str(),
                      measured, row.StringOr("note", "").c_str());
        }
        report.AddFidelity("table4/" + key, measured, eval::kMicroLatencyTol, NAN,
                           "paper: " + paper);
      }
    }
  }
  return 0;
}

// --- microarch_stats ---

json::Value RunMicroarchCell(size_t profile_index, const eval::ExperimentOptions& options) {
  // A fixed 300k-instruction MPX-rw build, whatever the suite's budget.
  eval::CellRecipe recipe =
      eval::ExperimentRecipe(workloads::SpecCpu2006()[profile_index], core::TechniqueKind::kMpx,
                             eval::Defense::kNone, options);
  recipe.instrument.mode = core::ProtectMode::kReadWrite;
  recipe.target_instructions = 300'000;
  eval::PreparedCell cell = eval::PrepareCell(recipe);
  sim::Process& process = *cell.process;
  sim::RunResult result;
  if (cell.status.ok()) {
    process.mmu().ResetStats();
    result = sim::Executor(&process, &cell.module).Run();
  }
  json::Value payload = json::Value::Object();
  payload.Set("halted", result.halted);
  if (!result.halted) {
    return payload;
  }
  const auto& tlb = process.mmu().tlb().stats();
  const auto& cache = process.mmu().dcache().stats();
  const auto& grants = process.mmu().grant_stats();
  payload.Set("cpi", result.Cpi());
  payload.Set("instr_share", 100.0 * static_cast<double>(result.instrumentation_instrs) /
                                 static_cast<double>(result.instructions));
  payload.Set("cycles", static_cast<double>(result.cycles));
  payload.Set("instructions", static_cast<uint64_t>(result.instructions));
  payload.Set("tlb_hit_rate", tlb.HitRate());
  payload.Set("tlb_hits", static_cast<uint64_t>(tlb.hits));
  payload.Set("tlb_misses", static_cast<uint64_t>(tlb.misses));
  payload.Set("accesses", static_cast<uint64_t>(cache.accesses));
  payload.Set("l1_hits", static_cast<uint64_t>(cache.l1_hits));
  payload.Set("l2_hits", static_cast<uint64_t>(cache.l2_hits));
  payload.Set("l3_hits", static_cast<uint64_t>(cache.l3_hits));
  payload.Set("dram_accesses", static_cast<uint64_t>(cache.dram_accesses));
  payload.Set("grant_hits", static_cast<uint64_t>(grants.hits));
  payload.Set("grant_misses", static_cast<uint64_t>(grants.misses));
  return payload;
}

int AssembleMicroarch(const WorkloadOptions& options, const std::vector<json::Value>& payloads,
                      ReportBuilder& report) {
  if (options.print) {
    PrintHeader("Workload microarchitecture — why the figures look the way they do");
    std::printf("%-16s %6s %8s %7s %7s %7s %7s %9s\n", "benchmark", "CPI", "TLB-hit", "L1%",
                "L2%", "L3%", "DRAM%", "instr.share");
  }
  // Suite-wide microarchitectural hit rates, reported as info metrics: they
  // explain the modeled cycle counts (and the translation fast path's
  // effectiveness) without gating — the fidelity/perf metrics above already
  // pin the numbers that matter.
  double tlb_hits = 0, tlb_total = 0;
  double l1_hits = 0, cache_total = 0;
  double grant_hits = 0, grant_total = 0;
  const auto profiles = workloads::SpecCpu2006();
  for (size_t p = 0; p < profiles.size(); ++p) {
    const auto& profile = profiles[p];
    const json::Value& cell = payloads[p];
    if (!cell.BoolOr("halted", false)) {
      if (options.print) {
        std::printf("%-16s  !! faulted\n", profile.name.c_str());
      }
      continue;
    }
    const double accesses = cell.NumberOr("accesses", 0);
    tlb_hits += cell.NumberOr("tlb_hits", 0);
    tlb_total += cell.NumberOr("tlb_hits", 0) + cell.NumberOr("tlb_misses", 0);
    l1_hits += cell.NumberOr("l1_hits", 0);
    cache_total += accesses;
    grant_hits += cell.NumberOr("grant_hits", 0);
    grant_total += cell.NumberOr("grant_hits", 0) + cell.NumberOr("grant_misses", 0);
    const double cpi = cell.NumberOr("cpi", 0);
    const double instr_share = cell.NumberOr("instr_share", 0);
    report.AddFidelity("microarch/cpi/" + profile.name, cpi, eval::kMicroLatencyTol);
    report.AddFidelity("microarch/instr_share/" + profile.name, instr_share,
                       eval::kPerBenchmarkTol);
    report.AddPerf("microarch/cycles/" + profile.name, cell.NumberOr("cycles", 0));
    report.AddSimulatedInstructions(cell.NumberOr("instructions", 0));
    if (options.print) {
      std::printf("%-16s %6.2f %7.1f%% %6.1f%% %6.1f%% %6.1f%% %6.1f%% %8.1f%%\n",
                  profile.name.c_str(), cpi, 100.0 * cell.NumberOr("tlb_hit_rate", 0),
                  100.0 * cell.NumberOr("l1_hits", 0) / accesses,
                  100.0 * cell.NumberOr("l2_hits", 0) / accesses,
                  100.0 * cell.NumberOr("l3_hits", 0) / accesses,
                  100.0 * cell.NumberOr("dram_accesses", 0) / accesses, instr_share);
    }
  }
  report.AddInfo("microarch/tlb_hit_rate", tlb_total > 0 ? tlb_hits / tlb_total : 0.0);
  report.AddInfo("microarch/l1_hit_rate", cache_total > 0 ? l1_hits / cache_total : 0.0);
  report.AddInfo("microarch/grant_cache_hit_rate",
                 grant_total > 0 ? grant_hits / grant_total : 0.0);
  if (options.print) {
    std::printf("\n(MPX-rw build; instr.share = fraction of executed instructions that are\n");
    std::printf(" MemSentry-inserted; memory-bound rows show how DRAM time hides them)\n");
  }
  return 0;
}

}  // namespace

void RegisterTableWorkloads(eval::WorkloadRegistry& registry) {
  {
    Workload w;
    w.name = "table1_defenses";
    w.cells = [](const WorkloadOptions&) {
      return std::vector<WorkloadCell>{{"survey", RunTable1Cell}};
    };
    w.assemble = AssembleTable1;
    registry.Register(std::move(w));
  }
  {
    Workload w;
    w.name = "table2_applicability";
    w.cells = [](const WorkloadOptions&) {
      return std::vector<WorkloadCell>{{"matrix", RunTable2Cell}};
    };
    w.assemble = AssembleTable2;
    registry.Register(std::move(w));
  }
  {
    Workload w;
    w.name = "table3_limits";
    w.cells = [](const WorkloadOptions&) {
      return std::vector<WorkloadCell>{{"limits", RunTable3Cell}};
    };
    w.assemble = AssembleTable3;
    registry.Register(std::move(w));
  }
  {
    Workload w;
    w.name = "table4_micro";
    w.cells = [](const WorkloadOptions&) {
      return std::vector<WorkloadCell>{
          {"model", RunTable4ModelCell},     {"sfi_mpx", RunTable4SfiMpxCell},
          {"mpk", RunTable4MpkCell},         {"virt", RunTable4VirtCell},
          {"syscall", RunTable4SyscallCell}, {"sgx", RunTable4SgxCell},
          {"aes", RunTable4AesCell},
      };
    };
    w.assemble = AssembleTable4;
    registry.Register(std::move(w));
  }
  {
    Workload w;
    w.name = "microarch_stats";
    w.cells = [](const WorkloadOptions&) {
      std::vector<WorkloadCell> cells;
      const auto profiles = workloads::SpecCpu2006();
      for (size_t p = 0; p < profiles.size(); ++p) {
        cells.push_back({profiles[p].name,
                         [p](const WorkloadOptions& options) {
                           return RunMicroarchCell(p, options.experiment);
                         }});
      }
      return cells;
    };
    w.assemble = AssembleMicroarch;
    registry.Register(std::move(w));
  }
}

}  // namespace memsentry::suite
