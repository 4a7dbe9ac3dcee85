// The traced layer replay. It re-runs one suite pass in cell-enumeration
// order the way the engine does (run memo on, one thread), but splits every
// Figure 3-6, mprotect and crypt-sweep cell into the steps
// src/eval/figures.cc takes — process set-up, PrepareWorkloadProcess,
// synthesis, defense pass, MemSentry::Protect, ModuleContentDigest,
// DecodeCache::Get, Executor::Run — and times each step from outside by
// calling that layer's public function inside a span. Every other cell runs
// whole (WorkloadCell::run) under its module's span. Each replayed payload
// must equal the oracle's bytes, so the replay measures the same program.
//
// With spans off the same code runs without reading the clock per step;
// run.py compares the two to state the tracing overhead.
#include "perfbench/tool/replay.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/tool/common.h"
#include "src/core/memsentry.h"
#include "src/core/technique.h"
#include "src/defenses/event_annotator.h"
#include "src/defenses/shadow_stack.h"
#include "src/eval/figures.h"
#include "src/eval/report_builder.h"
#include "src/eval/run_memo.h"
#include "src/sim/decode_cache.h"
#include "src/sim/executor.h"
#include "src/sim/machine.h"
#include "src/sim/process.h"
#include "src/suite/suite_internal.h"
#include "src/workloads/spec_profiles.h"
#include "src/workloads/synth.h"

namespace perfbench {
namespace {

namespace core = memsentry::core;
namespace eval = memsentry::eval;
namespace ir = memsentry::ir;
namespace sim = memsentry::sim;
namespace workloads = memsentry::workloads;
using memsentry::Cycles;
using memsentry::VirtAddr;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// In-memory span recorder. Layer spans are leaves under a cell span, which
// sits under a workload span; totals accumulate per layer name.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  struct Span {
    std::string name;
    std::string detail;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
  };

  int Begin(std::string name, std::string detail = "") {
    if (!on_) {
      return -1;
    }
    spans_.push_back(Span{std::move(name), std::move(detail), NowNs(), 0,
                          stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void End(int id) {
    if (id < 0) {
      return;
    }
    Span& span = spans_[static_cast<size_t>(id)];
    span.end_ns = NowNs();
    stack_.pop_back();
  }

  // Runs f inside a leaf layer span.
  template <typename F>
  void Layer(const char* name, F&& f) {
    const int id = Begin(name);
    f();
    End(id);
  }

  // Seconds per leaf layer (spans with no children of their own).
  std::map<std::string, double> LayerTotals() const {
    std::vector<bool> has_child(spans_.size(), false);
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        has_child[static_cast<size_t>(span.parent)] = true;
      }
    }
    std::map<std::string, double> totals;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (!has_child[i] && spans_[i].name.find('.') != std::string::npos) {
        totals[spans_[i].name] += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) / 1e9;
      }
    }
    return totals;
  }

  bool WriteChromeTrace(const std::string& path) const {
    json::Value events = json::Value::Array();
    const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (const Span& span : spans_) {
      json::Value event = json::Value::Object();
      event.Set("name", span.name);
      event.Set("ph", "X");
      event.Set("pid", 1);
      event.Set("tid", 1);
      event.Set("ts", static_cast<double>(span.start_ns - origin) / 1e3);
      event.Set("dur", static_cast<double>(span.end_ns - span.start_ns) / 1e3);
      if (!span.detail.empty()) {
        json::Value args = json::Value::Object();
        args.Set("detail", span.detail);
        event.Set("args", std::move(args));
      }
      events.Append(std::move(event));
    }
    json::Value doc = json::Value::Object();
    doc.Set("traceEvents", std::move(events));
    std::ofstream out(path, std::ios::trunc);
    out << doc.Dump() << '\n';
    return static_cast<bool>(out);
  }


 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// Work counted at the layer boundaries (independent of spans).
struct Counters {
  uint64_t synth_calls = 0;
  uint64_t decode_refetches = 0;  // hits Executor::Run added after SetDecoded
  uint64_t instructions = 0;
  uint64_t tlb_hits = 0, tlb_misses = 0;
  uint64_t l1_hits = 0, cache_accesses = 0;
  uint64_t grant_hits = 0, grant_misses = 0;
  uint64_t json_bytes = 0;
  uint64_t campaigns = 0;
};

struct Run {
  bool ok = false;
  Cycles cycles = 0;
  uint64_t instructions = 0;
};

// figures.cc's Pipeline, one public call per step.
struct Pipeline {
  sim::Machine machine;
  std::unique_ptr<sim::Process> process;
  std::unique_ptr<core::MemSentry> memsentry;
  ir::Module module;
  VirtAddr region_base = 0;
};

std::unique_ptr<Pipeline> BuildPipeline(const workloads::SpecProfile& profile,
                                        core::TechniqueKind kind,
                                        const eval::ExperimentOptions& options,
                                        bool with_isolation, Tracer& t, Counters& c) {
  std::unique_ptr<Pipeline> p;
  t.Layer("sim.process", [&] {
    p = std::make_unique<Pipeline>();
    p->process = std::make_unique<sim::Process>(&p->machine);
    if (with_isolation && kind == core::TechniqueKind::kVmfunc) {
      (void)p->process->EnableDune();
    }
  });
  t.Layer("workloads.prepare",
          [&] { (void)workloads::PrepareWorkloadProcess(*p->process, profile); });
  t.Layer("core.setup", [&] {
    core::MemSentryConfig config;
    config.technique = kind;
    config.options = options.instrument;
    p->memsentry = std::make_unique<core::MemSentry>(p->process.get(), config);
    const uint64_t region_bytes = kind == core::TechniqueKind::kCrypt ? 16 : 4096;
    auto region = p->memsentry->allocator().Alloc("defense-metadata", region_bytes);
    if (region.ok()) {
      p->region_base = region.value()->base;
    }
  });
  t.Layer("workloads.synth", [&] {
    workloads::SynthOptions synth;
    synth.target_instructions = options.target_instructions;
    synth.seed = options.seed;
    p->module = eval::SynthesizeSpecProgramCached(profile, synth);
  });
  ++c.synth_calls;
  return p;
}

void DropPipeline(std::unique_ptr<Pipeline>& p, Tracer& t) {
  t.Layer("sim.process", [&] { p.reset(); });
}

bool ApplyDefense(Pipeline& p, eval::DomainScenario scenario, Tracer& t) {
  memsentry::Status status;
  t.Layer("defenses.pass", [&] {
    switch (scenario) {
      case eval::DomainScenario::kCallRet: {
        memsentry::defenses::ShadowStackPass pass(p.region_base);
        status = pass.Run(p.module);
        break;
      }
      case eval::DomainScenario::kIndirectBranch: {
        memsentry::defenses::EventAnnotatorPass pass(
            memsentry::defenses::EventKind::kIndirectBranch, p.region_base);
        status = pass.Run(p.module);
        break;
      }
      case eval::DomainScenario::kSyscall: {
        memsentry::defenses::EventAnnotatorPass pass(memsentry::defenses::EventKind::kSyscall,
                                                     p.region_base);
        status = pass.Run(p.module);
        break;
      }
    }
  });
  return status.ok();
}

bool Protect(Pipeline& p, Tracer& t) {
  memsentry::Status status;
  t.Layer("core.protect", [&] { status = p.memsentry->Protect(p.module); });
  return status.ok();
}

uint64_t DecodeGets() {
  const sim::DecodeCacheStats stats = sim::DecodeCache::Global().stats();
  return stats.hits + stats.misses;
}

Run Execute(Pipeline& p, Tracer& t, Counters& c) {
  t.Layer("sim.digest", [&] { (void)sim::ModuleContentDigest(p.module); });
  std::shared_ptr<const sim::DecodedModule> decoded;
  t.Layer("sim.decode", [&] { decoded = sim::DecodeCache::Global().Get(p.module, *p.process); });
  sim::Executor executor(p.process.get(), &p.module);
  executor.SetDecoded(std::move(decoded));
  sim::RunResult result;
  const uint64_t gets_before = DecodeGets();
  t.Layer("sim.interpret", [&] { result = executor.Run(sim::RunConfig{}); });
  // Run re-fetches a cached decode built from another module instance; that
  // lookup stands in for the one the engine's Run makes, already counted.
  c.decode_refetches += DecodeGets() - gets_before;
  auto& mmu = p.process->mmu();
  c.instructions += result.instructions;
  c.tlb_hits += mmu.tlb().stats().hits;
  c.tlb_misses += mmu.tlb().stats().misses;
  c.l1_hits += mmu.dcache().stats().l1_hits;
  c.cache_accesses += mmu.dcache().stats().accesses;
  c.grant_hits += mmu.grant_stats().hits;
  c.grant_misses += mmu.grant_stats().misses;
  return Run{result.halted && !result.fault.has_value(), result.cycles, result.instructions};
}

// figures.cc's BaselineRecipeKey, rebuilt from public pieces: the replay
// consults the run memo exactly where the engine's cells do.
eval::RunMemo::Key BaselineKey(const workloads::SpecProfile& profile, core::TechniqueKind kind,
                               int scenario_tag, const eval::ExperimentOptions& options,
                               uint64_t region_size_override) {
  const uint64_t region_bytes = kind == core::TechniqueKind::kCrypt ? 16 : 4096;
  const uint64_t granularity = core::CreateTechnique(kind)->limits().granularity;
  const uint64_t rounded = (region_bytes + granularity - 1) / granularity * granularity;
  eval::RunKeyHasher h;
  eval::HashSpecProfile(h, profile);
  h.U64(static_cast<uint64_t>(scenario_tag) + 1);
  h.U64(options.target_instructions);
  h.U64(options.seed);
  h.U64(rounded);
  h.U64(kind == core::TechniqueKind::kInfoHide);
  h.U64(region_size_override);
  h.U64(sim::RunConfig{}.max_instructions);
  return h.Finish();
}

template <typename MakeRun>
Run MemoizedBaseline(const eval::RunMemo::Key& key, Tracer& t, MakeRun&& make) {
  eval::RunMemo& memo = eval::RunMemo::Global();
  std::optional<eval::RunMemo::Result> hit;
  t.Layer("eval.memo", [&] { hit = memo.Lookup(key); });
  if (hit) {
    return Run{hit->ok, hit->cycles, hit->instructions};
  }
  const Run run = make();
  memo.Insert(key, eval::RunMemo::Result{run.ok, run.cycles, run.instructions});
  return run;
}

// RunAddressBasedExperimentFull / RunDomainBasedExperimentFull, step by step.
// scenario == nullptr selects the address-based (Figure 3) pipeline.
eval::ExperimentResult ReplayExperiment(const workloads::SpecProfile& profile,
                                        core::TechniqueKind kind, core::ProtectMode mode,
                                        const eval::DomainScenario* scenario,
                                        const eval::ExperimentOptions& options, Tracer& t,
                                        Counters& c) {
  const int tag = scenario == nullptr ? -1 : static_cast<int>(*scenario);
  const Run base = MemoizedBaseline(BaselineKey(profile, kind, tag, options, 0), t, [&] {
    auto p = BuildPipeline(profile, kind, options, false, t, c);
    Run run;
    if (scenario == nullptr || ApplyDefense(*p, *scenario, t)) {
      run = Execute(*p, t, c);
    }
    DropPipeline(p, t);
    return run;
  });
  if (!base.ok) {
    return {};
  }
  eval::ExperimentOptions configured = options;
  if (scenario == nullptr) {
    configured.instrument.mode = mode;
  }
  auto p = BuildPipeline(profile, kind, configured, true, t, c);
  Run isolated;
  if ((scenario == nullptr || ApplyDefense(*p, *scenario, t)) && Protect(*p, t)) {
    isolated = Execute(*p, t, c);
  }
  DropPipeline(p, t);
  if (!isolated.ok) {
    return {};
  }
  return eval::ExperimentResult{isolated.cycles / base.cycles, base.cycles, isolated.cycles,
                                static_cast<double>(base.instructions),
                                static_cast<double>(isolated.instructions)};
}

// One point of RunCryptSizeSweep, step by step; payload as crypt_size_sweep
// emits it.
json::Value ReplayCryptSize(uint64_t size, const eval::ExperimentOptions& options, Tracer& t,
                            Counters& c) {
  const workloads::SpecProfile& profile = *workloads::FindProfile("401.bzip2");
  const auto kind = core::TechniqueKind::kCrypt;
  const auto scenario = eval::DomainScenario::kCallRet;
  const Run base = MemoizedBaseline(
      BaselineKey(profile, kind, static_cast<int>(scenario), options, size), t, [&] {
        auto p = BuildPipeline(profile, kind, options, false, t, c);
        p->process->safe_regions()[0].size = size;
        Run run;
        if (ApplyDefense(*p, scenario, t)) {
          run = Execute(*p, t, c);
        }
        DropPipeline(p, t);
        return run;
      });
  auto p = BuildPipeline(profile, kind, options, true, t, c);
  auto& region = p->process->safe_regions()[0];
  const uint64_t old_pages = memsentry::PageAlignUp(region.size) >> memsentry::kPageShift;
  const uint64_t new_pages = memsentry::PageAlignUp(size) >> memsentry::kPageShift;
  if (new_pages > old_pages) {
    (void)p->process->MapRange(region.base + old_pages * memsentry::kPageSize,
                               new_pages - old_pages, memsentry::machine::PageFlags::Data());
  }
  region.size = size;
  Run isolated;
  if (ApplyDefense(*p, scenario, t) && Protect(*p, t)) {
    isolated = Execute(*p, t, c);
  }
  DropPipeline(p, t);
  const bool ok = base.ok && isolated.ok;
  json::Value payload = json::Value::Object();
  payload.Set("ok", ok);
  if (ok) {
    payload.Set("region_bytes", size);
    payload.Set("normalized", isolated.cycles / base.cycles);
    payload.Set("prot_cycles", isolated.cycles);
    payload.Set("instructions", static_cast<double>(base.instructions + isolated.instructions));
  }
  return payload;
}

const eval::AddressSweepConfig* FindAddressConfig(const std::string& name) {
  for (const auto& config : eval::AddressSweepConfigs()) {
    if (name == config.name) {
      return &config;
    }
  }
  return nullptr;
}

const eval::DomainSweepConfig* FindDomainConfig(const std::string& name) {
  for (const auto& config : eval::DomainSweepConfigs()) {
    if (name == config.name) {
      return &config;
    }
  }
  return nullptr;
}

// The step-by-step replay of one cell, or null when the cell runs whole.
std::optional<json::Value> ReplayStepwise(const std::string& workload, const std::string& cell,
                                          const eval::ExperimentOptions& options, Tracer& t,
                                          Counters& c) {
  const size_t slash = cell.find('/');
  const std::string config = slash == std::string::npos ? "" : cell.substr(0, slash);
  const std::string profile_name = slash == std::string::npos ? cell : cell.substr(slash + 1);
  if (workload == "fig3_address") {
    const eval::AddressSweepConfig* sweep = FindAddressConfig(config);
    const workloads::SpecProfile* profile = workloads::FindProfile(profile_name);
    if (sweep != nullptr && profile != nullptr) {
      return memsentry::suite::ExperimentToJson(
          ReplayExperiment(*profile, sweep->kind, sweep->mode, nullptr, options, t, c));
    }
  }
  static const std::map<std::string, eval::DomainScenario> kDomainFigures = {
      {"fig4_callret", eval::DomainScenario::kCallRet},
      {"fig5_indirect", eval::DomainScenario::kIndirectBranch},
      {"fig6_syscall", eval::DomainScenario::kSyscall},
  };
  if (const auto it = kDomainFigures.find(workload); it != kDomainFigures.end()) {
    const eval::DomainSweepConfig* sweep = FindDomainConfig(config);
    const workloads::SpecProfile* profile = workloads::FindProfile(profile_name);
    if (sweep != nullptr && profile != nullptr) {
      return memsentry::suite::ExperimentToJson(ReplayExperiment(
          *profile, sweep->kind, core::ProtectMode{}, &it->second, options, t, c));
    }
  }
  if (workload == "mprotect_baseline") {
    if (const workloads::SpecProfile* profile = workloads::FindProfile(cell)) {
      const auto scenario = eval::DomainScenario::kCallRet;
      return memsentry::suite::ExperimentToJson(ReplayExperiment(
          *profile, core::TechniqueKind::kMprotect, core::ProtectMode{}, &scenario, options, t,
          c));
    }
  }
  if (workload == "crypt_size_sweep") {
    return ReplayCryptSize(std::stoull(cell), options, t, c);
  }
  return std::nullopt;
}

// The module span a whole-run cell is charged to.
const char* WholeCellLayer(const std::string& workload) {
  if (workload == "server_workload") {
    return "workloads.server";
  }
  if (workload == "attack_campaigns") {
    return "attacks.campaign";
  }
  return "suite.other_cells";
}

}  // namespace

int RunReplay(const ReplayOptions& options) {
  std::vector<PayloadLine> oracle;
  if (!ReadPayloadFile(options.oracle, &oracle)) {
    std::fprintf(stderr, "perfbench_tool: cannot read oracle %s\n", options.oracle.c_str());
    return 2;
  }
  const std::vector<SuiteWorkload> suite = SuiteWorkloads(options.quick, options.seed);
  // The engine's process-wide state at construction: memo on and empty.
  eval::RunMemo::Global().Reset();
  eval::RunMemo::Enable(true);
  if (options.warm) {
    // serve's state after its cold pass: every cache holds this pass.
    for (const SuiteWorkload& entry : suite) {
      WorkloadOptions wo = entry.options;
      wo.experiment.jobs = 1;
      for (const eval::WorkloadCell& cell : entry.workload->cells(wo)) {
        (void)cell.run(wo);
      }
    }
  }
  const eval::RunMemo::Stats memo_before = eval::RunMemo::Global().stats();
  const sim::DecodeCacheStats decode_before = sim::DecodeCache::Global().stats();

  Tracer t(options.spans);
  Counters c;
  std::vector<std::string> mismatches;
  json::Value cell_seconds = json::Value::Array();
  size_t next = 0;
  bool assembled_ok = true;
  const int64_t start = NowNs();
  for (const SuiteWorkload& entry : suite) {
    const std::string& name = entry.workload->name;
    const int workload_span = t.Begin("workload", name);
    WorkloadOptions wo = entry.options;
    wo.experiment.jobs = 1;
    std::vector<eval::WorkloadCell> cells;
    t.Layer("suite.cells_enum", [&] { cells = entry.workload->cells(wo); });
    std::vector<json::Value> payloads;
    for (const eval::WorkloadCell& cell : cells) {
      const int64_t cell_start = NowNs();
      const int cell_span = t.Begin("cell", name + "/" + cell.name);
      std::optional<json::Value> payload = ReplayStepwise(name, cell.name, wo.experiment, t, c);
      if (!payload) {
        t.Layer(WholeCellLayer(name), [&] { payload = cell.run(wo); });
      }
      std::string bytes;
      t.Layer("base.json", [&] {
        bytes = payload->Dump();
        auto parsed = json::Parse(bytes);
        payloads.push_back(parsed.ok() ? std::move(*parsed) : json::Value());
      });
      t.End(cell_span);
      cell_seconds.Append(static_cast<double>(NowNs() - cell_start) / 1e9);
      c.json_bytes += bytes.size();
      if (name == "attack_campaigns") {
        for (const char* outcome : {"detected", "degraded", "escaped", "timed_out"}) {
          c.campaigns += static_cast<uint64_t>(payload->NumberOr(outcome, 0));
        }
      }
      if (next >= oracle.size() || oracle[next].workload != name ||
          oracle[next].cell != cell.name || oracle[next].payload != bytes) {
        mismatches.push_back(name + "/" + cell.name);
      }
      ++next;
    }
    eval::ReportBuilder report;
    t.Layer("suite.assemble",
            [&] { assembled_ok = entry.workload->assemble(wo, payloads, report) == 0 && assembled_ok; });
    t.End(workload_span);
  }
  const double wall = static_cast<double>(NowNs() - start) / 1e9;
  if (next != oracle.size()) {
    mismatches.push_back("cell count differs from the oracle");
  }

  const eval::RunMemo::Stats memo = eval::RunMemo::Global().stats();
  const sim::DecodeCacheStats decode = sim::DecodeCache::Global().stats();
  json::Value layers = json::Value::Object();
  double covered = 0;
  for (const auto& [layer, seconds] : t.LayerTotals()) {
    layers.Set(layer, seconds);
    covered += seconds;
  }
  auto ratio = [](uint64_t hits, uint64_t total) {
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  };
  json::Value counts = json::Value::Object();
  counts.Set("workloads.synth_calls", c.synth_calls);
  // Every DecodeCache lookup of the pass (whole cells included), as the
  // engine would count them.
  counts.Set("sim.decode_hits", decode.hits - decode_before.hits - c.decode_refetches);
  counts.Set("sim.decode_misses", decode.misses - decode_before.misses);
  counts.Set("sim.decode_evictions", decode.evictions - decode_before.evictions);
  counts.Set("sim.instructions", c.instructions);
  counts.Set("machine.tlb_hit_ratio", ratio(c.tlb_hits, c.tlb_hits + c.tlb_misses));
  counts.Set("machine.l1_hit_ratio", ratio(c.l1_hits, c.cache_accesses));
  counts.Set("machine.grant_hit_ratio", ratio(c.grant_hits, c.grant_hits + c.grant_misses));
  counts.Set("eval.memo_hits", memo.hits - memo_before.hits);
  counts.Set("eval.memo_misses", memo.misses - memo_before.misses);
  counts.Set("base.json_bytes", c.json_bytes);
  counts.Set("attacks.campaigns", c.campaigns);

  json::Value mismatch_list = json::Value::Array();
  for (size_t i = 0; i < mismatches.size() && i < 20; ++i) {
    mismatch_list.Append(mismatches[i]);
  }
  json::Value result = json::Value::Object();
  result.Set("ok", mismatches.empty() && assembled_ok);
  result.Set("mismatches", static_cast<uint64_t>(mismatches.size()));
  result.Set("mismatch_cells", std::move(mismatch_list));
  result.Set("assembled_ok", assembled_ok);
  result.Set("cells", static_cast<uint64_t>(next));
  result.Set("spans", options.spans);
  result.Set("wall_s", wall);
  result.Set("unattributed_s", options.spans ? wall - covered : 0.0);
  result.Set("layers", std::move(layers));
  result.Set("counts", std::move(counts));
  result.Set("cell_s", std::move(cell_seconds));
  if (options.spans && !options.trace_out.empty() && !t.WriteChromeTrace(options.trace_out)) {
    std::fprintf(stderr, "perfbench_tool: cannot write %s\n", options.trace_out.c_str());
  }
  std::printf("%s\n", result.Dump().c_str());
  std::fflush(stdout);
  return mismatches.empty() && assembled_ok ? 0 : 1;
}

}  // namespace perfbench
