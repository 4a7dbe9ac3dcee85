// google-benchmark microbenchmarks of the substrates themselves (host-side
// performance of the simulator, not simulated cycles): page walks, TLB,
// cache tags, AES, the crypt domain-switch toggle, EPT translation, address
// space set-up, executor throughput (unprotected, SFI, MPK + shadow stack).
#include <benchmark/benchmark.h>

#include <optional>

#include "bench/bench_util.h"
#include "src/aes/aes128.h"
#include "src/core/memsentry.h"
#include "src/defenses/shadow_stack.h"
#include "src/ir/builder.h"
#include "src/machine/mmu.h"
#include "src/sim/executor.h"
#include "src/sim/process.h"
#include "src/vmx/ept.h"
#include "src/workloads/synth.h"

namespace memsentry {
namespace {

void BM_PageTableWalk(benchmark::State& state) {
  machine::PhysicalMemory pmem(1 << 16);
  machine::PageTable pt(&pmem);
  (void)pt.MapNew(0x4000, machine::PageFlags::Data());
  for (auto _ : state) {
    benchmark::DoNotOptimize(pt.Walk(0x4000));
  }
}
BENCHMARK(BM_PageTableWalk);

// A translated, cached load as the interpreter performs it: the inline
// grant-hit path with the fast-path mode hoisted (TLB hit bookkeeping plus
// an L1 hit).
void BM_MmuTlbHit(benchmark::State& state) {
  machine::PhysicalMemory pmem(1 << 16);
  machine::CostModel cost;
  machine::PageTable pt(&pmem);
  machine::Mmu mmu(&pmem, &cost);
  mmu.SetPageTable(&pt);
  (void)pt.MapNew(0x4000, machine::PageFlags::Data());
  machine::Pkru pkru;
  (void)mmu.Access(0x4000, machine::AccessType::kRead, pkru, base::FastPathMode::kOn);
  machine::Mmu::GrantedAccess granted;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mmu.GrantHit(0x4000, machine::AccessType::kRead, pkru,
                                          base::FastPathMode::kOn, &granted));
    benchmark::DoNotOptimize(granted);
  }
}
BENCHMARK(BM_MmuTlbHit);

// Data-cache pricing alone, over a fixed pseudo-random line trace (so the
// way that hits varies as it does in a simulated run). Arg 0: an
// L1-hit-heavy trace (lines of a 16 KiB block, half of L1). Arg 1: an
// L1/L2-miss trace (lines of a 1 MiB block, 4x L2, inside L3), so nearly
// every access runs the out-of-line L2 and L3 probes and fills.
void BM_CacheHierarchyAccess(benchmark::State& state) {
  const uint64_t lines = (state.range(0) == 0 ? uint64_t{16} << 10 : uint64_t{1} << 20) / 64;
  std::vector<PhysAddr> trace(4096);
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (PhysAddr& addr : trace) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    addr = ((x >> 33) % lines) * 64;
  }
  machine::CacheHierarchy cache;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Access(trace[i]));
    i = (i + 1) & (trace.size() - 1);
  }
}
BENCHMARK(BM_CacheHierarchyAccess)->Arg(0)->Arg(1);

void BM_AesEncryptBlock(benchmark::State& state) {
  const aes::KeySchedule keys = aes::ExpandKey(aes::Block{1, 2, 3, 4});
  aes::Block block{9, 8, 7};
  for (auto _ : state) {
    block = aes::EncryptBlock(block, keys);
    benchmark::DoNotOptimize(block);
  }
}
BENCHMARK(BM_AesEncryptBlock);

// One crypt domain switch over a state.range(0)-byte region (Table 4's crypt
// size sweep), fastpath on. The first toggle under a schedule runs AES for
// the whole keystream; a reused toggle only compares the schedule and XORs.
void CryptRegionToggle(benchmark::State& state, bool first) {
  const uint64_t size = static_cast<uint64_t>(state.range(0));
  sim::Machine machine;
  sim::Process process(&machine);
  (void)process.MapRange(sim::kSafeRegionBase, 1, machine::PageFlags::Data());
  sim::SafeRegion& region = process.AddSafeRegion("bench", sim::kSafeRegionBase, size);
  region.crypt = true;
  region.enc_keys = aes::ExpandKey(aes::Block{1, 2, 3, 4});
  region.nonce = 7;
  for (auto _ : state) {
    if (first) {
      region.keystream.reset();
    }
    benchmark::DoNotOptimize(process.CryptToggle(region, size, base::FastPathMode::kOn));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * size));
}
void BM_CryptRegionToggleFirst(benchmark::State& state) { CryptRegionToggle(state, true); }
void BM_CryptRegionToggle(benchmark::State& state) { CryptRegionToggle(state, false); }
BENCHMARK(BM_CryptRegionToggleFirst)->Arg(64)->Arg(2048);
BENCHMARK(BM_CryptRegionToggle)->Arg(64)->Arg(2048);

void BM_EptTranslate(benchmark::State& state) {
  machine::PhysicalMemory pmem(1 << 16);
  vmx::Ept ept(&pmem);
  (void)ept.Map(0x5000, 0x9000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ept.Translate(0x5123, machine::AccessType::kRead));
  }
}
BENCHMARK(BM_EptTranslate);

// A cell's machine set-up: construct a process, map its stack, table page
// and a state.range(0)-KiB working set, then tear it all down.
void BM_PrepareWorkloadProcess(benchmark::State& state) {
  workloads::SpecProfile profile = workloads::SpecCpu2006()[0];
  profile.ws_kb = static_cast<uint64_t>(state.range(0));
  for (auto _ : state) {
    sim::Machine machine;
    sim::Process process(&machine);
    benchmark::DoNotOptimize(workloads::PrepareWorkloadProcess(process, profile));
  }
}
BENCHMARK(BM_PrepareWorkloadProcess)->Arg(256)->Arg(65536)->Unit(benchmark::kMicrosecond);

// The 4 GiB hidden region of attack_matrix's crash-scan cell: 1,048,576
// pages mapped in one MapRange, then the process torn down.
void BM_MapRange4GiB(benchmark::State& state) {
  const uint64_t pages = (uint64_t{4} << 30) >> kPageShift;
  for (auto _ : state) {
    sim::Machine machine;
    sim::Process process(&machine);
    benchmark::DoNotOptimize(
        process.MapRange(sim::kSafeRegionBase, pages, machine::PageFlags::Data()));
  }
}
BENCHMARK(BM_MapRange4GiB)->Unit(benchmark::kMillisecond);

// Steady-state interpreter throughput on SpecCpu2006()[0] (unprotected,
// SFI-protected, or MPK-protected behind a shadow stack).
enum class ThroughputConfig { kBaseline, kSfi, kMpkShadowStack };

void ExecutorThroughput(benchmark::State& state, ThroughputConfig config) {
  const auto& profile = workloads::SpecCpu2006()[0];
  workloads::SynthOptions synth;
  synth.target_instructions = 100'000;
  ir::Module module = workloads::SynthesizeSpecProgram(profile, synth);
  // Decode once and share: the executor validates the decode against the
  // live (module, cost model) state each Run, so this measures steady-state
  // interpreter throughput rather than per-iteration decode cost. A
  // protected module is instrumented on the first iteration's process;
  // every process is prepared identically, so it fits them all.
  std::shared_ptr<const sim::DecodedModule> decoded;
  for (auto _ : state) {
    sim::Machine machine;
    sim::Process process(&machine);
    (void)workloads::PrepareWorkloadProcess(process, profile);
    std::optional<core::MemSentry> memsentry;
    if (config != ThroughputConfig::kBaseline) {
      core::MemSentryConfig ms_config;
      ms_config.technique = config == ThroughputConfig::kSfi ? core::TechniqueKind::kSfi
                                                             : core::TechniqueKind::kMpk;
      memsentry.emplace(&process, ms_config);
      auto region = memsentry->allocator().Alloc("bench-secret", 4096);
      if (decoded != nullptr) {
        (void)memsentry->PrepareRuntime();
      } else {
        if (config == ThroughputConfig::kMpkShadowStack && region.ok()) {
          defenses::ShadowStackPass pass(region.value()->base);
          (void)pass.Run(module);
          module.Touch();
        }
        (void)memsentry->Protect(module);
      }
    }
    sim::Executor executor(&process, &module);
    if (decoded == nullptr) {
      decoded = sim::DecodedModule::Build(module, process);
    }
    executor.SetDecoded(decoded);
    auto result = executor.Run();
    benchmark::DoNotOptimize(result);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<int64_t>(result.instructions));
  }
}
void BM_ExecutorThroughput(benchmark::State& state) {
  ExecutorThroughput(state, ThroughputConfig::kBaseline);
}
void BM_ExecutorThroughputSfi(benchmark::State& state) {
  ExecutorThroughput(state, ThroughputConfig::kSfi);
}
void BM_ExecutorThroughputMpkShadowStack(benchmark::State& state) {
  ExecutorThroughput(state, ThroughputConfig::kMpkShadowStack);
}
BENCHMARK(BM_ExecutorThroughput)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ExecutorThroughputSfi)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ExecutorThroughputMpkShadowStack)->Unit(benchmark::kMillisecond);

// Forwards console output unchanged while mirroring each run's host-side
// real time into the machine-readable report. Host wall clock is
// environment-dependent, so these land as info metrics: recorded for the
// perf trajectory, never gated.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  explicit CapturingReporter(bench::Reporter* out) : out_(out) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) {
        continue;
      }
      out_->AddInfo("substrate/" + run.benchmark_name() + "/real_ns",
                    run.GetAdjustedRealTime());
    }
  }

 private:
  bench::Reporter* out_;
};

}  // namespace
}  // namespace memsentry

int main(int argc, char** argv) {
  memsentry::bench::Reporter reporter("bench_substrate", argc, argv);
  // Strip the suite-wide flags google-benchmark would reject before handing
  // the rest (e.g. --benchmark_min_time) to benchmark::Initialize.
  std::vector<char*> filtered;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0 ||
        std::strncmp(argv[i], "--instructions=", 15) == 0 ||
        std::strncmp(argv[i], "--jobs=", 7) == 0) {
      continue;
    }
    filtered.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(filtered.size());
  benchmark::Initialize(&filtered_argc, filtered.data());
  memsentry::CapturingReporter console(&reporter);
  benchmark::RunSpecifiedBenchmarks(&console);
  benchmark::Shutdown();
  return reporter.Finish();
}
