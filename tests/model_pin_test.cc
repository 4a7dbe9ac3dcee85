// Cross-commit pin of the modeled results. The fast-path differential
// tests compare the decoded interpreter with the reference one, but both
// price accesses through the same CacheHierarchy, TLB and MMU, so a change
// to that shared model passes them unnoticed. This test pins, for every
// SPEC CPU2006 profile under the baseline and five protected
// configurations, everything a run models: the RunResult's cycle bit
// patterns and event counts, the cache, TLB and grant-cache counters, and
// the MMU's access and walk-touch counts. The pinned values were recorded
// before the cache tags went to packed 32-bit words and the fused runs got
// their own kernel; any drift is a change to the cost model, not noise.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/memsentry.h"
#include "src/defenses/shadow_stack.h"
#include "src/sim/executor.h"
#include "src/workloads/spec_profiles.h"
#include "src/workloads/synth.h"

namespace memsentry {
namespace {

using core::TechniqueKind;

struct PinConfig {
  const char* name;
  bool protect;  // false: the unprotected baseline
  TechniqueKind kind;
  bool shadow_stack;  // run defenses::ShadowStackPass before protecting
};

constexpr PinConfig kConfigs[] = {
    {"baseline", false, TechniqueKind::kSfi, false},
    {"SFI", true, TechniqueKind::kSfi, false},
    {"MPX", true, TechniqueKind::kMpx, false},
    {"MPK+ss", true, TechniqueKind::kMpk, true},
    {"VMFUNC+ss", true, TechniqueKind::kVmfunc, true},
    {"crypt+ss", true, TechniqueKind::kCrypt, true},
};

// Everything one run models, as raw words.
struct Modeled {
  sim::RunResult result;
  machine::CacheStats cache;
  machine::TlbStats tlb;
  machine::GrantStats grant;
  machine::MmuStats mmu;
};

Modeled RunConfigured(const workloads::SpecProfile& profile, const PinConfig& config) {
  sim::Machine machine;
  sim::Process process(&machine);
  if (config.kind == TechniqueKind::kVmfunc) {
    EXPECT_TRUE(process.EnableDune().ok());
  }
  EXPECT_TRUE(workloads::PrepareWorkloadProcess(process, profile).ok());
  workloads::SynthOptions synth;
  synth.target_instructions = 100'000;
  ir::Module module = workloads::SynthesizeSpecProgram(profile, synth);
  core::MemSentryConfig ms_config;
  ms_config.technique = config.kind;
  core::MemSentry memsentry(&process, ms_config);
  if (config.protect) {
    const uint64_t region_bytes = config.kind == TechniqueKind::kCrypt ? 16 : 4096;
    auto region = memsentry.allocator().Alloc("pinned-secret", region_bytes);
    EXPECT_TRUE(region.ok());
    if (config.shadow_stack && region.ok()) {
      defenses::ShadowStackPass pass(region.value()->base);
      EXPECT_TRUE(pass.Run(module).ok());
      module.Touch();
    }
    EXPECT_TRUE(memsentry.Protect(module).ok());
  }
  sim::Executor executor(&process, &module);
  Modeled out;
  out.result = executor.Run();
  out.cache = process.mmu().dcache().stats();
  out.tlb = process.mmu().tlb().stats();
  out.grant = process.mmu().grant_stats();
  out.mmu = process.mmu().stats();
  return out;
}

// FNV-1a over 64-bit words.
uint64_t Digest(const Modeled& m) {
  const sim::RunResult& r = m.result;
  const uint64_t words[] = {
      std::bit_cast<uint64_t>(r.cycles),
      std::bit_cast<uint64_t>(r.instrumentation_cycles),
      r.instructions,
      r.loads,
      r.stores,
      r.instrumentation_instrs,
      m.cache.accesses,
      m.cache.l1_hits,
      m.cache.l2_hits,
      m.cache.l3_hits,
      m.cache.dram_accesses,
      m.tlb.hits,
      m.tlb.misses,
      m.tlb.flushes,
      m.grant.hits,
      m.grant.misses,
      m.mmu.accesses,
      m.mmu.walk_memory_touches,
  };
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint64_t w : words) {
    for (int byte = 0; byte < 8; ++byte) {
      h = (h ^ ((w >> (8 * byte)) & 0xff)) * 0x100000001b3ULL;
    }
  }
  return h;
}

struct PinnedRun {
  const char* profile;
  const char* config;
  uint64_t digest;
};

// clang-format off
constexpr PinnedRun kPinnedRuns[] = {
    {"400.perlbench", "baseline", 0x3d9107bc6f76fa02ULL},
    {"400.perlbench", "SFI", 0x14776e1a3f688dbfULL},
    {"400.perlbench", "MPX", 0x7d71d75c1536d08bULL},
    {"400.perlbench", "MPK+ss", 0x99308705f806898eULL},
    {"400.perlbench", "VMFUNC+ss", 0x2fa109959f597fe0ULL},
    {"400.perlbench", "crypt+ss", 0xda88929fb12c804dULL},
    {"401.bzip2", "baseline", 0x27fe2f0b234ca115ULL},
    {"401.bzip2", "SFI", 0x034fa1a69e0444c5ULL},
    {"401.bzip2", "MPX", 0x6d9a3036e03d1cddULL},
    {"401.bzip2", "MPK+ss", 0xd9461d7e1fac48bcULL},
    {"401.bzip2", "VMFUNC+ss", 0xb049dbb89f0ea347ULL},
    {"401.bzip2", "crypt+ss", 0xb429a9002967c0feULL},
    {"403.gcc", "baseline", 0x9045a6ce41e1b3afULL},
    {"403.gcc", "SFI", 0x9547f6da98cbb197ULL},
    {"403.gcc", "MPX", 0xb683190c47419f21ULL},
    {"403.gcc", "MPK+ss", 0x698f436d106958f3ULL},
    {"403.gcc", "VMFUNC+ss", 0x6eedd086c9825dadULL},
    {"403.gcc", "crypt+ss", 0xfe569fd6f39b46b8ULL},
    {"429.mcf", "baseline", 0x92a95c7340145d69ULL},
    {"429.mcf", "SFI", 0x4db5c57625df42eaULL},
    {"429.mcf", "MPX", 0x63af7951536d36b8ULL},
    {"429.mcf", "MPK+ss", 0x2e53b36c79118384ULL},
    {"429.mcf", "VMFUNC+ss", 0x8dbce31f858b9d4fULL},
    {"429.mcf", "crypt+ss", 0xdcb63a37799b593cULL},
    {"433.milc", "baseline", 0x5cf0146373c580d2ULL},
    {"433.milc", "SFI", 0x70db0fbd37c44a59ULL},
    {"433.milc", "MPX", 0x4b323621f7fac132ULL},
    {"433.milc", "MPK+ss", 0xfe941cb6f1e9226bULL},
    {"433.milc", "VMFUNC+ss", 0x5acbba40b57b6ddaULL},
    {"433.milc", "crypt+ss", 0xdb3f4073e27a82aaULL},
    {"444.namd", "baseline", 0x6e974b874a931623ULL},
    {"444.namd", "SFI", 0x6b1fb4dce9ce0877ULL},
    {"444.namd", "MPX", 0x965bf011e42610ccULL},
    {"444.namd", "MPK+ss", 0xd9399aebd22942caULL},
    {"444.namd", "VMFUNC+ss", 0x5fb65247e46cf219ULL},
    {"444.namd", "crypt+ss", 0xe92834a28366394eULL},
    {"445.gobmk", "baseline", 0x04eb8d35d056d917ULL},
    {"445.gobmk", "SFI", 0xeca18400443065a1ULL},
    {"445.gobmk", "MPX", 0x44c35a865038abc4ULL},
    {"445.gobmk", "MPK+ss", 0x3d842a9b9371d4a7ULL},
    {"445.gobmk", "VMFUNC+ss", 0x901542acdc6e6aadULL},
    {"445.gobmk", "crypt+ss", 0x4ea2d57b4806a5feULL},
    {"447.dealII", "baseline", 0x82d42cd0e5395c7dULL},
    {"447.dealII", "SFI", 0x912658950b0e0ed8ULL},
    {"447.dealII", "MPX", 0x1092c7cb1921d24bULL},
    {"447.dealII", "MPK+ss", 0xbb0a00fbe23417d5ULL},
    {"447.dealII", "VMFUNC+ss", 0xc3db0e8621689fa2ULL},
    {"447.dealII", "crypt+ss", 0x39f532b896780432ULL},
    {"450.soplex", "baseline", 0x6899b79a4eb7fabfULL},
    {"450.soplex", "SFI", 0x8dfd05efea19b7ccULL},
    {"450.soplex", "MPX", 0x97e20d3d28cc7eb2ULL},
    {"450.soplex", "MPK+ss", 0x0e91b9241d4eb6c6ULL},
    {"450.soplex", "VMFUNC+ss", 0x0506c61593880edbULL},
    {"450.soplex", "crypt+ss", 0x6d9004f5abc859e7ULL},
    {"453.povray", "baseline", 0xe9a2d0dd0a4efa2cULL},
    {"453.povray", "SFI", 0x1ba106d6a1cbea12ULL},
    {"453.povray", "MPX", 0xed1821a538f23d3bULL},
    {"453.povray", "MPK+ss", 0x39e00fda01315896ULL},
    {"453.povray", "VMFUNC+ss", 0x7c5fa5fe55610cecULL},
    {"453.povray", "crypt+ss", 0xad11a1ab450f76a2ULL},
    {"456.hmmer", "baseline", 0x455b8e6cbae3c237ULL},
    {"456.hmmer", "SFI", 0x409275bf3fa9f173ULL},
    {"456.hmmer", "MPX", 0x3c52c872bdb1f1dbULL},
    {"456.hmmer", "MPK+ss", 0xc7caa3ca9e113358ULL},
    {"456.hmmer", "VMFUNC+ss", 0xc8eef08b73ab5033ULL},
    {"456.hmmer", "crypt+ss", 0xecf2d081aa25f835ULL},
    {"458.sjeng", "baseline", 0xe6b8e44156584c14ULL},
    {"458.sjeng", "SFI", 0x1ab0d2068f05d43cULL},
    {"458.sjeng", "MPX", 0x95721c6f1dcac181ULL},
    {"458.sjeng", "MPK+ss", 0x09e0ab775c4a40a4ULL},
    {"458.sjeng", "VMFUNC+ss", 0x95303cd526bb8a7bULL},
    {"458.sjeng", "crypt+ss", 0xd315c55247e4eca7ULL},
    {"462.libquantum", "baseline", 0x4d8c4bbe21560778ULL},
    {"462.libquantum", "SFI", 0x9e9316beec9cf94bULL},
    {"462.libquantum", "MPX", 0x80bdca3cbacf1621ULL},
    {"462.libquantum", "MPK+ss", 0x25e52e29bb0fd2d5ULL},
    {"462.libquantum", "VMFUNC+ss", 0x599aedd7f5d68461ULL},
    {"462.libquantum", "crypt+ss", 0x35e974cbca54a3e9ULL},
    {"464.h264ref", "baseline", 0x245f25bd60ca23a7ULL},
    {"464.h264ref", "SFI", 0xa97a77eca6c7ec6bULL},
    {"464.h264ref", "MPX", 0x6ef71797bf5ea8c9ULL},
    {"464.h264ref", "MPK+ss", 0xddcf9aefaf4dc5b1ULL},
    {"464.h264ref", "VMFUNC+ss", 0x777128095c8e7f1bULL},
    {"464.h264ref", "crypt+ss", 0x4694b3cb14ee2634ULL},
    {"470.lbm", "baseline", 0xb75f70f21c08273bULL},
    {"470.lbm", "SFI", 0x73e1494f3a3b18caULL},
    {"470.lbm", "MPX", 0x21cc50ec64efee9cULL},
    {"470.lbm", "MPK+ss", 0xb41b37010694558aULL},
    {"470.lbm", "VMFUNC+ss", 0xbc0debe7e5675965ULL},
    {"470.lbm", "crypt+ss", 0xac82c974fee6f222ULL},
    {"471.omnetpp", "baseline", 0x5b2938cdc637266aULL},
    {"471.omnetpp", "SFI", 0x013f8a67c370e9dcULL},
    {"471.omnetpp", "MPX", 0xf0c53d80bd6b46b7ULL},
    {"471.omnetpp", "MPK+ss", 0x178ac45b84fe2492ULL},
    {"471.omnetpp", "VMFUNC+ss", 0xb3cac0292203dfdfULL},
    {"471.omnetpp", "crypt+ss", 0x9c2d776335f1a1e8ULL},
    {"473.astar", "baseline", 0x9dadfe858ca80560ULL},
    {"473.astar", "SFI", 0x72075e4a52f801f0ULL},
    {"473.astar", "MPX", 0x97e5062072abb1eaULL},
    {"473.astar", "MPK+ss", 0x04c1131e86df9c72ULL},
    {"473.astar", "VMFUNC+ss", 0x81e7bbb0d8a5262dULL},
    {"473.astar", "crypt+ss", 0x3c7dc6a8966ea39dULL},
    {"482.sphinx3", "baseline", 0x4b22213627ff1da4ULL},
    {"482.sphinx3", "SFI", 0x51d30b746f6dd1c7ULL},
    {"482.sphinx3", "MPX", 0x13b104ff482e44f2ULL},
    {"482.sphinx3", "MPK+ss", 0xbe4849e46d91e6b5ULL},
    {"482.sphinx3", "VMFUNC+ss", 0x6070dba7c2aa67e3ULL},
    {"482.sphinx3", "crypt+ss", 0x47a4bc7b8daeec32ULL},
    {"483.xalancbmk", "baseline", 0xbe06da7f57149f8dULL},
    {"483.xalancbmk", "SFI", 0x6a8fc92b847a1b0aULL},
    {"483.xalancbmk", "MPX", 0x2a2b774ed0b66f4fULL},
    {"483.xalancbmk", "MPK+ss", 0x4d13b037a8cb27e5ULL},
    {"483.xalancbmk", "VMFUNC+ss", 0x319534d91034eb41ULL},
    {"483.xalancbmk", "crypt+ss", 0x24e4d101155008baULL},
};
// clang-format on

// Suite totals over every pinned run, in profile-then-config order, so a
// digest mismatch also shows which modeled quantity moved.
struct Totals {
  double cycles = 0;
  uint64_t instructions = 0;
  uint64_t loads = 0;
  uint64_t stores = 0;
  uint64_t l1_hits = 0;
  uint64_t l2_hits = 0;
  uint64_t l3_hits = 0;
  uint64_t dram_accesses = 0;
  uint64_t tlb_misses = 0;
  uint64_t grant_hits = 0;
  uint64_t walk_touches = 0;
};

TEST(ModelPinTest, EveryProfileAndConfigMatchesPinnedResults) {
  Totals totals;
  size_t checked = 0;
  for (const workloads::SpecProfile& profile : workloads::SpecCpu2006()) {
    for (const PinConfig& config : kConfigs) {
      const Modeled m = RunConfigured(profile, config);
      ASSERT_FALSE(m.result.fault.has_value()) << profile.name << " " << config.name;
      totals.cycles += m.result.cycles;
      totals.instructions += m.result.instructions;
      totals.loads += m.result.loads;
      totals.stores += m.result.stores;
      totals.l1_hits += m.cache.l1_hits;
      totals.l2_hits += m.cache.l2_hits;
      totals.l3_hits += m.cache.l3_hits;
      totals.dram_accesses += m.cache.dram_accesses;
      totals.tlb_misses += m.tlb.misses;
      totals.grant_hits += m.grant.hits;
      totals.walk_touches += m.mmu.walk_memory_touches;
      const uint64_t digest = Digest(m);
      char line[128];
      std::snprintf(line, sizeof(line), "{\"%s\", \"%s\", 0x%016llxULL},", profile.name.c_str(),
                    config.name, static_cast<unsigned long long>(digest));
      const PinnedRun* pinned = nullptr;
      for (const PinnedRun& p : kPinnedRuns) {
        if (profile.name == p.profile && std::string(config.name) == p.config) {
          pinned = &p;
        }
      }
      if (pinned == nullptr) {
        ADD_FAILURE() << "no pinned run; observed " << line;
        continue;
      }
      ++checked;
      EXPECT_EQ(digest, pinned->digest) << "observed " << line;
    }
  }
  EXPECT_EQ(checked, std::size(kPinnedRuns));
  // The pinned suite totals (cycles as a hexadecimal double: bit-exact).
  EXPECT_EQ(totals.cycles, 0x1.2f807e9ffff9p+25);
  EXPECT_EQ(totals.instructions, 15740067u);
  EXPECT_EQ(totals.loads, 3060960u);
  EXPECT_EQ(totals.stores, 1088937u);
  EXPECT_EQ(totals.l1_hits, 3847020u);
  EXPECT_EQ(totals.l2_hits, 98862u);
  EXPECT_EQ(totals.l3_hits, 334u);
  EXPECT_EQ(totals.dram_accesses, 489505u);
  EXPECT_EQ(totals.tlb_misses, 7857u);
  EXPECT_EQ(totals.grant_hits, 4264947u);
  EXPECT_EQ(totals.walk_touches, 36704u);
}

}  // namespace
}  // namespace memsentry
