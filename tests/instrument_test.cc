// The MemSentry pass end-to-end: instrumented programs run to completion with
// legitimate (annotated) safe-region accesses working, while un-annotated
// accesses to the safe region are stopped — for every technique.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/core/memsentry.h"
#include "src/defenses/shadow_stack.h"
#include "src/ir/builder.h"
#include "src/ir/verifier.h"
#include "src/sim/decode_cache.h"
#include "src/sim/executor.h"
#include "src/workloads/synth.h"

namespace memsentry::core {
namespace {

using ir::Builder;
using ir::Module;
using ir::Opcode;
using machine::Gpr;

constexpr uint64_t kMagic = 0x600df00dULL;

// Builds: store kMagic to the safe region (annotated), one plain working-set
// load, halt. When `annotate` is false the safe-region store is a plain
// (attacker-reachable) store.
Module AccessProgram(VirtAddr region_base, bool annotate) {
  Module m;
  Builder b(&m);
  b.CreateFunction("main");
  b.MovImm(Gpr::kRbx, kMagic);
  b.MovImm(Gpr::kR14, region_base);
  auto& store = b.Store(Gpr::kR14, Gpr::kRbx);
  if (annotate) {
    MarkSafeRegionAccess(store);
  }
  b.MovImm(Gpr::kR9, sim::kWorkingSetBase);
  b.Load(Gpr::kRcx, Gpr::kR9);
  b.Halt();
  return m;
}

struct Env {
  sim::Machine machine;
  std::unique_ptr<sim::Process> process;
  std::unique_ptr<MemSentry> memsentry;
  VirtAddr base = 0;

  explicit Env(TechniqueKind kind, ProtectMode mode = ProtectMode::kReadWrite) {
    process = std::make_unique<sim::Process>(&machine);
    if (kind == TechniqueKind::kVmfunc) {
      EXPECT_TRUE(process->EnableDune().ok());
    }
    EXPECT_TRUE(process->SetupStack().ok());
    EXPECT_TRUE(process->MapRange(sim::kWorkingSetBase, 4, machine::PageFlags::Data()).ok());
    MemSentryConfig config;
    config.technique = kind;
    config.options.mode = mode;
    memsentry = std::make_unique<MemSentry>(process.get(), config);
    auto region = memsentry->allocator().Alloc("region", 4096);
    EXPECT_TRUE(region.ok());
    base = region.value()->base;
  }

  // Ground truth of the first safe-region word, decrypting if necessary.
  uint64_t RegionWord() {
    auto& region = process->safe_regions()[0];
    if (region.crypt && region.encrypted_now) {
      std::vector<uint8_t> bytes(region.size);
      EXPECT_TRUE(process->PeekBytes(region.base, bytes.data(), region.size).ok());
      aes::CryptRegion(bytes, region.enc_keys, region.nonce);
      uint64_t v = 0;
      memcpy(&v, bytes.data(), 8);
      return v;
    }
    return process->Peek64(base).value();
  }
};

class AllTechniquesTest : public ::testing::TestWithParam<TechniqueKind> {};

INSTANTIATE_TEST_SUITE_P(Deterministic, AllTechniquesTest,
                         ::testing::Values(TechniqueKind::kSfi, TechniqueKind::kMpx,
                                           TechniqueKind::kMpk, TechniqueKind::kVmfunc,
                                           TechniqueKind::kCrypt, TechniqueKind::kSgx,
                                           TechniqueKind::kMprotect),
                         [](const auto& info) {
                           return std::string(TechniqueKindName(info.param));
                         });

TEST_P(AllTechniquesTest, AnnotatedAccessSucceedsEndToEnd) {
  Env env(GetParam());
  Module m = AccessProgram(env.base, /*annotate=*/true);
  ASSERT_TRUE(env.memsentry->Protect(m).ok());
  ASSERT_TRUE(ir::Verify(m).ok());
  sim::Executor executor(env.process.get(), &m);
  auto result = executor.Run();
  EXPECT_TRUE(result.halted) << (result.fault ? result.fault->ToString() : "no fault");
  EXPECT_FALSE(result.fault.has_value());
  EXPECT_EQ(env.RegionWord(), kMagic);
}

TEST_P(AllTechniquesTest, UnannotatedAccessIsStopped) {
  Env env(GetParam());
  Module m = AccessProgram(env.base, /*annotate=*/false);
  ASSERT_TRUE(env.memsentry->Protect(m).ok());
  sim::Executor executor(env.process.get(), &m);
  auto result = executor.Run();
  // Either the machine faulted (domain-based / MPX) or the store was
  // silently diverted (SFI) or landed on ciphertext (crypt). In every case
  // the region's logical content must NOT be the attacker's value.
  EXPECT_NE(env.RegionWord(), kMagic);
}

TEST_P(AllTechniquesTest, InstrumentationRunsAreWellFormed) {
  Env env(GetParam());
  Module m = AccessProgram(env.base, /*annotate=*/true);
  const uint64_t before = m.InstrCount();
  ASSERT_TRUE(env.memsentry->Protect(m).ok());
  EXPECT_GE(m.InstrCount(), before);
  EXPECT_TRUE(ir::Verify(m).ok());
}

TEST(MemSentryPassTest, AddressBasedInsertsPerAccessChecks) {
  Env env(TechniqueKind::kMpx);
  Module m = AccessProgram(env.base, /*annotate=*/true);
  ASSERT_TRUE(env.memsentry->technique().Prepare(*env.process).ok());
  MemSentryPass pass(&env.memsentry->technique(), env.process.get(), InstrumentOptions{});
  ASSERT_TRUE(pass.Run(m).ok());
  // One plain load instrumented; the annotated store exempt.
  EXPECT_EQ(pass.checks_inserted(), 1u);
  EXPECT_EQ(m.CountIf([](const ir::Instr& i) { return i.op == Opcode::kBndcu; }), 1u);
}

TEST(MemSentryPassTest, WriteOnlyModeSkipsLoads) {
  Env env(TechniqueKind::kMpx, ProtectMode::kWriteOnly);
  Module m = AccessProgram(env.base, /*annotate=*/false);
  ASSERT_TRUE(env.memsentry->technique().Prepare(*env.process).ok());
  InstrumentOptions opts;
  opts.mode = ProtectMode::kWriteOnly;
  MemSentryPass pass(&env.memsentry->technique(), env.process.get(), opts);
  ASSERT_TRUE(pass.Run(m).ok());
  EXPECT_EQ(pass.checks_inserted(), 1u);  // just the store
}

TEST(MemSentryPassTest, ReadOnlyModeSkipsStores) {
  Env env(TechniqueKind::kSfi, ProtectMode::kReadOnly);
  Module m = AccessProgram(env.base, /*annotate=*/false);
  ASSERT_TRUE(env.memsentry->technique().Prepare(*env.process).ok());
  InstrumentOptions opts;
  opts.mode = ProtectMode::kReadOnly;
  MemSentryPass pass(&env.memsentry->technique(), env.process.get(), opts);
  ASSERT_TRUE(pass.Run(m).ok());
  EXPECT_EQ(pass.checks_inserted(), 1u);  // just the load
}

TEST(MemSentryPassTest, DomainBasedWrapsAnnotatedRuns) {
  Env env(TechniqueKind::kMpk);
  Module m = AccessProgram(env.base, /*annotate=*/true);
  ASSERT_TRUE(env.memsentry->technique().Prepare(*env.process).ok());
  MemSentryPass pass(&env.memsentry->technique(), env.process.get(), InstrumentOptions{});
  ASSERT_TRUE(pass.Run(m).ok());
  EXPECT_EQ(pass.switch_pairs_inserted(), 1u);
  EXPECT_EQ(m.CountIf([](const ir::Instr& i) { return i.op == Opcode::kWrpkru; }), 2u);
}

TEST(MemSentryPassTest, ContiguousRunSharesOneSwitchPair) {
  Env env(TechniqueKind::kMpk);
  Module m;
  Builder b(&m);
  b.CreateFunction("main");
  b.MovImm(Gpr::kR14, env.base);
  b.MovImm(Gpr::kRbx, 1);
  MarkSafeRegionAccess(b.Store(Gpr::kR14, Gpr::kRbx));
  MarkSafeRegionAccess(b.Load(Gpr::kRcx, Gpr::kR14));
  MarkSafeRegionAccess(b.Store(Gpr::kR14, Gpr::kRcx));
  b.Halt();
  ASSERT_TRUE(env.memsentry->technique().Prepare(*env.process).ok());
  MemSentryPass pass(&env.memsentry->technique(), env.process.get(), InstrumentOptions{});
  ASSERT_TRUE(pass.Run(m).ok());
  EXPECT_EQ(pass.switch_pairs_inserted(), 1u);  // one open/close around the run
}

TEST(MemSentryPassTest, MpxDoubleBoundsAblationEmitsBndcl) {
  Env env(TechniqueKind::kMpx);
  Module m = AccessProgram(env.base, /*annotate=*/true);
  ASSERT_TRUE(env.memsentry->technique().Prepare(*env.process).ok());
  InstrumentOptions opts;
  opts.mpx_double_bounds = true;
  MemSentryPass pass(&env.memsentry->technique(), env.process.get(), opts);
  ASSERT_TRUE(pass.Run(m).ok());
  EXPECT_EQ(m.CountIf([](const ir::Instr& i) { return i.op == Opcode::kBndcl; }), 1u);
}

TEST(MemSentryPassTest, InfoHideInstrumentsNothing) {
  Env env(TechniqueKind::kInfoHide);
  Module m = AccessProgram(env.base, /*annotate=*/false);
  const uint64_t before = m.InstrCount();
  ASSERT_TRUE(env.memsentry->Protect(m).ok());
  EXPECT_EQ(m.InstrCount(), before);
  // And the program can freely write the "hidden" region: the paper's point.
  sim::Executor executor(env.process.get(), &m);
  auto result = executor.Run();
  EXPECT_TRUE(result.halted);
  EXPECT_EQ(env.process->Peek64(env.base).value(), kMagic);
}

// The instrumenter's exact output, pinned: for every SPEC CPU2006 profile
// (synthesized at the quick suite's 100k-instruction budget, then run
// through the shadow-stack defense so both exempt accesses and domain runs
// exist) and every instrumentation configuration the figures and ablations
// use, the instrumented module's content digest and the pass's statistics
// must equal the values recorded from an implementation that built every
// check sequence afresh at each access.
struct PinnedOutput {
  const char* profile;
  const char* config;
  uint64_t digest;
  uint64_t checks;
  uint64_t switch_pairs;
};

// clang-format off
constexpr PinnedOutput kPinnedOutputs[] = {
    {"400.perlbench", "SFI-w", 0x4fbf5723f0a1c7b6ULL, 2400, 0},
    {"400.perlbench", "MPX-w", 0x256ff5b81771759cULL, 2400, 0},
    {"400.perlbench", "SFI-r", 0xf252d72b26ede35eULL, 5406, 0},
    {"400.perlbench", "MPX-r", 0xccbbb8ac793286d6ULL, 5406, 0},
    {"400.perlbench", "SFI-rw", 0x479e99bbec114f5dULL, 7806, 0},
    {"400.perlbench", "MPX-rw", 0x1f6eacf1cacb4849ULL, 7806, 0},
    {"400.perlbench", "SFI-remat", 0x863dd28ce6f59948ULL, 7806, 0},
    {"400.perlbench", "MPX-double", 0x69f2064a79b4c4cbULL, 7806, 0},
    {"400.perlbench", "MPK", 0xddb3dafb7bc1b847ULL, 0, 13},
    {"400.perlbench", "VMFUNC", 0xaf30626a70c469bbULL, 0, 13},
    {"400.perlbench", "crypt", 0x46fcaa8685dc40fbULL, 0, 13},
    {"401.bzip2", "SFI-w", 0x9c4b070f6eef33c5ULL, 1900, 0},
    {"401.bzip2", "MPX-w", 0xc004f27e3d4a7244ULL, 1900, 0},
    {"401.bzip2", "SFI-r", 0x4d02b399efb46ef2ULL, 5206, 0},
    {"401.bzip2", "MPX-r", 0xb78ddf3654deaf86ULL, 5206, 0},
    {"401.bzip2", "SFI-rw", 0x56be4c3e2e6f9136ULL, 7106, 0},
    {"401.bzip2", "MPX-rw", 0x9a2afb5a91d12976ULL, 7106, 0},
    {"401.bzip2", "SFI-remat", 0x5c18c4812266ea1fULL, 7106, 0},
    {"401.bzip2", "MPX-double", 0x8920cddc40f8730eULL, 7106, 0},
    {"401.bzip2", "MPK", 0x5fe3d9d75cb9b606ULL, 0, 13},
    {"401.bzip2", "VMFUNC", 0x556b4f363ee811bdULL, 0, 13},
    {"401.bzip2", "crypt", 0x5c41c30eceea3f0bULL, 0, 13},
    {"403.gcc", "SFI-w", 0xca5fc64f03510aacULL, 2200, 0},
    {"403.gcc", "MPX-w", 0xb22e5f7002436002ULL, 2200, 0},
    {"403.gcc", "SFI-r", 0x01d13e10c04f5bc0ULL, 5206, 0},
    {"403.gcc", "MPX-r", 0xa8070b88e9bfa724ULL, 5206, 0},
    {"403.gcc", "SFI-rw", 0x3a51a46d91ab572aULL, 7406, 0},
    {"403.gcc", "MPX-rw", 0x4442550c2eff721fULL, 7406, 0},
    {"403.gcc", "SFI-remat", 0x1c6dc7b00ef6678cULL, 7406, 0},
    {"403.gcc", "MPX-double", 0x30a729d37aa2d7ffULL, 7406, 0},
    {"403.gcc", "MPK", 0xad26bbb6900857b3ULL, 0, 13},
    {"403.gcc", "VMFUNC", 0xbb8e3e292a1fc271ULL, 0, 13},
    {"403.gcc", "crypt", 0xbcc13e8312da4d53ULL, 0, 13},
    {"429.mcf", "SFI-w", 0xe8be672f4985402eULL, 1100, 0},
    {"429.mcf", "MPX-w", 0x16e31258d1c1da9fULL, 1100, 0},
    {"429.mcf", "SFI-r", 0x1e8aa15e999a04d0ULL, 6406, 0},
    {"429.mcf", "MPX-r", 0x77f75e7ede0a29a7ULL, 6406, 0},
    {"429.mcf", "SFI-rw", 0x29a3aa0d566fa2baULL, 7506, 0},
    {"429.mcf", "MPX-rw", 0xb3ae2ad2ec25caf9ULL, 7506, 0},
    {"429.mcf", "SFI-remat", 0xac51a5528846ea9dULL, 7506, 0},
    {"429.mcf", "MPX-double", 0xb9095e3be9bf92fdULL, 7506, 0},
    {"429.mcf", "MPK", 0x27c61f794469304bULL, 0, 13},
    {"429.mcf", "VMFUNC", 0x291e728784bdf4f5ULL, 0, 13},
    {"429.mcf", "crypt", 0xf09380550ff1131dULL, 0, 13},
    {"433.milc", "SFI-w", 0x555763acacd3f619ULL, 1800, 0},
    {"433.milc", "MPX-w", 0x13ae80ea99b49defULL, 1800, 0},
    {"433.milc", "SFI-r", 0x2370a37768856a8dULL, 4606, 0},
    {"433.milc", "MPX-r", 0x9f2ed8fcb0e09f3aULL, 4606, 0},
    {"433.milc", "SFI-rw", 0x625b8a21722669ceULL, 6406, 0},
    {"433.milc", "MPX-rw", 0xe5119280a3ec9174ULL, 6406, 0},
    {"433.milc", "SFI-remat", 0xaf0d1794da78f8efULL, 6406, 0},
    {"433.milc", "MPX-double", 0x00df0cf4c7d4c3acULL, 6406, 0},
    {"433.milc", "MPK", 0x1541c169be4ddecdULL, 0, 13},
    {"433.milc", "VMFUNC", 0x6813794d88487aeeULL, 0, 13},
    {"433.milc", "crypt", 0xdb5c88c369e7e1bbULL, 0, 13},
    {"444.namd", "SFI-w", 0x75fb2e1dec0a1c9aULL, 1200, 0},
    {"444.namd", "MPX-w", 0x79de1f77b422bb9aULL, 1200, 0},
    {"444.namd", "SFI-r", 0x375bab70724587fbULL, 4806, 0},
    {"444.namd", "MPX-r", 0xf73564759bf4545dULL, 4806, 0},
    {"444.namd", "SFI-rw", 0xd1843b083f7ff1b6ULL, 6006, 0},
    {"444.namd", "MPX-rw", 0x1d0442d024a6de2cULL, 6006, 0},
    {"444.namd", "SFI-remat", 0x7f2eb0db2f8e42f2ULL, 6006, 0},
    {"444.namd", "MPX-double", 0xb109f41b4877e538ULL, 6006, 0},
    {"444.namd", "MPK", 0xf1fa8d2e88b0199fULL, 0, 13},
    {"444.namd", "VMFUNC", 0xfee2a87f81ea8f9cULL, 0, 13},
    {"444.namd", "crypt", 0x8daa46e3f0121ec3ULL, 0, 13},
    {"445.gobmk", "SFI-w", 0x3a337f65029cbda4ULL, 1600, 0},
    {"445.gobmk", "MPX-w", 0xacf22fbce3f8c098ULL, 1600, 0},
    {"445.gobmk", "SFI-r", 0xf29b65c1ba1c258fULL, 4606, 0},
    {"445.gobmk", "MPX-r", 0x0d89da4bd16fcf20ULL, 4606, 0},
    {"445.gobmk", "SFI-rw", 0xdb5d5ed76f3dca6aULL, 6206, 0},
    {"445.gobmk", "MPX-rw", 0xffb64e9b2746536fULL, 6206, 0},
    {"445.gobmk", "SFI-remat", 0xe9f0eebb66302735ULL, 6206, 0},
    {"445.gobmk", "MPX-double", 0xc12ee34c52643fa5ULL, 6206, 0},
    {"445.gobmk", "MPK", 0x10ee0493b447de38ULL, 0, 13},
    {"445.gobmk", "VMFUNC", 0xa10686ea692e32ccULL, 0, 13},
    {"445.gobmk", "crypt", 0xae6a44aa372ec1b8ULL, 0, 13},
    {"447.dealII", "SFI-w", 0x7f5665e3d0f11716ULL, 1900, 0},
    {"447.dealII", "MPX-w", 0xe78c7a0bf602994aULL, 1900, 0},
    {"447.dealII", "SFI-r", 0xc1ac647fa49e6452ULL, 5806, 0},
    {"447.dealII", "MPX-r", 0x21d7405be847ceb2ULL, 5806, 0},
    {"447.dealII", "SFI-rw", 0x635be1f38aac0a4eULL, 7706, 0},
    {"447.dealII", "MPX-rw", 0xb52255c3b0e5ba4aULL, 7706, 0},
    {"447.dealII", "SFI-remat", 0xd65c9ace9f023136ULL, 7706, 0},
    {"447.dealII", "MPX-double", 0xc11e65c29690c1bcULL, 7706, 0},
    {"447.dealII", "MPK", 0x7231af6c3bf0e1dfULL, 0, 13},
    {"447.dealII", "VMFUNC", 0x9c6ef1ad17315379ULL, 0, 13},
    {"447.dealII", "crypt", 0xc60bb1d934c1a7dfULL, 0, 13},
    {"450.soplex", "SFI-w", 0x1d6d9aeb36ea9c45ULL, 1300, 0},
    {"450.soplex", "MPX-w", 0x6753e3d7a16f3cc4ULL, 1300, 0},
    {"450.soplex", "SFI-r", 0xa6082c6ad5829517ULL, 6006, 0},
    {"450.soplex", "MPX-r", 0x2f9d38aa1107fb74ULL, 6006, 0},
    {"450.soplex", "SFI-rw", 0xc7944ba810a036a5ULL, 7306, 0},
    {"450.soplex", "MPX-rw", 0xe89e8b149f5fc449ULL, 7306, 0},
    {"450.soplex", "SFI-remat", 0x9bbedac088e96c35ULL, 7306, 0},
    {"450.soplex", "MPX-double", 0x1f712760d23688c9ULL, 7306, 0},
    {"450.soplex", "MPK", 0xe0e75f19f0bf9d4aULL, 0, 13},
    {"450.soplex", "VMFUNC", 0x129352d5208f7556ULL, 0, 13},
    {"450.soplex", "crypt", 0x7c6069d8a2e66dd2ULL, 0, 13},
    {"453.povray", "SFI-w", 0xfec259339d700c65ULL, 2200, 0},
    {"453.povray", "MPX-w", 0xecf70e3f3e2ec3ddULL, 2200, 0},
    {"453.povray", "SFI-r", 0x281d2676cde23fbcULL, 5206, 0},
    {"453.povray", "MPX-r", 0x30a7ec8e7bbfd3c6ULL, 5206, 0},
    {"453.povray", "SFI-rw", 0xeef686aabd85badbULL, 7406, 0},
    {"453.povray", "MPX-rw", 0x33c47032741f8a6bULL, 7406, 0},
    {"453.povray", "SFI-remat", 0xe7e899cc4d0ce6e1ULL, 7406, 0},
    {"453.povray", "MPX-double", 0x8c96f448c06c9391ULL, 7406, 0},
    {"453.povray", "MPK", 0x2f90fa7a28cad1a6ULL, 0, 13},
    {"453.povray", "VMFUNC", 0x95d213cdece1949fULL, 0, 13},
    {"453.povray", "crypt", 0x7fe02f15564b5280ULL, 0, 13},
    {"456.hmmer", "SFI-w", 0x61243c790f0e4a79ULL, 2800, 0},
    {"456.hmmer", "MPX-w", 0xa4694dc799a1254bULL, 2800, 0},
    {"456.hmmer", "SFI-r", 0x56fd1d82f95e82fcULL, 6806, 0},
    {"456.hmmer", "MPX-r", 0x596047e57d03cecaULL, 6806, 0},
    {"456.hmmer", "SFI-rw", 0x4b4def03dd15a918ULL, 9606, 0},
    {"456.hmmer", "MPX-rw", 0x6e49dceba38a4d6fULL, 9606, 0},
    {"456.hmmer", "SFI-remat", 0xee5efa852ed25425ULL, 9606, 0},
    {"456.hmmer", "MPX-double", 0xe8aaac68319d4bacULL, 9606, 0},
    {"456.hmmer", "MPK", 0x5a7141008e54c193ULL, 0, 13},
    {"456.hmmer", "VMFUNC", 0xcf2ecddb8203a263ULL, 0, 13},
    {"456.hmmer", "crypt", 0x2b78ecd364f49e86ULL, 0, 13},
    {"458.sjeng", "SFI-w", 0xbd2fe824ca36844eULL, 1600, 0},
    {"458.sjeng", "MPX-w", 0x8c7d2371ba50d379ULL, 1600, 0},
    {"458.sjeng", "SFI-r", 0x3a290b3267776e7fULL, 4406, 0},
    {"458.sjeng", "MPX-r", 0xb218212f86fadbfbULL, 4406, 0},
    {"458.sjeng", "SFI-rw", 0x7ad3fa0dab6a142dULL, 6006, 0},
    {"458.sjeng", "MPX-rw", 0xab625ee6b079c5f6ULL, 6006, 0},
    {"458.sjeng", "SFI-remat", 0xf811e885df774ad0ULL, 6006, 0},
    {"458.sjeng", "MPX-double", 0x17d931383981c65fULL, 6006, 0},
    {"458.sjeng", "MPK", 0x22b9e681c83f9fb0ULL, 0, 13},
    {"458.sjeng", "VMFUNC", 0x9a722c156bc8d7daULL, 0, 13},
    {"458.sjeng", "crypt", 0x214214752098a4b1ULL, 0, 13},
    {"462.libquantum", "SFI-w", 0x469e55b8ef9e5c20ULL, 1600, 0},
    {"462.libquantum", "MPX-w", 0x983098ef7fede940ULL, 1600, 0},
    {"462.libquantum", "SFI-r", 0x98f0231c1b21b5faULL, 5006, 0},
    {"462.libquantum", "MPX-r", 0x83c1565da78e7daeULL, 5006, 0},
    {"462.libquantum", "SFI-rw", 0x2536d0cf439d0ae5ULL, 6606, 0},
    {"462.libquantum", "MPX-rw", 0x53ba054b7a0e9042ULL, 6606, 0},
    {"462.libquantum", "SFI-remat", 0x34264c6034f6543bULL, 6606, 0},
    {"462.libquantum", "MPX-double", 0x8d68f0fe9e8296f5ULL, 6606, 0},
    {"462.libquantum", "MPK", 0xfa80993a5fadc729ULL, 0, 13},
    {"462.libquantum", "VMFUNC", 0xbdca7d14c0e7e388ULL, 0, 13},
    {"462.libquantum", "crypt", 0x9d5523e1cca60677ULL, 0, 13},
    {"464.h264ref", "SFI-w", 0x4797b80caecb0328ULL, 2200, 0},
    {"464.h264ref", "MPX-w", 0xfe8f11393cc9eb60ULL, 2200, 0},
    {"464.h264ref", "SFI-r", 0xad82e4b4d9b96703ULL, 5406, 0},
    {"464.h264ref", "MPX-r", 0x7de4bae806d05321ULL, 5406, 0},
    {"464.h264ref", "SFI-rw", 0xa989eca51a034336ULL, 7606, 0},
    {"464.h264ref", "MPX-rw", 0x36e975c752254644ULL, 7606, 0},
    {"464.h264ref", "SFI-remat", 0x0f81b5382763f525ULL, 7606, 0},
    {"464.h264ref", "MPX-double", 0x91a4b8576dad0aafULL, 7606, 0},
    {"464.h264ref", "MPK", 0x2304727c1396a5ecULL, 0, 13},
    {"464.h264ref", "VMFUNC", 0x6051b2fa354f12fbULL, 0, 13},
    {"464.h264ref", "crypt", 0x87b15a8093ab77a6ULL, 0, 13},
    {"470.lbm", "SFI-w", 0x70a5136a637ada7fULL, 2200, 0},
    {"470.lbm", "MPX-w", 0xfddb981d14ffa598ULL, 2200, 0},
    {"470.lbm", "SFI-r", 0x2c8f9c85b8675fb2ULL, 4006, 0},
    {"470.lbm", "MPX-r", 0xf5b8009fd8af3b1aULL, 4006, 0},
    {"470.lbm", "SFI-rw", 0x193502c3b1b5faddULL, 6206, 0},
    {"470.lbm", "MPX-rw", 0xb2d1ec6ab519dfdbULL, 6206, 0},
    {"470.lbm", "SFI-remat", 0x4b9145250adde4dbULL, 6206, 0},
    {"470.lbm", "MPX-double", 0x772e789967fab621ULL, 6206, 0},
    {"470.lbm", "MPK", 0x1823845f8078c64bULL, 0, 13},
    {"470.lbm", "VMFUNC", 0xc13416313d9a7853ULL, 0, 13},
    {"470.lbm", "crypt", 0x31d9b13fb7f624ecULL, 0, 13},
    {"471.omnetpp", "SFI-w", 0xe4af2f54b26078daULL, 2400, 0},
    {"471.omnetpp", "MPX-w", 0x9b0ee4b93cc3a92aULL, 2400, 0},
    {"471.omnetpp", "SFI-r", 0x1635aa672e53c9f7ULL, 5606, 0},
    {"471.omnetpp", "MPX-r", 0xeb6a52307ad31247ULL, 5606, 0},
    {"471.omnetpp", "SFI-rw", 0x558639d7b6f1b17bULL, 8006, 0},
    {"471.omnetpp", "MPX-rw", 0xc05095e1676eaf8cULL, 8006, 0},
    {"471.omnetpp", "SFI-remat", 0xe475a388fd31a340ULL, 8006, 0},
    {"471.omnetpp", "MPX-double", 0x9aaff50ea6d9c850ULL, 8006, 0},
    {"471.omnetpp", "MPK", 0xa669996d53fef50eULL, 0, 13},
    {"471.omnetpp", "VMFUNC", 0x4b880d8ab21c99daULL, 0, 13},
    {"471.omnetpp", "crypt", 0xfc086316433cec4fULL, 0, 13},
    {"473.astar", "SFI-w", 0x72c085fcfe9752f2ULL, 1600, 0},
    {"473.astar", "MPX-w", 0xe1e164124624bb59ULL, 1600, 0},
    {"473.astar", "SFI-r", 0xb19e84de4034a5a6ULL, 5806, 0},
    {"473.astar", "MPX-r", 0x62df5ace3b37372aULL, 5806, 0},
    {"473.astar", "SFI-rw", 0x37a5dda3f29873d7ULL, 7406, 0},
    {"473.astar", "MPX-rw", 0x27ed21321aa1632bULL, 7406, 0},
    {"473.astar", "SFI-remat", 0x0297ae231343ad87ULL, 7406, 0},
    {"473.astar", "MPX-double", 0xeb77ecabe01de966ULL, 7406, 0},
    {"473.astar", "MPK", 0x13316a686a90edb4ULL, 0, 13},
    {"473.astar", "VMFUNC", 0xa40684eebaff7580ULL, 0, 13},
    {"473.astar", "crypt", 0x4d5049dce75961a8ULL, 0, 13},
    {"482.sphinx3", "SFI-w", 0xe8b0edb7d339f017ULL, 1400, 0},
    {"482.sphinx3", "MPX-w", 0x8bb63ab5d9ef2ee1ULL, 1400, 0},
    {"482.sphinx3", "SFI-r", 0x64495af18cdea1e4ULL, 5406, 0},
    {"482.sphinx3", "MPX-r", 0xb6f82555711636eeULL, 5406, 0},
    {"482.sphinx3", "SFI-rw", 0xfd9d2d05bb56101eULL, 6806, 0},
    {"482.sphinx3", "MPX-rw", 0xff60ae1f3928624eULL, 6806, 0},
    {"482.sphinx3", "SFI-remat", 0xbb904be4f309397bULL, 6806, 0},
    {"482.sphinx3", "MPX-double", 0x154b7a90214a77b0ULL, 6806, 0},
    {"482.sphinx3", "MPK", 0xc2b53fe5112b7489ULL, 0, 13},
    {"482.sphinx3", "VMFUNC", 0xca09c44485a31045ULL, 0, 13},
    {"482.sphinx3", "crypt", 0xeee3d52c77ead0d7ULL, 0, 13},
    {"483.xalancbmk", "SFI-w", 0x38e2d3d2e4ba4fb5ULL, 1800, 0},
    {"483.xalancbmk", "MPX-w", 0xecdab67962c9791eULL, 1800, 0},
    {"483.xalancbmk", "SFI-r", 0x4f8c6c336fccf326ULL, 5606, 0},
    {"483.xalancbmk", "MPX-r", 0x3b48bde543b53538ULL, 5606, 0},
    {"483.xalancbmk", "SFI-rw", 0x952d42d8c65490d5ULL, 7406, 0},
    {"483.xalancbmk", "MPX-rw", 0x1e950f1699e0cda6ULL, 7406, 0},
    {"483.xalancbmk", "SFI-remat", 0xe1930038f1e96c38ULL, 7406, 0},
    {"483.xalancbmk", "MPX-double", 0x75a1e0c75e8f03aaULL, 7406, 0},
    {"483.xalancbmk", "MPK", 0xe3ff00930e9e5a4dULL, 0, 13},
    {"483.xalancbmk", "VMFUNC", 0x4bd422145ef975deULL, 0, 13},
    {"483.xalancbmk", "crypt", 0x97c3e66226f66970ULL, 0, 13},
};
// clang-format on

struct PinConfig {
  const char* name;
  TechniqueKind kind;
  InstrumentOptions options;
};

std::vector<PinConfig> PinConfigs() {
  const auto with_mode = [](ProtectMode mode) {
    InstrumentOptions options;
    options.mode = mode;
    return options;
  };
  InstrumentOptions remat;
  remat.sfi_rematerialize_mask = true;
  InstrumentOptions double_bounds;
  double_bounds.mpx_double_bounds = true;
  return {
      {"SFI-w", TechniqueKind::kSfi, with_mode(ProtectMode::kWriteOnly)},
      {"MPX-w", TechniqueKind::kMpx, with_mode(ProtectMode::kWriteOnly)},
      {"SFI-r", TechniqueKind::kSfi, with_mode(ProtectMode::kReadOnly)},
      {"MPX-r", TechniqueKind::kMpx, with_mode(ProtectMode::kReadOnly)},
      {"SFI-rw", TechniqueKind::kSfi, with_mode(ProtectMode::kReadWrite)},
      {"MPX-rw", TechniqueKind::kMpx, with_mode(ProtectMode::kReadWrite)},
      {"SFI-remat", TechniqueKind::kSfi, remat},
      {"MPX-double", TechniqueKind::kMpx, double_bounds},
      {"MPK", TechniqueKind::kMpk, InstrumentOptions{}},
      {"VMFUNC", TechniqueKind::kVmfunc, InstrumentOptions{}},
      {"crypt", TechniqueKind::kCrypt, InstrumentOptions{}},
  };
}

TEST(MemSentryPassTest, OutputPinnedForEverySpecProfileAndConfig) {
  size_t checked = 0;
  for (const workloads::SpecProfile& profile : workloads::SpecCpu2006()) {
    workloads::SynthOptions synth;
    synth.target_instructions = 100'000;
    const Module synthesized = workloads::SynthesizeSpecProgram(profile, synth);
    for (const PinConfig& config : PinConfigs()) {
      sim::Machine machine;
      sim::Process process(&machine);
      if (config.kind == TechniqueKind::kVmfunc) {
        ASSERT_TRUE(process.EnableDune().ok());
      }
      ASSERT_TRUE(process.SetupStack().ok());
      MemSentryConfig ms_config;
      ms_config.technique = config.kind;
      ms_config.options = config.options;
      MemSentry memsentry(&process, ms_config);
      const uint64_t region_bytes = config.kind == TechniqueKind::kCrypt ? 16 : 4096;
      auto region = memsentry.allocator().Alloc("defense-metadata", region_bytes);
      ASSERT_TRUE(region.ok());
      Module module = synthesized;
      defenses::ShadowStackPass shadow(region.value()->base);
      ASSERT_TRUE(shadow.Run(module).ok());
      module.Touch();
      Module via_protect = module;
      ASSERT_TRUE(memsentry.PrepareRuntime().ok());
      MemSentryPass pass(&memsentry.technique(), &process, config.options);
      ASSERT_TRUE(pass.Run(module).ok());
      module.Touch();
      ASSERT_TRUE(memsentry.Protect(via_protect).ok());
      const uint64_t digest = sim::ModuleContentDigest(module);
      EXPECT_EQ(sim::ModuleContentDigest(via_protect), digest)
          << profile.name << " " << config.name << ": Protect differs from the bare pass";
      const PinnedOutput* pinned = nullptr;
      for (const PinnedOutput& p : kPinnedOutputs) {
        if (profile.name == p.profile && std::string(config.name) == p.config) {
          pinned = &p;
        }
      }
      char line[160];
      std::snprintf(line, sizeof(line), "{\"%s\", \"%s\", 0x%016llxULL, %llu, %llu},",
                    profile.name.c_str(), config.name,
                    static_cast<unsigned long long>(digest),
                    static_cast<unsigned long long>(pass.checks_inserted()),
                    static_cast<unsigned long long>(pass.switch_pairs_inserted()));
      if (pinned == nullptr) {
        ADD_FAILURE() << "no pinned output; observed " << line;
        continue;
      }
      ++checked;
      EXPECT_EQ(digest, pinned->digest) << "observed " << line;
      EXPECT_EQ(pass.checks_inserted(), pinned->checks) << "observed " << line;
      EXPECT_EQ(pass.switch_pairs_inserted(), pinned->switch_pairs) << "observed " << line;
    }
  }
  EXPECT_EQ(checked, std::size(kPinnedOutputs));
}

}  // namespace
}  // namespace memsentry::core
