// The shared decoded-module cache: content-addressed keying, single-build
// semantics under concurrent population, reference-counted survival across
// eviction, and the Executor's cheap revalidation path. The concurrency
// tests run the same population through ParallelMap at jobs in {1, 4,
// hardware} and demand identical lowering counts and bit-identical
// execution — scheduling must never change what got built.
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/thread_pool.h"
#include "src/ir/builder.h"
#include "src/sim/decode_cache.h"
#include "src/sim/executor.h"
#include "src/sim/process.h"

namespace memsentry::sim {
namespace {

using ir::Builder;
using ir::Module;
using machine::Gpr;

// A small runnable program touching the working set; `salt` varies the
// immediate stream so distinct salts are distinct cache keys.
Module SaltedModule(uint64_t salt) {
  Module m;
  Builder b(&m);
  b.CreateFunction("main");
  b.MovImm(Gpr::kR9, kWorkingSetBase + 8 * (salt % 64));
  b.MovImm(Gpr::kRbx, 0x1000 + salt);
  b.Store(Gpr::kR9, Gpr::kRbx);
  b.Load(Gpr::kRcx, Gpr::kR9);
  b.AddImm(Gpr::kRcx, 7);
  b.Store(Gpr::kR9, Gpr::kRcx);
  b.Halt();
  return m;
}

class DecodeCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(process_.SetupStack().ok());
    ASSERT_TRUE(process_.MapRange(kWorkingSetBase, 4, machine::PageFlags::Data()).ok());
  }

  Machine machine_;
  Process process_{&machine_};
};

TEST_F(DecodeCacheTest, ContentIdenticalModulesShareOneLowering) {
  DecodeCache cache;
  const Module a = SaltedModule(1);
  const Module b = SaltedModule(1);  // equal content, different instance
  bool hit = false;
  auto da = cache.Get(a, process_, &hit);
  EXPECT_FALSE(hit);
  auto db = cache.Get(b, process_, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(da.get(), db.get());  // literally the same lowering
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST_F(DecodeCacheTest, ContentDigestSensitivity) {
  DecodeCache cache;
  const Module a = SaltedModule(1);
  Module b = SaltedModule(1);
  b.functions[0].blocks[0].instrs[1].imm ^= 1;  // one immediate differs
  b.Touch();
  (void)cache.Get(a, process_);
  (void)cache.Get(b, process_);
  EXPECT_EQ(cache.stats().misses, 2u) << "differing content must not share a key";

  // Touch() without editing invalidates the digest memo but not the key:
  // the recomputed digest matches and the entry hits.
  Module c = SaltedModule(1);
  c.Touch();
  c.Touch();
  bool hit = false;
  (void)cache.Get(c, process_, &hit);
  EXPECT_TRUE(hit);
}

// Near-miss modules must never share a content digest. The opcode-only
// family mirrors the 453.povray pair the figure suite produces: the
// call/ret VMFUNC and mprotect-baseline modules differ only in vmfunc ->
// mprotect swaps with identical operands, and an opcode difference must
// reach every bit of the digest, not just the opcode's own byte. The
// single-field families cover every other packed field and the immediate.
TEST(ModuleContentDigest, NearMissModulesAllDiffer) {
  constexpr size_t kInstrs = 96;
  std::vector<size_t> switch_sites;
  Module base;
  base.functions.emplace_back();
  base.functions[0].blocks.resize(2);
  for (size_t i = 0; i < kInstrs; ++i) {
    ir::Instr instr;
    instr.op = ir::Opcode::kLoad;
    instr.dst = static_cast<Gpr>(i % 8);
    instr.src = static_cast<Gpr>((i + 3) % 8);
    instr.imm = 0x1000 + i;
    instr.target = static_cast<int32_t>(i % 5);
    if (i % 4 == 1) {
      instr.op = ir::Opcode::kVmFunc;
      instr.imm = i % 8 == 1 ? 1 : 0;
      instr.flags = ir::kFlagInstrumentation;
      switch_sites.push_back(i);
    }
    base.functions[0].blocks[i % 2].instrs.push_back(instr);
  }
  auto at = [](Module& m, size_t i) -> ir::Instr& {
    return m.functions[0].blocks[i % 2].instrs[i / 2];
  };

  std::vector<Module> variants = {base};
  // Every single and every pair of vmfunc -> mprotect swaps.
  for (size_t a = 0; a < switch_sites.size(); ++a) {
    for (size_t b = a; b < switch_sites.size(); ++b) {
      Module m = base;
      at(m, switch_sites[a]).op = ir::Opcode::kMprotect;
      at(m, switch_sites[b]).op = ir::Opcode::kMprotect;
      variants.push_back(std::move(m));
    }
  }
  // One field of one instruction off by one, at every position.
  for (size_t i = 0; i < kInstrs; ++i) {
    for (int field = 0; field < 5; ++field) {
      Module m = base;
      ir::Instr& instr = at(m, i);
      switch (field) {
        case 0:
          instr.dst = static_cast<Gpr>((static_cast<int>(instr.dst) + 1) % 8);
          break;
        case 1:
          instr.src = static_cast<Gpr>((static_cast<int>(instr.src) + 1) % 8);
          break;
        case 2:
          instr.flags ^= ir::kFlagCritical;
          break;
        case 3:
          instr.target += 1;
          break;
        case 4:
          instr.imm ^= 1;
          break;
      }
      variants.push_back(std::move(m));
    }
  }
  ASSERT_GT(variants.size(), 300u + 5 * kInstrs);

  std::map<uint64_t, size_t> seen;
  for (size_t v = 0; v < variants.size(); ++v) {
    const auto [it, inserted] = seen.emplace(ModuleContentDigest(variants[v]), v);
    EXPECT_TRUE(inserted) << "variants " << it->second << " and " << v
                          << " share digest " << it->first;
  }
}

TEST_F(DecodeCacheTest, CostModelDigestKeysSeparately) {
  DecodeCache cache;
  const Module m = SaltedModule(3);
  (void)cache.Get(m, process_);
  Machine other_machine;
  other_machine.cost.alu_slot += 1.0;
  Process other(&other_machine);
  bool hit = true;
  auto decoded = cache.Get(m, other, &hit);
  EXPECT_FALSE(hit) << "a different cost model must lower separately";
  EXPECT_EQ(cache.stats().misses, 2u);
  ASSERT_NE(decoded, nullptr);
  EXPECT_TRUE(decoded->CostMatches(other));
  EXPECT_FALSE(decoded->CostMatches(process_));
}

TEST_F(DecodeCacheTest, EvictionKeepsHeldReferencesAlive) {
  DecodeCache cache(/*capacity=*/2);
  const Module m0 = SaltedModule(10);
  const Module m1 = SaltedModule(11);
  const Module m2 = SaltedModule(12);
  auto held = cache.Get(m0, process_);
  ASSERT_NE(held, nullptr);
  (void)cache.Get(m1, process_);
  (void)cache.Get(m2, process_);  // capacity 2: evicts the LRU entry (m0)
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
  // The evicted lowering survives through the held reference.
  EXPECT_EQ(held->instr_count, m0.InstrCount());
  EXPECT_GT(held->functions.size(), 0u);
  // Re-requesting the evicted key lowers again.
  bool hit = true;
  (void)cache.Get(m0, process_, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.stats().misses, 4u);
}

// The determinism contract under the PR 2 thread pool: for any jobs value,
// concurrent population performs exactly one lowering per distinct key, and
// every caller gets the same shared lowering.
TEST_F(DecodeCacheTest, ConcurrentPopulationLowersOncePerKey) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const std::vector<int> jobs_values = {1, 4, hw > 0 ? hw : 8};
  constexpr size_t kDistinct = 4;
  constexpr size_t kCallers = 32;
  std::vector<Module> modules;
  for (size_t i = 0; i < kCallers; ++i) {
    modules.push_back(SaltedModule(i % kDistinct));
  }
  for (int jobs : jobs_values) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    DecodeCache cache;
    auto decoded = ParallelMap(jobs, kCallers, [&](size_t i) {
      return cache.Get(modules[i], process_);
    });
    ASSERT_EQ(decoded.size(), kCallers);
    EXPECT_EQ(cache.stats().misses, kDistinct) << "one lowering per key, any schedule";
    EXPECT_EQ(cache.stats().hits, kCallers - kDistinct);
    for (size_t i = 0; i < kCallers; ++i) {
      ASSERT_NE(decoded[i], nullptr);
      // Same key => same lowering object, regardless of which thread built it.
      EXPECT_EQ(decoded[i].get(), decoded[i % kDistinct].get());
    }
  }
}

// Executions through cache-shared lowerings are bit-identical to a private
// decode: same instruction counts, same cycle doubles.
TEST_F(DecodeCacheTest, SharedLoweringExecutesBitIdentically) {
  const Module m = SaltedModule(5);
  RunResult reference;
  {
    Executor executor(&process_, &m);
    reference = executor.Run({});
  }
  const auto jobs_values = {1, 4};
  for (int jobs : jobs_values) {
    auto results = ParallelMap(jobs, 4, [&](size_t i) {
      // Each caller executes on its own machine (tasks must not share
      // mutable state); the module content is shared.
      Machine machine;
      Process process(&machine);
      EXPECT_TRUE(process.SetupStack().ok());
      EXPECT_TRUE(process.MapRange(kWorkingSetBase, 4, machine::PageFlags::Data()).ok());
      Module local = SaltedModule(5);
      Executor executor(&process, &local);
      (void)i;
      return executor.Run({});
    });
    for (const RunResult& r : results) {
      EXPECT_EQ(r.instructions, reference.instructions);
      EXPECT_EQ(r.cycles, reference.cycles);
      EXPECT_EQ(r.halted, reference.halted);
      EXPECT_EQ(r.loads, reference.loads);
      EXPECT_EQ(r.stores, reference.stores);
    }
  }
}

// Executor::EnsureDecoded revalidates by (instance, version) without
// re-digesting; only a real content change forces a new cache entry.
TEST_F(DecodeCacheTest, ExecutorRevalidatesWithoutRelowering) {
  DecodeCache::Global().ResetStats();
  Module m = SaltedModule(21);
  Executor executor(&process_, &m);
  (void)executor.Run({});
  const auto after_first = DecodeCache::Global().stats();
  (void)executor.Run({});  // same module instance + version: no new lookup
  EXPECT_EQ(DecodeCache::Global().stats().misses, after_first.misses);
  EXPECT_EQ(DecodeCache::Global().stats().hits, after_first.hits);

  m.functions[0].blocks[0].instrs[1].imm ^= 2;
  m.Touch();
  (void)executor.Run({});  // stale: must re-lower under the new content key
  EXPECT_EQ(DecodeCache::Global().stats().misses, after_first.misses + 1);
}

}  // namespace
}  // namespace memsentry::sim
