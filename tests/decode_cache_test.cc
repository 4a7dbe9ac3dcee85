// The shared decoded-module cache: content-addressed keying, single-build
// semantics under concurrent population, reference-counted survival across
// eviction, the byte budget (LRU by bytes, in-flight builds kept), module
// identity that survives address reuse, results independent of what the
// cache retains, and the Executor's cheap revalidation path. The concurrency
// tests race the same population through ThreadPool::Submit on {1, 4,
// hardware} workers and demand identical lowering counts and bit-identical
// execution — scheduling must never change what got built.
#include <algorithm>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/fastpath.h"
#include "src/base/thread_pool.h"
#include "src/eval/campaign_engine.h"
#include "src/ir/builder.h"
#include "src/sim/decode_cache.h"
#include "src/sim/executor.h"
#include "src/sim/process.h"
#include "src/suite/workloads.h"

namespace memsentry::sim {
namespace {

using ir::Builder;
using ir::Module;
using machine::Gpr;

// Calls fn(i) for every i in [0, count) as racing tasks on a pool of
// `threads` workers; the results come back in index order.
template <typename Fn>
auto RaceOnPool(int threads, size_t count, Fn fn) {
  using R = std::invoke_result_t<Fn, size_t>;
  ThreadPool pool(threads);
  std::vector<std::future<R>> futures;
  for (size_t i = 0; i < count; ++i) {
    futures.push_back(pool.Submit([&fn, i] { return fn(i); }));
  }
  std::vector<R> results;
  for (std::future<R>& future : futures) {
    results.push_back(future.get());
  }
  return results;
}

class FastPathModeGuard {
 public:
  explicit FastPathModeGuard(base::FastPathMode mode) : saved_(base::GetFastPathMode()) {
    base::SetFastPathMode(mode);
  }
  ~FastPathModeGuard() { base::SetFastPathMode(saved_); }

 private:
  base::FastPathMode saved_;
};

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

// A straight-line module of about `instrs` instructions: its decode size
// grows with `instrs`, so modules of different lengths have different
// DecodedModule::bytes().
Module SizedModule(uint64_t salt, size_t instrs) {
  Module m;
  Builder b(&m);
  b.CreateFunction("main");
  b.MovImm(Gpr::kRbx, salt);
  for (size_t i = 0; i < instrs; ++i) {
    b.AddImm(Gpr::kRbx, 1);
  }
  b.Halt();
  return m;
}

size_t DecodeBytes(const Module& m, const Process& process) {
  return DecodedModule::Build(m, process)->bytes();
}

TEST_F(DecodeCacheTest, EvictionKeepsHeldReferencesAlive) {
  const Module m0 = SaltedModule(10);
  const Module m1 = SaltedModule(11);
  const Module m2 = SaltedModule(12);
  const size_t entry_bytes = DecodeBytes(m0, process_);
  ASSERT_EQ(DecodeBytes(m1, process_), entry_bytes);
  DecodeCache cache(/*capacity_bytes=*/2 * entry_bytes);  // room for two entries
  auto held = cache.Get(m0, process_);
  ASSERT_NE(held, nullptr);
  (void)cache.Get(m1, process_);
  EXPECT_EQ(cache.stats().bytes, 2 * entry_bytes);
  (void)cache.Get(m2, process_);  // over budget: evicts the LRU entry (m0)
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().bytes, 2 * entry_bytes);
  // The evicted lowering survives through the held reference.
  EXPECT_EQ(held->instr_count, m0.InstrCount());
  EXPECT_GT(held->functions.size(), 0u);
  // Re-requesting the evicted key lowers again.
  bool hit = true;
  (void)cache.Get(m0, process_, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.stats().misses, 4u);
}

// Eviction is least-recently-used, and it frees bytes, not entries: one
// large insertion can push out several small entries, and a recently hit
// entry outlives older ones whatever their size.
TEST_F(DecodeCacheTest, EvictionIsLruByBytes) {
  const Module small_a = SizedModule(1, 64);
  const Module small_b = SizedModule(2, 64);
  const Module large_c = SizedModule(3, 4096);
  const Module large_d = SizedModule(4, 4096);
  const size_t small = DecodeBytes(small_a, process_);
  const size_t large = DecodeBytes(large_c, process_);
  ASSERT_EQ(DecodeBytes(small_b, process_), small);
  ASSERT_EQ(DecodeBytes(large_d, process_), large);
  ASSERT_GT(large, 2 * small);

  DecodeCache cache(/*capacity_bytes=*/2 * small + large);
  (void)cache.Get(small_a, process_);
  (void)cache.Get(small_b, process_);
  (void)cache.Get(large_c, process_);
  EXPECT_EQ(cache.stats().evictions, 0u) << "exactly at budget";
  EXPECT_EQ(cache.stats().bytes, 2 * small + large);
  bool hit = false;
  (void)cache.Get(small_a, process_, &hit);  // recency order: a, c, b
  ASSERT_TRUE(hit);

  // d needs `large` bytes: the LRU entry b alone frees too little, so c
  // goes too; a, the most recently used, stays.
  (void)cache.Get(large_d, process_);
  const DecodeCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, small + large);
  (void)cache.Get(small_a, process_, &hit);
  EXPECT_TRUE(hit);
  (void)cache.Get(large_d, process_, &hit);
  EXPECT_TRUE(hit);
  (void)cache.Get(small_b, process_, &hit);
  EXPECT_FALSE(hit);
}

// A budget smaller than any single entry still hands every caller a valid,
// runnable decode; the cache just keeps none of them.
TEST_F(DecodeCacheTest, BudgetSmallerThanOneEntryStillDecodes) {
  const Module m = SaltedModule(30);
  RunResult reference;
  {
    Executor executor(&process_, &m);
    reference = executor.Run({});
  }
  DecodeCache cache(/*capacity_bytes=*/1);
  for (int round = 0; round < 2; ++round) {
    auto decoded = cache.Get(m, process_);
    ASSERT_NE(decoded, nullptr);
    EXPECT_TRUE(decoded->CostMatches(process_));
    EXPECT_EQ(decoded->instr_count, m.InstrCount());
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.stats().bytes, 0u);

    Machine machine;
    Process process(&machine);
    ASSERT_TRUE(process.SetupStack().ok());
    ASSERT_TRUE(process.MapRange(kWorkingSetBase, 4, machine::PageFlags::Data()).ok());
    Executor executor(&process, &m);
    executor.SetDecoded(decoded);
    const RunResult r = executor.Run({});
    EXPECT_EQ(r.instructions, reference.instructions);
    EXPECT_EQ(r.cycles, reference.cycles);
    EXPECT_TRUE(r.halted);
  }
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST_F(DecodeCacheTest, ClearDropsBytesAndSetCapacityEvicts) {
  DecodeCache cache;
  EXPECT_EQ(cache.capacity(), DecodeCache::kDefaultCapacityBytes);
  const Module a = SaltedModule(40);
  const Module b = SaltedModule(41);
  auto da = cache.Get(a, process_);
  auto db = cache.Get(b, process_);
  EXPECT_EQ(cache.stats().bytes, da->bytes() + db->bytes());
  EXPECT_EQ(cache.stats().entries, 2u);
  cache.SetCapacity(da->bytes());  // room for one: the LRU entry (a) goes
  EXPECT_EQ(cache.capacity(), da->bytes());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().bytes, db->bytes());
  cache.Clear();
  EXPECT_EQ(cache.stats().bytes, 0u);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.size(), 0u);
}

// An in-flight build is never evicted, whatever the budget: a racing Get
// for the same key must join it instead of lowering a second time. The
// build of a large module takes tens of milliseconds; the probe below runs
// within microseconds of seeing it in flight. An eviction bug empties the
// cache every time, while a correct cache can only look empty if the build
// happened to finish inside that window, so a few attempts make the test
// robust without hiding a bug.
TEST_F(DecodeCacheTest, InFlightBuildsAreNeverEvicted) {
  const Module big = SizedModule(50, 1'000'000);
  bool observed_in_flight = false;
  for (int attempt = 0; attempt < 5 && !observed_in_flight; ++attempt) {
    DecodeCache cache;
    std::shared_ptr<const DecodedModule> built;
    std::thread builder([&] { built = cache.Get(big, process_); });
    while (cache.size() == 0) {
      std::this_thread::yield();
    }
    if (cache.stats().entries != 0) {
      builder.join();  // finished before we looked; try again
      continue;
    }
    cache.SetCapacity(1);
    const size_t size_after = cache.size();
    builder.join();
    ASSERT_NE(built, nullptr);
    EXPECT_EQ(built->instr_count, big.InstrCount());
    if (size_after == 1) {
      observed_in_flight = true;  // survived an over-budget eviction pass
    }
    // Once charged, the finished entry is over the 1-byte budget and goes.
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.stats().bytes, 0u);
    EXPECT_EQ(cache.stats().misses, 1u);
  }
  EXPECT_TRUE(observed_in_flight) << "the in-flight entry was evicted";
}

// The determinism contract under the engine's thread pool: for any worker
// count, concurrent population performs exactly one lowering per distinct
// key, and every caller gets the same shared lowering.
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
    auto decoded = RaceOnPool(jobs, kCallers, [&](size_t i) {
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
    auto results = RaceOnPool(jobs, 4, [&](size_t i) {
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

// Every construction, copy, move and assignment yields a fresh module id,
// so an id names one module state for the life of the process.
TEST(ModuleIdentity, EveryValueOperationTakesAFreshId) {
  Module a = SaltedModule(70);
  const uint64_t a_id = a.id();
  Module copy(a);
  EXPECT_NE(copy.id(), a_id);
  EXPECT_EQ(a.id(), a_id);
  const uint64_t copy_id = copy.id();
  Module moved(std::move(copy));
  EXPECT_NE(moved.id(), copy_id);
  EXPECT_NE(copy.id(), copy_id) << "the moved-from side is a new module too";
  EXPECT_NE(moved.id(), copy.id());
  const uint64_t moved_id = moved.id();
  moved = a;
  EXPECT_NE(moved.id(), moved_id);
  EXPECT_NE(moved.id(), a_id);
  const uint64_t before_move_assign = moved.id();
  const uint64_t source_before = a.id();
  moved = std::move(a);
  EXPECT_NE(moved.id(), before_move_assign);
  EXPECT_NE(a.id(), source_before);
}

// DecodedModule::Matches (the SetDecoded path) must not trust an address: a
// different module constructed in the storage of a freed one, with the same
// version and instruction count, must not run the freed module's decode.
TEST_F(DecodeCacheTest, StaleDecodeForReusedAddressIsNotRun) {
  Module first_content;
  {
    Builder b(&first_content);
    b.CreateFunction("main");
    b.MovImm(Gpr::kRbx, 7);
    b.AddImm(Gpr::kRbx, 1);
    b.Halt();
  }
  Module second_content;
  {
    Builder b(&second_content);
    b.CreateFunction("main");
    b.MovImm(Gpr::kRbx, 9);
    ir::Instr fence;
    fence.op = ir::Opcode::kMFence;
    b.Emit(fence);
    b.Halt();
  }
  ASSERT_EQ(first_content.InstrCount(), second_content.InstrCount());

  RunResult reference;
  uint64_t reference_rbx = 0;
  {
    FastPathModeGuard off(base::FastPathMode::kOff);
    Machine machine;
    Process process(&machine);
    ASSERT_TRUE(process.SetupStack().ok());
    Executor executor(&process, &second_content);
    reference = executor.Run({});
    reference_rbx = process.regs()[Gpr::kRbx];
  }
  ASSERT_EQ(reference_rbx, 9u);

  alignas(Module) unsigned char storage[sizeof(Module)];
  Module* first = new (storage) Module(first_content);
  first->version = 5;
  const std::shared_ptr<const DecodedModule> stale = DecodedModule::Build(*first, process_);
  ASSERT_TRUE(stale->Matches(*first, process_));
  first->~Module();
  Module* second = new (storage) Module(second_content);
  second->version = 5;
  ASSERT_EQ(static_cast<void*>(second), static_cast<void*>(first));
  EXPECT_FALSE(stale->Matches(*second, process_));

  FastPathModeGuard on(base::FastPathMode::kOn);
  Machine machine;
  Process process(&machine);
  ASSERT_TRUE(process.SetupStack().ok());
  Executor executor(&process, second);
  executor.SetDecoded(stale);
  const RunResult result = executor.Run({});
  EXPECT_NE(executor.decoded().get(), stale.get()) << "the stale decode was kept";
  EXPECT_EQ(process.regs()[Gpr::kRbx], reference_rbx);
  EXPECT_EQ(result.instructions, reference.instructions);
  EXPECT_EQ(result.cycles, reference.cycles);
  EXPECT_EQ(result.halted, reference.halted);
  second->~Module();
}

// Which decodes the cache retains must never change a result. The three
// workloads below share the most decodes (fig3's per-technique modules and
// the call/ret and mprotect-baseline modules, one of which once collided in
// the content digest); they run at jobs=1 in suite order and reversed, with
// a 1-byte budget (every Get lowers afresh) and the default one (everything
// stays resident, including across legs), with the run memo on and off.
// Every cell payload and every assembled metric stream must be
// byte-identical across all eight legs.
TEST(DecodeCacheRetention, PayloadsIndependentOfOrderBudgetAndMemo) {
  const std::vector<std::string> suite_order = {"fig3_address", "fig4_callret",
                                                "mprotect_baseline"};
  eval::WorkloadOptions options;
  options.quick = true;
  // A fifth of the quick budget: the modules (and so the decodes) are the
  // same size at any budget, only the loop trip counts shrink.
  options.experiment.target_instructions = 20'000;
  DecodeCache& cache = DecodeCache::Global();
  const size_t saved_capacity = cache.capacity();

  std::map<std::string, std::string> reference;
  std::string reference_leg;
  for (bool reversed : {false, true}) {
    for (size_t budget : {size_t{1}, DecodeCache::kDefaultCapacityBytes}) {
      for (bool memo : {true, false}) {
        const std::string leg = std::string(reversed ? "reversed" : "suite-order") +
                                ", budget " + std::to_string(budget) + ", memo " +
                                (memo ? "on" : "off");
        SCOPED_TRACE(leg);
        cache.SetCapacity(budget);
        std::mutex mutex;
        std::map<std::string, std::string> payloads;
        eval::EngineOptions engine_options;
        engine_options.jobs = 1;
        engine_options.run_memo = memo;
        engine_options.on_cell_done = [&](const std::string& workload, const std::string& cell,
                                          const json::Value& payload) {
          std::lock_guard<std::mutex> lock(mutex);
          payloads[workload + "/" + cell] = payload.Dump(0);
        };
        {
          eval::CampaignEngine engine(&suite::SuiteRegistry(), std::move(engine_options));
          std::vector<std::string> order = suite_order;
          if (reversed) {
            std::reverse(order.begin(), order.end());
          }
          std::vector<uint64_t> ids;
          for (const std::string& name : order) {
            ids.push_back(engine.Submit(name, options));
            ASSERT_NE(ids.back(), 0u) << name;
          }
          for (uint64_t id : ids) {
            const eval::JobReport* report = engine.Wait(id);
            ASSERT_NE(report, nullptr);
            ASSERT_EQ(report->state, eval::JobState::kDone) << report->workload;
            std::lock_guard<std::mutex> lock(mutex);
            payloads["metrics/" + report->workload] = report->report.metrics().Dump(0);
          }
        }
        if (budget == 1) {
          EXPECT_EQ(cache.stats().bytes, 0u);
        }
        if (reference.empty()) {
          reference = payloads;
          reference_leg = leg;
          ASSERT_GT(reference.size(), suite_order.size());
          continue;
        }
        ASSERT_EQ(payloads.size(), reference.size()) << "vs " << reference_leg;
        for (const auto& [name, payload] : reference) {
          EXPECT_EQ(payloads[name], payload) << name << " differs from " << reference_leg;
        }
      }
    }
  }
  cache.SetCapacity(saved_capacity);
}

}  // namespace
}  // namespace memsentry::sim
