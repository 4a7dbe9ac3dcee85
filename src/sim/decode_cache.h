// A shared, reference-counted cache of DecodedModules, keyed by module
// *content* (an FNV-1a digest over every instruction field plus the entry
// index) × cost-model digest × ymm reservation. Experiment cells and
// server-workload tenants lower the same handful of ir::Modules thousands
// of times; the cache makes each unique (content, cost model) pair decode
// exactly once, even when ParallelMap workers race to populate it — the
// first caller builds, everyone else blocks on a shared_future for that
// key. Entries are shared_ptrs: eviction only drops the cache's reference,
// so executors holding a decode keep it alive.
//
// The cache is bounded in bytes, not entries: each ready entry is charged
// its DecodedModule::bytes(), and while the total exceeds the budget the
// least recently used ready entries are evicted. In-flight builds are never
// evicted (nor charged until they finish). The default budget holds the
// whole quick suite's decode set, so a warm serve daemon never re-lowers.
//
// Content keying (not pointer + version keying) is deliberate: a global
// cache outlives the modules it decodes, and the heap reuses addresses. The
// digest also makes content-identical module instances (every cell of a
// figure sweep builds its own baseline module) share one decode.
#ifndef MEMSENTRY_SRC_SIM_DECODE_CACHE_H_
#define MEMSENTRY_SRC_SIM_DECODE_CACHE_H_

#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "src/ir/module.h"
#include "src/machine/cost_model.h"
#include "src/sim/decoded.h"

namespace memsentry::sim {

class Process;

struct DecodeCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;  // each miss is exactly one lowering
  uint64_t evictions = 0;
  // Gauges, read at stats() time (ResetStats leaves them alone): the ready
  // entries held and the DecodedModule::bytes() they are charged.
  uint64_t bytes = 0;
  uint64_t entries = 0;
  double HitRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

// FNV-1a digest of a module's executable content: entry index, function and
// block structure, and every instruction field the interpreter reads.
// Function names are excluded (they never execute).
uint64_t ModuleContentDigest(const ir::Module& module);

// FNV-1a digest of the cost model's byte image (the same bytes
// DecodedModule::CostMatches memcmps).
uint64_t CostModelDigest(const machine::CostModel& cost);

class DecodeCache {
 public:
  // Default byte budget. The quick suite's whole decode set is 408
  // lowerings of about 9.7M source instructions, about 106 MiB at 11.4
  // bytes per instruction; 256 MiB keeps all of it resident with room for
  // larger modules.
  static constexpr size_t kDefaultCapacityBytes = size_t{256} << 20;

  explicit DecodeCache(size_t capacity_bytes = kDefaultCapacityBytes)
      : capacity_(capacity_bytes == 0 ? 1 : capacity_bytes) {}

  // The process-wide cache every Executor consults.
  static DecodeCache& Global();

  // Returns the decoded form of (module, process's cost model), building it
  // on first use. Thread-safe; concurrent callers with the same key get the
  // same shared_ptr and only one of them runs DecodedModule::Build. When
  // `was_hit` is non-null it reports whether this call found a ready (or
  // in-flight) entry. The returned decode is valid even when it is larger
  // than the whole budget (it is then evicted as soon as it is charged).
  std::shared_ptr<const DecodedModule> Get(const ir::Module& module, const Process& process,
                                           bool* was_hit = nullptr);

  DecodeCacheStats stats() const;
  void ResetStats();

  // Drops every cached entry (executors holding shared_ptrs are unaffected).
  void Clear();
  size_t size() const;

  // The byte budget. SetCapacity evicts down to the new budget at once; 0
  // is treated as 1 byte (no ready entry is retained).
  size_t capacity() const;
  void SetCapacity(size_t capacity_bytes);

 private:
  struct Key {
    uint64_t content = 0;
    uint64_t cost = 0;
    uint64_t instr_count = 0;
    bool ymm_reserved = false;

    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t h = k.content * 0x9E3779B97F4A7C15ULL;
      h ^= k.cost + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
      h ^= k.instr_count + (h << 6) + (h >> 2);
      return static_cast<size_t>(h ^ (k.ymm_reserved ? 0x5bd1e995 : 0));
    }
  };
  struct Entry {
    Key key;
    std::shared_future<std::shared_ptr<const DecodedModule>> decoded;
    uint64_t serial = 0;  // tells a rebuilt entry for the same key apart
    size_t bytes = 0;     // charged once the build finishes
    bool ready = false;   // false while the build is in flight
  };
  using EntryList = std::list<Entry>;

  // Finds the entry `serial` created for `key`, if it is still cached.
  EntryList::iterator FindLocked(const Key& key, uint64_t serial);
  void EvictOverCapacityLocked();

  mutable std::mutex mutex_;
  size_t capacity_;  // bytes
  size_t bytes_ = 0;
  uint64_t next_serial_ = 0;
  // Front = most recently used. The map indexes into the list.
  EntryList lru_;
  std::unordered_map<Key, EntryList::iterator, KeyHash> index_;
  DecodeCacheStats stats_;
};

}  // namespace memsentry::sim

#endif  // MEMSENTRY_SRC_SIM_DECODE_CACHE_H_
