#include "src/sim/decode_cache.h"

#include <cstring>

#include "src/sim/process.h"

namespace memsentry::sim {
namespace {

inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

inline void Mix(uint64_t* h, uint64_t v) {
  // FNV-1a over the value's 8 bytes, avoiding per-byte loop overhead where
  // a whole word is available.
  for (int i = 0; i < 8; ++i) {
    *h = (*h ^ (v & 0xff)) * kFnvPrime;
    v >>= 8;
  }
}

}  // namespace

uint64_t ModuleContentDigest(const ir::Module& module) {
  // The digest is O(instructions); the memo keeps repeated cache lookups of
  // an unmodified module (one per Executor construction in the bench
  // harnesses) at O(1). Touch() invalidates by bumping `version`.
  uint64_t memo = 0;
  if (module.CachedDigest(&memo) == module.version) {
    return memo;
  }
  // Two independent FNV lanes — every fixed-width field packed into one
  // word on lane 0, the immediate on lane 1 — so the xor-multiply chains
  // run in parallel instead of serializing three multiplies per
  // instruction. Benches digest a fresh ~20k-instruction module per run,
  // which put the old chain at ~14% of bench wall time.
  uint64_t h0 = kFnvOffset;
  uint64_t h1 = kFnvOffset ^ 0x9e3779b97f4a7c15ull;
  Mix(&h0, static_cast<uint64_t>(module.entry));
  Mix(&h0, module.functions.size());
  for (const ir::Function& f : module.functions) {
    Mix(&h0, f.blocks.size());
    for (const ir::BasicBlock& b : f.blocks) {
      Mix(&h1, b.instrs.size());
      for (const ir::Instr& instr : b.instrs) {
        h0 = (h0 ^ ((static_cast<uint64_t>(instr.op) << 56) |
                    (static_cast<uint64_t>(static_cast<uint8_t>(instr.dst)) << 48) |
                    (static_cast<uint64_t>(static_cast<uint8_t>(instr.src)) << 40) |
                    (static_cast<uint64_t>(instr.flags) << 32) |
                    static_cast<uint64_t>(static_cast<uint32_t>(instr.target)))) *
             kFnvPrime;
        h1 = (h1 ^ instr.imm) * kFnvPrime;
        // A multiply carries only toward the high bits, so without this
        // shift-xor a difference confined to the opcode byte (bits 56-63)
        // never reaches the low bits: modules differing only in opcodes
        // would collide with probability ~2^-8.
        h0 ^= h0 >> 29;
        h1 ^= h1 >> 29;
      }
    }
  }
  uint64_t h = h0;
  Mix(&h, h1);
  module.StoreDigest(h);
  return h;
}

uint64_t CostModelDigest(const machine::CostModel& cost) {
  // Digest the same byte image DecodedModule::CostMatches memcmps, so two
  // processes compare equal iff they digest equal.
  uint8_t bytes[sizeof(machine::CostModel)];
  std::memcpy(bytes, &cost, sizeof(bytes));
  uint64_t h = kFnvOffset;
  for (uint8_t byte : bytes) {
    h = (h ^ byte) * kFnvPrime;
  }
  return h;
}

DecodeCache& DecodeCache::Global() {
  static DecodeCache* cache = new DecodeCache();  // leaked: outlives all executors
  return *cache;
}

std::shared_ptr<const DecodedModule> DecodeCache::Get(const ir::Module& module,
                                                      const Process& process, bool* was_hit) {
  Key key;
  key.content = ModuleContentDigest(module);
  key.cost = CostModelDigest(process.machine().cost);
  key.instr_count = module.InstrCount();
  key.ymm_reserved = process.ymm_reserved();

  std::shared_future<std::shared_ptr<const DecodedModule>> future;
  std::promise<std::shared_ptr<const DecodedModule>> promise;
  uint64_t serial = 0;
  bool build_here = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      ++stats_.hits;
      if (was_hit != nullptr) {
        *was_hit = true;
      }
      lru_.splice(lru_.begin(), lru_, it->second);  // bump to most recent
      future = it->second->decoded;
    } else {
      ++stats_.misses;
      if (was_hit != nullptr) {
        *was_hit = false;
      }
      future = promise.get_future().share();
      serial = ++next_serial_;
      lru_.push_front(Entry{key, future, serial, 0, false});
      index_[key] = lru_.begin();
      build_here = true;
    }
  }
  if (build_here) {
    // Built outside the lock: a slow decode must not serialize unrelated
    // keys. Racing callers for this key block on the shared_future.
    std::shared_ptr<const DecodedModule> decoded;
    try {
      decoded = DecodedModule::Build(module, process);
    } catch (...) {
      {
        // Forget the failed entry so a later Get retries the build.
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = FindLocked(key, serial);
        if (it != lru_.end()) {
          index_.erase(key);
          lru_.erase(it);
        }
      }
      promise.set_exception(std::current_exception());  // unblock waiters
      throw;
    }
    const size_t bytes = decoded->bytes();
    promise.set_value(decoded);
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = FindLocked(key, serial);
    if (it != lru_.end()) {  // not dropped by Clear() meanwhile
      it->bytes = bytes;
      it->ready = true;
      bytes_ += bytes;
      EvictOverCapacityLocked();
    }
    return decoded;
  }
  return future.get();
}

DecodeCache::EntryList::iterator DecodeCache::FindLocked(const Key& key, uint64_t serial) {
  auto it = index_.find(key);
  return it != index_.end() && it->second->serial == serial ? it->second : lru_.end();
}

void DecodeCache::EvictOverCapacityLocked() {
  // Walk from least- to most-recently-used, dropping ready entries until the
  // charged bytes fit the budget. In-flight builds are never evicted:
  // dropping one would let a racing Get start a second lowering for the
  // same key.
  auto it = lru_.end();
  while (bytes_ > capacity_ && it != lru_.begin()) {
    --it;
    if (!it->ready) {
      continue;
    }
    bytes_ -= it->bytes;
    index_.erase(it->key);
    it = lru_.erase(it);
    ++stats_.evictions;
  }
}

DecodeCacheStats DecodeCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  DecodeCacheStats stats = stats_;
  stats.bytes = bytes_;
  stats.entries = 0;
  for (const Entry& entry : lru_) {
    stats.entries += entry.ready ? 1 : 0;
  }
  return stats;
}

void DecodeCache::ResetStats() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_ = DecodeCacheStats{};
}

void DecodeCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
}

size_t DecodeCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

size_t DecodeCache::capacity() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return capacity_;
}

void DecodeCache::SetCapacity(size_t capacity_bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = capacity_bytes == 0 ? 1 : capacity_bytes;
  EvictOverCapacityLocked();
}

}  // namespace memsentry::sim
