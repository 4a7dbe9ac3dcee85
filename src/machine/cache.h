// Three-level inclusive cache hierarchy cost model (tag arrays only, LRU).
// Latencies follow paper Table 4 / Intel documentation: L1 4, L2 12, L3 44,
// DRAM 251 cycles. Only tags are modeled — data already lives in simulated
// physical memory; the hierarchy exists to price accesses.
#ifndef MEMSENTRY_SRC_MACHINE_CACHE_H_
#define MEMSENTRY_SRC_MACHINE_CACHE_H_

#include <cassert>
#include <cstdint>

#include "src/base/status.h"
#include "src/base/types.h"

namespace memsentry::machine {

enum class CacheLevel { kL1 = 0, kL2 = 1, kL3 = 2, kDram = 3 };

struct CacheStats {
  uint64_t accesses = 0;
  uint64_t l1_hits = 0;
  uint64_t l2_hits = 0;
  uint64_t l3_hits = 0;
  uint64_t dram_accesses = 0;
};

// One set-associative tag array.
class CacheArray {
 public:
  CacheArray(uint64_t size_bytes, int ways, int line_bytes);
  ~CacheArray();

  CacheArray(const CacheArray&) = delete;
  CacheArray& operator=(const CacheArray&) = delete;

  // Returns true on hit; on miss, fills the line (allocate-on-miss).
  bool Access(PhysAddr addr) {
    if (Probe(addr)) {
      return true;
    }
    Fill(addr);
    return false;
  }

  // The hit half of Access(): on a hit, stamps the line and returns true;
  // on a miss, changes nothing. Inline: the L1 probe runs once per
  // simulated memory touch.
  [[gnu::always_inline]] bool Probe(PhysAddr addr) {
    uint32_t* set = SetOf(addr);
    const int way = FindWay(set, TagOf(addr));
    if (way < 0) {
      return false;
    }
    set[ways_ + way] = NextStamp();
    return true;
  }

  // Miss path: installs addr's line over the victim way (out of line to
  // keep the inlined probe small).
  void Fill(PhysAddr addr);

  // Invalidates every line in O(1): lines stamped so far fall to or below
  // the validity floor.
  void Flush() { floor_ = tick_; }

  // Whether addr's line is cached, without touching its LRU stamp.
  bool Contains(PhysAddr addr) const { return FindWay(SetOf(addr), TagOf(addr)) >= 0; }

 private:
  friend class CacheArrayTestPeer;

  // Tags are 32 bits: a physical address below 2^44 (2^32 frames) leaves
  // at most 32 tag bits above the smallest array's 64 sets of 64-byte
  // lines, and PhysicalMemory holds 2^22 frames by default.
  static constexpr int kMaxTagBits = 32;
  // Ways compared per vector step: 4 x 32-bit lanes, one SSE2 register.
  // GCC/Clang vector extensions lower this to SIMD compares on any target.
  static constexpr int kLanes = 4;
  using Lanes = uint32_t __attribute__((vector_size(kLanes * sizeof(uint32_t))));

  // Storage: per set, `ways_` 32-bit tags followed by `ways_` 32-bit LRU
  // stamps (8 bytes a line). Every touch stamps a line with ++tick_, and a
  // line is valid only if its stamp is above floor_: lines at or below it
  // (zeroed storage, flushed lines, or lines a destroyed array left behind)
  // are invalid, so tag storage is reused without clearing it.
  uint32_t* SetOf(PhysAddr addr) const {
    return words_ + (((addr >> line_shift_) & (num_sets_ - 1)) << set_shift_);
  }
  uint32_t TagOf(PhysAddr addr) const {
    assert((addr >> tag_shift_) >> kMaxTagBits == 0 && "physical address too wide for a tag");
    return static_cast<uint32_t>(addr >> tag_shift_);
  }

  // The way of `set` holding a valid line tagged `tag`, or -1. Compares all
  // ways with no early exit: a valid tag occurs at most once per set, so
  // OR-ing each matching lane's (way + 1) yields the hit way.
  int FindWay(const uint32_t* set, uint32_t tag) const {
    Lanes found = {};
    Lanes way = {1, 2, 3, 4};
    for (int w = 0; w < ways_; w += kLanes) {
      Lanes tags;
      Lanes stamps;
      __builtin_memcpy(&tags, set + w, sizeof(tags));
      __builtin_memcpy(&stamps, set + ways_ + w, sizeof(stamps));
      found |= reinterpret_cast<Lanes>((tags == tag) & (stamps > floor_)) & way;
      way += kLanes;
    }
    found |= __builtin_shufflevector(found, found, 2, 3, 0, 1);
    found |= __builtin_shufflevector(found, found, 1, 0, 3, 2);
    return static_cast<int>(found[0]) - 1;
  }

  // The stamp for the next touch. Stamps are 32 bits; before the tick
  // would wrap, Renormalize() re-stamps every set from 1 in its LRU order,
  // which changes no hit, miss or victim.
  uint32_t NextStamp() {
    if (tick_ == kMaxStamp) [[unlikely]] {
      Renormalize();
    }
    return ++tick_;
  }
  static constexpr uint32_t kMaxStamp = ~uint32_t{0};
  void Renormalize();

  // Tag storage is recycled through a process-wide pool of spare arrays:
  // a destroyed array returns its storage with the last stamp it issued,
  // and the next array of the same size starts stamping above it, so a new
  // simulated machine neither allocates nor zeroes its 1 MiB of L3 tags.
  // Storage whose tick has passed 2^31 is zeroed when it is taken again,
  // so a new array always has at least 2^31 stamps before it renormalizes.
  struct Storage {
    uint32_t* words = nullptr;
    uint64_t count = 0;  // 32-bit words: two per line
    uint32_t tick = 0;   // the highest stamp any line holds
  };
  struct StoragePool;
  static StoragePool& Pool();
  static Storage TakeStorage(uint64_t count);
  static void ReturnStorage(const Storage& storage);

  int ways_;
  int line_shift_;
  int tag_shift_;  // line_shift_ + log2(num_sets_), precomputed off the per-access path
  int set_shift_;  // log2(2 * ways_): words per set
  uint64_t num_sets_;
  uint32_t tick_ = 0;
  uint32_t floor_ = 0;         // lines stamped at or below this are invalid
  uint32_t* words_ = nullptr;  // num_sets * 2 * ways, row-major by set; pooled
};

class CacheHierarchy {
 public:
  CacheHierarchy();

  // Returns the level that served the access (filling lines downward).
  // Only the L1 probe is inline; an L1 miss takes one out-of-line call.
  [[gnu::always_inline]] CacheLevel Access(PhysAddr addr) {
    ++stats_.accesses;
    if (l1_.Probe(addr)) [[likely]] {
      ++stats_.l1_hits;
      return CacheLevel::kL1;
    }
    return AccessPastL1(addr);
  }

  void Flush();

  const CacheStats& stats() const { return stats_; }
  void ResetStats() { stats_ = CacheStats{}; }

 private:
  // L1 miss: fills the L1 line, then probes (and fills) L2 and L3.
  CacheLevel AccessPastL1(PhysAddr addr);

  CacheArray l1_;
  CacheArray l2_;
  CacheArray l3_;
  CacheStats stats_;
};

}  // namespace memsentry::machine

#endif  // MEMSENTRY_SRC_MACHINE_CACHE_H_
