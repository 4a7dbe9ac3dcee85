// Three-level inclusive cache hierarchy cost model (tag arrays only, LRU).
// Latencies follow paper Table 4 / Intel documentation: L1 4, L2 12, L3 44,
// DRAM 251 cycles. Only tags are modeled — data already lives in simulated
// physical memory; the hierarchy exists to price accesses.
#ifndef MEMSENTRY_SRC_MACHINE_CACHE_H_
#define MEMSENTRY_SRC_MACHINE_CACHE_H_

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
  // Inline: this runs once per simulated memory touch per level, the
  // hottest call in the whole simulator after the interpreter loop itself.
  bool Access(PhysAddr addr) {
    const uint64_t block = addr >> line_shift_;
    const uint64_t set = block & (num_sets_ - 1);
    const uint64_t tag = block >> tag_shift_;
    Line* base = &lines_[set * static_cast<uint64_t>(ways_)];
    // Hit scan first — the common case wants no victim bookkeeping. An
    // invalid line can't false-match, whatever tag it holds: the lru check
    // rejects it.
    for (int w = 0; w < ways_; ++w) {
      Line& line = base[w];
      if (line.tag == tag && Valid(line)) {
        line.lru = ++tick_;
        return true;
      }
    }
    Fill(base, tag);
    return false;
  }

  // Invalidates every line in O(1): lines stamped so far fall to or below
  // the validity floor.
  void Flush() { floor_ = tick_; }

  // Whether addr's line is cached, without touching its LRU stamp.
  bool Contains(PhysAddr addr) const;

 private:
  // Every touch stamps lru = ++tick_, and a line is valid only if stamped
  // above floor_: lines at or below it (zeroed storage, flushed lines, or
  // lines a destroyed array left behind) are invalid. This packs a line
  // into 16 bytes and lets tag storage be reused without clearing it.
  struct Line {
    uint64_t tag;
    uint64_t lru;
  };
  bool Valid(const Line& line) const { return line.lru > floor_; }

  // Tag storage is recycled through a process-wide pool of spare arrays:
  // a destroyed array returns its lines with the last stamp it issued, and
  // the next array of the same size starts stamping above it, so a new
  // simulated machine neither allocates nor zeroes its 2 MiB L3 tags.
  struct Storage {
    Line* lines = nullptr;
    uint64_t count = 0;  // lines
    uint64_t tick = 0;   // the highest stamp any line holds
  };
  struct StoragePool;
  static StoragePool& Pool();
  static Storage TakeStorage(uint64_t count);
  static void ReturnStorage(const Storage& storage);

  // Miss path: picks the victim way and installs the line (out of line to
  // keep the inlined hit scan small).
  void Fill(Line* base, uint64_t tag);

  int ways_;
  int line_shift_;
  int tag_shift_;  // log2(num_sets_), precomputed off the per-access path
  uint64_t num_sets_;
  uint64_t tick_ = 0;
  uint64_t floor_ = 0;  // lines stamped at or below this are invalid
  Line* lines_ = nullptr;  // num_sets * ways, row-major by set; pooled
};

class CacheHierarchy {
 public:
  CacheHierarchy();

  // Returns the level that served the access (filling lines downward).
  CacheLevel Access(PhysAddr addr) {
    ++stats_.accesses;
    if (l1_.Access(addr)) {
      ++stats_.l1_hits;
      return CacheLevel::kL1;
    }
    if (l2_.Access(addr)) {
      ++stats_.l2_hits;
      return CacheLevel::kL2;
    }
    if (l3_.Access(addr)) {
      ++stats_.l3_hits;
      return CacheLevel::kL3;
    }
    ++stats_.dram_accesses;
    return CacheLevel::kDram;
  }

  void Flush();

  const CacheStats& stats() const { return stats_; }
  void ResetStats() { stats_ = CacheStats{}; }

 private:
  CacheArray l1_;
  CacheArray l2_;
  CacheArray l3_;
  CacheStats stats_;
};

}  // namespace memsentry::machine

#endif  // MEMSENTRY_SRC_MACHINE_CACHE_H_
