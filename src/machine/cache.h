// Three-level inclusive cache hierarchy cost model (tag arrays only, LRU).
// Latencies follow paper Table 4 / Intel documentation: L1 4, L2 12, L3 44,
// DRAM 251 cycles. Only tags are modeled — data already lives in simulated
// physical memory; the hierarchy exists to price accesses.
#ifndef MEMSENTRY_SRC_MACHINE_CACHE_H_
#define MEMSENTRY_SRC_MACHINE_CACHE_H_

#include <cstdint>
#include <cstdlib>
#include <memory>

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

  // Returns true on hit; on miss, fills the line (allocate-on-miss).
  // Inline: this runs once per simulated memory touch per level, the
  // hottest call in the whole simulator after the interpreter loop itself.
  bool Access(PhysAddr addr) {
    const uint64_t block = addr >> line_shift_;
    const uint64_t set = block & (num_sets_ - 1);
    const uint64_t tag = block >> tag_shift_;
    Line* base = &lines_[set * static_cast<uint64_t>(ways_)];
    // Hit scan first — the common case wants no victim bookkeeping. An
    // invalid line (lru == 0) can't false-match: a zero tag with lru == 0
    // is rejected by the lru check.
    for (int w = 0; w < ways_; ++w) {
      Line& line = base[w];
      if (line.tag == tag && line.valid()) {
        line.lru = ++tick_;
        return true;
      }
    }
    Fill(base, tag);
    return false;
  }

  void Flush();

 private:
  // lru == 0 means invalid: tick_ starts at 0 and every touch stamps
  // ++tick_, so a valid line always has lru >= 1. This packs a line into 16
  // bytes and lets the backing array come from calloc — the OS hands out
  // zero pages lazily, so the mostly-untouched L3 tag array costs nothing to
  // "initialize" per simulated machine.
  struct Line {
    uint64_t tag;
    uint64_t lru;

    bool valid() const { return lru != 0; }
  };

  struct FreeDeleter {
    void operator()(Line* p) const { std::free(p); }
  };

  // Miss path: picks the victim way and installs the line (out of line to
  // keep the inlined hit scan small).
  void Fill(Line* base, uint64_t tag);

  int ways_;
  int line_shift_;
  int tag_shift_;  // log2(num_sets_), precomputed off the per-access path
  uint64_t num_sets_;
  uint64_t tick_ = 0;
  std::unique_ptr<Line[], FreeDeleter> lines_;  // num_sets * ways, row-major by set
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
