#include "src/machine/cache.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <utility>
#include <vector>

namespace memsentry::machine {
namespace {

int Log2(uint64_t v) {
  int n = 0;
  while ((uint64_t{1} << n) < v) {
    ++n;
  }
  return n;
}

}  // namespace

// Spare tag storage, shared by every thread. Bounded per size so a burst
// of live machines does not stay resident once they are gone.
struct CacheArray::StoragePool {
  static constexpr size_t kMaxSparesPerSize = 8;
  std::mutex mutex;
  std::vector<Storage> spares;
};

CacheArray::Storage CacheArray::TakeStorage(uint64_t count) {
  StoragePool& pool = Pool();
  Storage storage{.words = nullptr, .count = count, .tick = 0};
  {
    std::lock_guard<std::mutex> lock(pool.mutex);
    for (size_t i = 0; i < pool.spares.size(); ++i) {
      if (pool.spares[i].count == count) {
        storage = pool.spares[i];
        pool.spares[i] = pool.spares.back();
        pool.spares.pop_back();
        break;
      }
    }
  }
  if (storage.words == nullptr) {
    // Fresh storage is zeroed: every stamp is 0, so nothing is valid.
    storage.words = static_cast<uint32_t*>(std::calloc(count, sizeof(uint32_t)));
  } else if (storage.tick > kMaxStamp / 2) {
    // Past 2^31: start over from zeroed stamps rather than renormalize soon.
    std::memset(storage.words, 0, count * sizeof(uint32_t));
    storage.tick = 0;
  }
  return storage;
}

void CacheArray::ReturnStorage(const Storage& storage) {
  StoragePool& pool = Pool();
  {
    std::lock_guard<std::mutex> lock(pool.mutex);
    size_t same_size = 0;
    for (const Storage& spare : pool.spares) {
      same_size += spare.count == storage.count;
    }
    if (same_size < StoragePool::kMaxSparesPerSize) {
      pool.spares.push_back(storage);
      return;
    }
  }
  std::free(storage.words);
}

CacheArray::StoragePool& CacheArray::Pool() {
  static auto* pool = new StoragePool();  // never destroyed: arrays may outlive statics
  return *pool;
}

CacheArray::CacheArray(uint64_t size_bytes, int ways, int line_bytes)
    : ways_(ways),
      line_shift_(Log2(static_cast<uint64_t>(line_bytes))),
      tag_shift_(line_shift_ + Log2(size_bytes / (static_cast<uint64_t>(ways) * line_bytes))),
      set_shift_(Log2(2 * static_cast<uint64_t>(ways))),
      num_sets_(size_bytes / (static_cast<uint64_t>(ways) * line_bytes)) {
  assert((num_sets_ & (num_sets_ - 1)) == 0 && "set count must be a power of two");
  assert((ways_ & (ways_ - 1)) == 0 && ways_ % kLanes == 0 &&
         "ways must be a power of two and a multiple of the probe's lane count");
  const Storage storage = TakeStorage(num_sets_ * 2 * static_cast<uint64_t>(ways_));
  words_ = storage.words;
  tick_ = storage.tick;
  floor_ = storage.tick;  // every line the storage holds is invalid here
}

CacheArray::~CacheArray() {
  ReturnStorage(Storage{
      .words = words_, .count = num_sets_ * 2 * static_cast<uint64_t>(ways_), .tick = tick_});
}

void CacheArray::Fill(PhysAddr addr) {
  uint32_t* set = SetOf(addr);
  const uint32_t* stamps = set + ways_;
  // Evict the last invalid way if any, else the first least-recently used
  // way (same choice as the original combined scan). Selects, not
  // branches: which way wins is data-dependent.
  int last_invalid = -1;
  int lru = 0;
  uint32_t lru_stamp = stamps[0];
  for (int w = 0; w < ways_; ++w) {
    const uint32_t stamp = stamps[w];
    last_invalid = stamp <= floor_ ? w : last_invalid;
    lru = stamp < lru_stamp ? w : lru;
    lru_stamp = stamp < lru_stamp ? stamp : lru_stamp;
  }
  const int victim = last_invalid >= 0 ? last_invalid : lru;
  // Stamp first: a renormalization re-stamps the set but keeps the victim.
  const uint32_t stamp = NextStamp();
  set[victim] = TagOf(addr);
  set[ways_ + victim] = stamp;
}

void CacheArray::Renormalize() {
  // Within each set, the valid lines take stamps 1..k in their LRU order
  // and invalid lines take 0; the floor drops to 0. Validity and the order
  // of valid stamps within a set are all that hits, misses and victims
  // depend on, and both are kept. Valid stamps are distinct (each touch
  // takes a new one), so the ranking is unambiguous.
  std::vector<std::pair<uint32_t, int>> valid;
  valid.reserve(static_cast<size_t>(ways_));
  for (uint64_t s = 0; s < num_sets_; ++s) {
    uint32_t* stamps = words_ + s * 2 * static_cast<uint64_t>(ways_) + ways_;
    valid.clear();
    for (int w = 0; w < ways_; ++w) {
      if (stamps[w] > floor_) {
        valid.emplace_back(stamps[w], w);
      }
      stamps[w] = 0;
    }
    std::sort(valid.begin(), valid.end());
    for (size_t rank = 0; rank < valid.size(); ++rank) {
      stamps[valid[rank].second] = static_cast<uint32_t>(rank + 1);
    }
  }
  floor_ = 0;
  tick_ = static_cast<uint32_t>(ways_);
}

CacheHierarchy::CacheHierarchy()
    : l1_(32 * 1024, /*ways=*/8, /*line_bytes=*/64),
      l2_(256 * 1024, /*ways=*/4, /*line_bytes=*/64),
      l3_(8 * 1024 * 1024, /*ways=*/16, /*line_bytes=*/64) {}

CacheLevel CacheHierarchy::AccessPastL1(PhysAddr addr) {
  l1_.Fill(addr);
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

void CacheHierarchy::Flush() {
  l1_.Flush();
  l2_.Flush();
  l3_.Flush();
}

}  // namespace memsentry::machine
