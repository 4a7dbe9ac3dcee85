#include "src/machine/cache.h"

#include <cassert>
#include <cstdlib>
#include <mutex>
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
  {
    std::lock_guard<std::mutex> lock(pool.mutex);
    for (size_t i = 0; i < pool.spares.size(); ++i) {
      if (pool.spares[i].count == count) {
        const Storage storage = pool.spares[i];
        pool.spares[i] = pool.spares.back();
        pool.spares.pop_back();
        return storage;
      }
    }
  }
  // Fresh storage is zeroed: every stamp is 0, so nothing is valid.
  return Storage{.lines = static_cast<Line*>(std::calloc(count, sizeof(Line))),
                 .count = count,
                 .tick = 0};
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
  std::free(storage.lines);
}

CacheArray::StoragePool& CacheArray::Pool() {
  static auto* pool = new StoragePool();  // never destroyed: arrays may outlive statics
  return *pool;
}

CacheArray::CacheArray(uint64_t size_bytes, int ways, int line_bytes)
    : ways_(ways),
      line_shift_(Log2(static_cast<uint64_t>(line_bytes))),
      tag_shift_(Log2(size_bytes / (static_cast<uint64_t>(ways) * line_bytes))),
      num_sets_(size_bytes / (static_cast<uint64_t>(ways) * line_bytes)) {
  assert((num_sets_ & (num_sets_ - 1)) == 0 && "set count must be a power of two");
  const Storage storage = TakeStorage(num_sets_ * static_cast<uint64_t>(ways_));
  lines_ = storage.lines;
  tick_ = storage.tick;
  floor_ = storage.tick;  // every line the storage holds is invalid here
}

CacheArray::~CacheArray() {
  ReturnStorage(Storage{
      .lines = lines_, .count = num_sets_ * static_cast<uint64_t>(ways_), .tick = tick_});
}

bool CacheArray::Contains(PhysAddr addr) const {
  const uint64_t block = addr >> line_shift_;
  const Line* base = &lines_[(block & (num_sets_ - 1)) * static_cast<uint64_t>(ways_)];
  for (int w = 0; w < ways_; ++w) {
    if (base[w].tag == block >> tag_shift_ && Valid(base[w])) {
      return true;
    }
  }
  return false;
}

void CacheArray::Fill(Line* base, uint64_t tag) {
  // Evict the last invalid way if any, else the first least-recently used
  // way (same choice as the original combined scan).
  Line* victim = base;
  for (int w = 0; w < ways_; ++w) {
    Line& line = base[w];
    if (!Valid(line)) {
      victim = &line;
    } else if (Valid(*victim) && line.lru < victim->lru) {
      victim = &line;
    }
  }
  *victim = Line{.tag = tag, .lru = ++tick_};
}

CacheHierarchy::CacheHierarchy()
    : l1_(32 * 1024, /*ways=*/8, /*line_bytes=*/64),
      l2_(256 * 1024, /*ways=*/4, /*line_bytes=*/64),
      l3_(8 * 1024 * 1024, /*ways=*/16, /*line_bytes=*/64) {}

void CacheHierarchy::Flush() {
  l1_.Flush();
  l2_.Flush();
  l3_.Flush();
}

}  // namespace memsentry::machine
