#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <optional>
#include <random>
#include <vector>

#include "src/machine/cache.h"
#include "src/machine/mmu.h"
#include "src/machine/page_table.h"
#include "src/machine/phys_mem.h"
#include "src/machine/tlb.h"

namespace memsentry::machine {
namespace {

TEST(PhysicalMemoryTest, AllocatesDistinctZeroedFrames) {
  PhysicalMemory pmem(1024);
  auto a = pmem.AllocFrame();
  auto b = pmem.AllocFrame();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value(), b.value());
  EXPECT_EQ(pmem.Read64(a.value()), 0u);
}

TEST(PhysicalMemoryTest, ReadBackWrites) {
  PhysicalMemory pmem(64);
  auto frame = pmem.AllocFrame();
  ASSERT_TRUE(frame.ok());
  pmem.Write64(frame.value() + 16, 0xdeadbeefcafef00dULL);
  EXPECT_EQ(pmem.Read64(frame.value() + 16), 0xdeadbeefcafef00dULL);
  pmem.Write8(frame.value() + 5, 0xab);
  EXPECT_EQ(pmem.Read8(frame.value() + 5), 0xab);
}

TEST(PhysicalMemoryTest, FreeAndReuse) {
  PhysicalMemory pmem(8);  // frames 1..7 usable
  for (uint64_t f = 1; f < 8; ++f) {
    auto frame = pmem.AllocFrame();
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ(frame.value(), f << kPageShift);
  }
  EXPECT_FALSE(pmem.AllocFrame().ok());
  ASSERT_TRUE(pmem.FreeFrame(5 << kPageShift).ok());
  ASSERT_TRUE(pmem.FreeFrame(2 << kPageShift).ok());
  EXPECT_EQ(pmem.AllocFrame().value(), PhysAddr{2} << kPageShift);
  EXPECT_EQ(pmem.AllocFrame().value(), PhysAddr{5} << kPageShift);
  EXPECT_FALSE(pmem.AllocFrame().ok());
}

TEST(PhysicalMemoryTest, DoubleFreeFails) {
  PhysicalMemory pmem(16);
  auto a = pmem.AllocFrame();
  ASSERT_TRUE(pmem.FreeFrame(a.value()).ok());
  EXPECT_FALSE(pmem.FreeFrame(a.value()).ok());
}

TEST(PhysicalMemoryTest, ReusedFrameReadsZero) {
  PhysicalMemory pmem(2);  // only frame 1: a reuse must hand it back
  const PhysAddr frame = pmem.AllocFrame().value();
  pmem.Write64(frame + 64, 0x1122334455667788ULL);
  pmem.Write8(frame + 7, 0x5a);
  ASSERT_TRUE(pmem.FreeFrame(frame).ok());
  ASSERT_EQ(pmem.AllocFrame().value(), frame);
  EXPECT_EQ(pmem.Read64(frame + 64), 0u);
  EXPECT_EQ(pmem.Read8(frame + 7), 0u);
  uint8_t bytes[16];
  pmem.ReadBytes(frame + 60, bytes, sizeof(bytes));
  for (uint8_t b : bytes) {
    EXPECT_EQ(b, 0u);
  }
}

TEST(PhysicalMemoryTest, AllocatedCountAcrossAllocFreeAndPoke) {
  PhysicalMemory pmem(64);
  EXPECT_EQ(pmem.allocated_frames(), 0u);
  const PhysAddr a = pmem.AllocFrame().value();  // frame 1
  EXPECT_EQ(pmem.allocated_frames(), 1u);
  EXPECT_TRUE(pmem.IsAllocated(a));
  // Reading a never-allocated frame yields zero and allocates nothing.
  EXPECT_EQ(pmem.Read64(PhysAddr{40} << kPageShift), 0u);
  EXPECT_FALSE(pmem.IsAllocated(PhysAddr{40} << kPageShift));
  EXPECT_EQ(pmem.allocated_frames(), 1u);
  // A direct poke at frame 3 (never allocated) allocates it.
  const PhysAddr poked = PhysAddr{3} << kPageShift;
  pmem.Write64(poked + 8, 99);
  EXPECT_TRUE(pmem.IsAllocated(poked));
  EXPECT_EQ(pmem.allocated_frames(), 2u);
  EXPECT_EQ(pmem.AllocFrame().value(), PhysAddr{2} << kPageShift);
  EXPECT_EQ(pmem.allocated_frames(), 3u);
  // The in-order allocator still hands out the poked frame, counted once.
  EXPECT_EQ(pmem.AllocFrame().value(), poked);
  EXPECT_EQ(pmem.allocated_frames(), 3u);
  EXPECT_EQ(pmem.Read64(poked + 8), 99u);
  ASSERT_TRUE(pmem.FreeFrame(a).ok());
  EXPECT_FALSE(pmem.IsAllocated(a));
  EXPECT_EQ(pmem.allocated_frames(), 2u);
  EXPECT_FALSE(pmem.FreeFrame(PhysAddr{50} << kPageShift).ok());
  EXPECT_EQ(pmem.allocated_frames(), 2u);
}

TEST(PhysicalMemoryTest, FreedFrameIsNeverServedFromTheFrameCache) {
  PhysicalMemory pmem(256);
  const PhysAddr a = pmem.AllocFrame().value();
  pmem.Write64(a, 0xfeedULL);  // materializes and caches frame a
  EXPECT_EQ(pmem.Read64(a), 0xfeedULL);
  ASSERT_TRUE(pmem.FreeFrame(a).ok());
  EXPECT_EQ(pmem.Read64(a), 0u);
  EXPECT_EQ(pmem.Read8(a), 0u);
  EXPECT_FALSE(pmem.IsAllocated(a));
  // A poke after the free materializes a fresh zeroed frame.
  pmem.Write8(a + 1, 7);
  EXPECT_EQ(pmem.Read64(a), uint64_t{7} << 8);
  // Frames 64 apart share a cache slot: a free must not leave the slot
  // pointing at the freed frame's bytes for its neighbour either.
  const PhysAddr b = a + (PhysAddr{64} << kPageShift);
  pmem.Write64(b, 0xb0b0ULL);
  ASSERT_TRUE(pmem.FreeFrame(b).ok());
  EXPECT_EQ(pmem.Read64(a), uint64_t{7} << 8);
  EXPECT_EQ(pmem.Read64(b), 0u);
}

class PageTableTest : public ::testing::Test {
 protected:
  PhysicalMemory pmem_{1 << 16};
  PageTable pt_{&pmem_};
};

TEST_F(PageTableTest, MapWalkUnmap) {
  const VirtAddr va = 0x123456789000ULL;
  auto frame = pt_.MapNew(va, PageFlags::Data());
  ASSERT_TRUE(frame.ok());
  auto walk = pt_.Walk(va + 0x123);
  ASSERT_TRUE(walk.ok());
  EXPECT_EQ(walk.value().phys, frame.value() + 0x123);
  EXPECT_EQ(walk.value().levels_touched, 4);
  ASSERT_TRUE(pt_.Unmap(va).ok());
  EXPECT_FALSE(pt_.Walk(va).ok());
}

TEST_F(PageTableTest, DoubleMapFails) {
  const VirtAddr va = 0x5000;
  ASSERT_TRUE(pt_.MapNew(va, PageFlags::Data()).ok());
  EXPECT_FALSE(pt_.MapNew(va, PageFlags::Data()).ok());
}

TEST_F(PageTableTest, UnalignedMapFails) {
  EXPECT_FALSE(pt_.Map(0x123, 0x1000, PageFlags::Data()).ok());
}

TEST_F(PageTableTest, PermissionBitsRoundTrip) {
  const VirtAddr va = 0x7000;
  ASSERT_TRUE(pt_.MapNew(va, PageFlags::Code()).ok());
  auto walk = pt_.Walk(va);
  ASSERT_TRUE(walk.ok());
  EXPECT_FALSE(PageTable::PteWritable(walk.value().pte));
  EXPECT_FALSE(PageTable::PteNx(walk.value().pte));  // code is executable
  ASSERT_TRUE(pt_.Protect(va, PageFlags::Data()).ok());
  walk = pt_.Walk(va);
  EXPECT_TRUE(PageTable::PteWritable(walk.value().pte));
  EXPECT_TRUE(PageTable::PteNx(walk.value().pte));
}

TEST_F(PageTableTest, ProtectionKeyInPteBits59To62) {
  const VirtAddr va = 0x9000;
  PageFlags flags = PageFlags::Data();
  flags.pkey = 11;
  ASSERT_TRUE(pt_.MapNew(va, flags).ok());
  auto walk = pt_.Walk(va);
  ASSERT_TRUE(walk.ok());
  EXPECT_EQ(PageTable::PtePkey(walk.value().pte), 11);
  // The architectural bit positions (SDM 4.6.2).
  EXPECT_EQ((walk.value().pte >> 59) & 0xf, 11u);
  ASSERT_TRUE(pt_.SetKey(va, 3).ok());
  walk = pt_.Walk(va);
  EXPECT_EQ(PageTable::PtePkey(walk.value().pte), 3);
}

TEST_F(PageTableTest, IsMappedAgreesWithWalk) {
  const VirtAddr mapped = 0x123456789000ULL;
  ASSERT_TRUE(pt_.MapNew(mapped, PageFlags::Data()).ok());
  const VirtAddr cases[] = {
      mapped,                // mapped leaf
      mapped + 0xfff,        // mapped leaf, unaligned
      mapped + kPageSize,    // unmapped leaf in a live page table
      0x7f0000000000ULL,     // no PDPT below this PML4 slot
      mapped + (1ULL << 30), // PDPT present, no page directory
      mapped + (1ULL << 21), // page directory present, no page table
  };
  const int levels_touched[] = {4, 4, 4, 1, 2, 3};
  for (size_t i = 0; i < std::size(cases); ++i) {
    const VirtAddr va = cases[i];
    auto walk = pt_.Walk(va);
    EXPECT_EQ(pt_.IsMapped(va), walk.ok()) << std::hex << va;
    // Probe makes the same loads without a Status.
    const WalkResult probe = pt_.Probe(va);
    EXPECT_EQ(probe.present, walk.ok()) << std::hex << va;
    EXPECT_EQ(probe.levels_touched, levels_touched[i]) << std::hex << va;
    if (walk.ok()) {
      EXPECT_EQ(probe.phys, walk.value().phys);
      EXPECT_EQ(probe.pte, walk.value().pte);
    }
  }
  EXPECT_TRUE(pt_.IsMapped(mapped));
  EXPECT_FALSE(pt_.IsMapped(mapped + kPageSize));
  ASSERT_TRUE(pt_.Unmap(mapped).ok());
  EXPECT_EQ(pt_.IsMapped(mapped), pt_.Walk(mapped).ok());
  EXPECT_FALSE(pt_.IsMapped(mapped));
}

// Every allocated frame's bytes: frame numbers, table layout and PTE bits.
std::vector<uint8_t> Dump(const PhysicalMemory& pmem) {
  std::vector<uint8_t> out;
  for (uint64_t f = 1; f < pmem.total_frames(); ++f) {
    if (!pmem.IsAllocated(f << kPageShift)) {
      continue;
    }
    const size_t at = out.size();
    out.resize(at + 8 + kPageSize);
    std::memcpy(out.data() + at, &f, 8);
    pmem.ReadBytes(f << kPageShift, out.data() + at + 8, kPageSize);
  }
  return out;
}

// pt_ maps each range in one MapNewRange; a second table maps the same pages
// one MapNew at a time. Both must build the same memory, frame for frame.
TEST_F(PageTableTest, MapRangeMatchesPerPageMapping) {
  PhysicalMemory page_mem{1 << 16};
  PageTable page_pt{&page_mem};
  struct Case {
    VirtAddr base;
    uint64_t pages;
  };
  const Case cases[] = {
      {0x1fe000, 4},                      // crosses a leaf table
      {(1ULL << 30) - 3 * kPageSize, 6},  // crosses a page directory
      {(1ULL << 39) - kPageSize, 2},      // crosses a PML4 entry
      {0x40000000000ULL + 0x5000, 1100},  // several leaf tables
      {0x9000, 1},
      {0xa000, 0},
  };
  PageFlags flags = PageFlags::Data();
  flags.pkey = 5;
  for (const Case& c : cases) {
    // A prior mapping nearby, so the range finds some levels present.
    ASSERT_TRUE(pt_.MapNew(c.base + (1ULL << 23), PageFlags::Code()).ok());
    ASSERT_TRUE(page_pt.MapNew(c.base + (1ULL << 23), PageFlags::Code()).ok());
    ASSERT_TRUE(pt_.MapNewRange(c.base, c.pages, flags).ok()) << std::hex << c.base;
    for (uint64_t p = 0; p < c.pages; ++p) {
      ASSERT_TRUE(page_pt.MapNew(c.base + p * kPageSize, flags).ok());
    }
    EXPECT_EQ(pmem_.allocated_frames(), page_mem.allocated_frames()) << std::hex << c.base;
    EXPECT_EQ(Dump(pmem_), Dump(page_mem)) << std::hex << c.base;
  }
  // A page already mapped mid-range, past a leaf-table boundary: both stop
  // there with the same error, having allocated the same frames.
  const VirtAddr base = 0x3f0000;
  const VirtAddr clash = base + 30 * kPageSize;
  ASSERT_TRUE(pt_.MapNew(clash, PageFlags::Code()).ok());
  ASSERT_TRUE(page_pt.MapNew(clash, PageFlags::Code()).ok());
  const Status range_status = pt_.MapNewRange(base, 40, flags);
  Status page_status = OkStatus();
  for (uint64_t p = 0; p < 40 && page_status.ok(); ++p) {
    page_status = page_pt.MapNew(base + p * kPageSize, flags).status();
  }
  EXPECT_EQ(range_status.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(range_status.code(), page_status.code());
  EXPECT_EQ(range_status.message(), page_status.message());
  EXPECT_EQ(pmem_.allocated_frames(), page_mem.allocated_frames());
  EXPECT_EQ(Dump(pmem_), Dump(page_mem));
  EXPECT_TRUE(pt_.IsMapped(clash - kPageSize));
  EXPECT_FALSE(pt_.IsMapped(clash + kPageSize));
}

TEST_F(PageTableTest, AnyMappedAgreesWithPerPageIsMapped) {
  const VirtAddr gb = 1ULL << 30;
  const VirtAddr pml4_span = 1ULL << 39;
  const VirtAddr mapped[] = {
      0x200000,              // first page of a leaf table
      0x3ff000,              // last page of a leaf table
      2 * gb - kPageSize,    // last page of a PDPT entry's span
      5 * gb + 0x7000,       // alone under its page directory
      pml4_span + 0x3000,    // under the second PML4 entry
  };
  for (VirtAddr va : mapped) {
    ASSERT_TRUE(pt_.MapNew(va, PageFlags::Data()).ok());
  }
  ASSERT_TRUE(pt_.MapNew(0x250000, PageFlags::Data()).ok());
  ASSERT_TRUE(pt_.Unmap(0x250000).ok());  // a hole in a live leaf table
  const uint64_t gb_pages = gb / kPageSize;
  struct Window {
    VirtAddr base;
    uint64_t pages;
  };
  const Window windows[] = {
      {0x0, 0x200},                                   // ends just before 0x200000
      {0x0, 0x201},                                   // ends on it
      {0x201000, 0x1fe},                              // between two mapped pages
      {0x201000, 0x1ff},                              // reaches 0x3ff000
      {0x250000, 1},                                  // the unmapped hole
      {0x400000, 2 * gb_pages - 1024 - 1},            // stops before 2 GiB - 4 KiB
      {0x400000, 2 * gb_pages - 1024},                // includes it
      {2 * gb, 3 * gb_pages + 7},                     // empty PDs, then stops short
      {2 * gb, 3 * gb_pages + 8},                     // reaches 5 GiB + 0x7000
      {5 * gb + 0x8000, 1 << 20},                     // absent page directories
      {pml4_span - 4 * gb, (1 << 20) + 3},            // absent PDPT entries, then
      {pml4_span - 4 * gb, (1 << 20) + 4},            // across a PML4 boundary
      {pml4_span + 0x4000, 1 << 20},
      {0x7f0000000000ULL, 1 << 20},                   // no PDPT at all
      {0x3ff000, 0},
  };
  for (const Window& w : windows) {
    bool oracle = false;
    for (uint64_t p = 0; p < w.pages && !oracle; ++p) {
      oracle = pt_.IsMapped(w.base + p * kPageSize);
    }
    EXPECT_EQ(pt_.AnyMapped(w.base, w.pages), oracle)
        << std::hex << w.base << " +" << w.pages << " pages";
  }
}

TEST_F(PageTableTest, SetKeyRejectsBadKeyAndMissingPage) {
  ASSERT_TRUE(pt_.MapNew(0xa000, PageFlags::Data()).ok());
  EXPECT_FALSE(pt_.SetKey(0xa000, 16).ok());
  EXPECT_FALSE(pt_.SetKey(0xb000, 1).ok());
}

TEST(TlbTest, HitAfterInsert) {
  Tlb tlb;
  EXPECT_FALSE(tlb.Lookup(0x1000, 0).has_value());
  tlb.Insert(0x1000, 0, 0xabc);
  auto hit = tlb.Lookup(0x1000, 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 0xabcu);
  EXPECT_EQ(tlb.stats().hits, 1u);
  EXPECT_EQ(tlb.stats().misses, 1u);
}

TEST(TlbTest, VpidTagsIsolateEntries) {
  Tlb tlb;
  tlb.Insert(0x1000, 1, 0x111);
  tlb.Insert(0x1000, 2, 0x222);
  EXPECT_EQ(*tlb.Lookup(0x1000, 1), 0x111u);
  EXPECT_EQ(*tlb.Lookup(0x1000, 2), 0x222u);
  tlb.FlushVpid(1);
  EXPECT_FALSE(tlb.Lookup(0x1000, 1).has_value());
  EXPECT_TRUE(tlb.Lookup(0x1000, 2).has_value());
}

TEST(TlbTest, InvalidatePageDropsAllVpids) {
  Tlb tlb;
  tlb.Insert(0x1000, 1, 0x111);
  tlb.Insert(0x1000, 2, 0x222);
  tlb.InvalidatePage(0x1000);
  EXPECT_FALSE(tlb.Lookup(0x1000, 1).has_value());
  EXPECT_FALSE(tlb.Lookup(0x1000, 2).has_value());
}

TEST(TlbTest, LruEvictionWithinSet) {
  Tlb tlb;
  // Fill one set (same set index) beyond its ways.
  const uint64_t set_stride = uint64_t{Tlb::kSets} << kPageShift;
  for (int i = 0; i <= Tlb::kWays; ++i) {
    tlb.Insert(0x1000 + i * set_stride, 0, 0x100 + i);
  }
  // The oldest entry must have been evicted.
  EXPECT_FALSE(tlb.Lookup(0x1000, 0).has_value());
  EXPECT_TRUE(tlb.Lookup(0x1000 + Tlb::kWays * set_stride, 0).has_value());
}

TEST(CacheTest, HierarchyFillsDownward) {
  CacheHierarchy cache;
  EXPECT_EQ(cache.Access(0x1000), CacheLevel::kDram);  // cold
  EXPECT_EQ(cache.Access(0x1000), CacheLevel::kL1);    // hot
  EXPECT_EQ(cache.Access(0x1040), CacheLevel::kDram);  // different line
}

TEST(CacheTest, L1EvictionFallsBackToL2) {
  CacheHierarchy cache;
  // Touch a 64 KiB region (2x L1) twice: second pass should hit L2, not L1,
  // for the evicted early lines.
  for (int pass = 0; pass < 2; ++pass) {
    for (uint64_t addr = 0; addr < 64 * 1024; addr += 64) {
      cache.Access(addr);
    }
  }
  const auto& stats = cache.stats();
  EXPECT_GT(stats.l2_hits, 0u);
  EXPECT_EQ(stats.accesses, 2048u);
}

// A reference LRU cache: per set, the cached lines from most to least
// recently used. A miss in a full set evicts the last one.
class ReferenceLru {
 public:
  ReferenceLru(uint64_t size_bytes, int ways, int line_bytes)
      : ways_(static_cast<size_t>(ways)),
        line_bytes_(static_cast<uint64_t>(line_bytes)),
        sets_(size_bytes / (static_cast<uint64_t>(ways) * line_bytes)) {}

  // Returns hit/miss; on a miss in a full set, *evicted gets the victim.
  bool Access(PhysAddr addr, std::optional<uint64_t>* evicted) {
    const uint64_t line = addr / line_bytes_;
    std::vector<uint64_t>& set = sets_[line % sets_.size()];
    evicted->reset();
    for (size_t i = 0; i < set.size(); ++i) {
      if (set[i] == line) {
        set.erase(set.begin() + static_cast<ptrdiff_t>(i));
        set.insert(set.begin(), line);
        return true;
      }
    }
    if (set.size() == ways_) {
      *evicted = set.back();
      set.pop_back();
    }
    set.insert(set.begin(), line);
    return false;
  }
  void Flush() {
    for (auto& set : sets_) {
      set.clear();
    }
  }
  const std::vector<uint64_t>& SetOf(PhysAddr addr) const {
    return sets_[(addr / line_bytes_) % sets_.size()];
  }
  uint64_t line_bytes() const { return line_bytes_; }

 private:
  size_t ways_;
  uint64_t line_bytes_;
  std::vector<std::vector<uint64_t>> sets_;
};

struct CacheGeometry {
  uint64_t size_bytes;
  int ways;
};
constexpr CacheGeometry kCacheGeometries[] = {
    {32 * 1024, 8}, {256 * 1024, 4}, {8 * 1024 * 1024, 16}};
constexpr int kCacheLineBytes = 64;

// Drives `cache` and a fresh reference LRU of geometry `g` through 20,000
// seeded random operations: hits and misses, the line each miss evicts, and
// the full contents of the touched set must agree after every access.
// Traces mix addresses that collide on one set (more tags than ways), a
// small hot pool, uniform addresses, and Flush().
void ExpectMatchesReferenceLru(CacheArray& cache, const CacheGeometry& g, uint64_t seed) {
  const uint64_t sets = g.size_bytes / (static_cast<uint64_t>(g.ways) * kCacheLineBytes);
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + g.size_bytes);
  ReferenceLru reference(g.size_bytes, g.ways, kCacheLineBytes);
  const uint64_t hot_set = rng() % sets;
  std::vector<PhysAddr> hot;
  for (int i = 0; i < 64; ++i) {
    hot.push_back((rng() % (1u << 20)) * kCacheLineBytes);
  }
  uint64_t hits = 0;
  uint64_t evictions = 0;
  for (int op = 0; op < 20000; ++op) {
    const uint64_t pick = rng() % 100;
    if (pick == 0) {
      cache.Flush();
      reference.Flush();
      continue;
    }
    PhysAddr addr;
    if (pick < 40) {
      // One set, 3x as many distinct tags as ways.
      const uint64_t tag = rng() % (3 * static_cast<uint64_t>(g.ways));
      addr = (tag * sets + hot_set) * kCacheLineBytes + rng() % kCacheLineBytes;
    } else if (pick < 75) {
      addr = hot[rng() % hot.size()] + rng() % kCacheLineBytes;
    } else {
      addr = rng() % (uint64_t{1} << 34);
    }
    std::optional<uint64_t> evicted;
    const bool expect_hit = reference.Access(addr, &evicted);
    ASSERT_EQ(cache.Access(addr), expect_hit) << "op " << op << " addr " << addr;
    hits += expect_hit;
    if (evicted.has_value()) {
      ++evictions;
      ASSERT_FALSE(cache.Contains(*evicted * kCacheLineBytes)) << "op " << op;
    }
    for (uint64_t line : reference.SetOf(addr)) {
      ASSERT_TRUE(cache.Contains(line * kCacheLineBytes)) << "op " << op;
    }
  }
  // The trace exercised both outcomes and real evictions.
  EXPECT_GT(hits, 1000u);
  EXPECT_GT(evictions, 1000u);
}

// Each CacheHierarchy level against the reference LRU on seeded random
// traces. Every trace runs twice, each time on a new array: the second
// array runs on the tag storage the first left behind, full of lines the
// trace is about to touch, and must treat them all as invalid.
TEST(CacheTest, ArraysMatchReferenceLruOnRandomTraces) {
  for (const CacheGeometry& g : kCacheGeometries) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      for (int round = 0; round < 2; ++round) {
        SCOPED_TRACE(testing::Message() << g.size_bytes << " B, " << g.ways << "-way, seed "
                                        << seed << ", round " << round);
        CacheArray cache(g.size_bytes, g.ways, kCacheLineBytes);
        ExpectMatchesReferenceLru(cache, g, seed);
      }
    }
  }
}

}  // namespace

// Reaches into CacheArray's 32-bit stamp clock, so tests can start it just
// below the wrap instead of running 2^32 accesses.
class CacheArrayTestPeer {
 public:
  // Moves a fresh array's clock and validity floor to `tick`. Every stored
  // stamp is at most the old tick, so every line stays invalid.
  static void StartTickAt(CacheArray& cache, uint32_t tick) {
    ASSERT_GE(tick, cache.tick_);
    cache.tick_ = tick;
    cache.floor_ = tick;
  }
  static uint32_t tick(const CacheArray& cache) { return cache.tick_; }
};

namespace {

// The same traces with each array's clock started 5,000 stamps below 2^32,
// so every trace renormalizes mid-way (with flushed, invalid and valid
// lines in the sets) and must still agree with the reference at every
// access. The array that inherits a renormalized array's storage must see
// all of it as invalid, as round 1 of the test above requires.
TEST(CacheTest, ArraysMatchReferenceLruAcrossTheStampWrap) {
  constexpr uint32_t kStart = ~uint32_t{0} - 5000;
  for (const CacheGeometry& g : kCacheGeometries) {
    for (uint64_t seed = 1; seed <= 2; ++seed) {
      for (int round = 0; round < 2; ++round) {
        SCOPED_TRACE(testing::Message() << g.size_bytes << " B, " << g.ways << "-way, seed "
                                        << seed << ", round " << round);
        CacheArray cache(g.size_bytes, g.ways, kCacheLineBytes);
        if (round == 0) {
          CacheArrayTestPeer::StartTickAt(cache, kStart);
        }
        ExpectMatchesReferenceLru(cache, g, seed);
        if (round == 0) {
          EXPECT_LT(CacheArrayTestPeer::tick(cache), kStart) << "the trace never wrapped";
        }
      }
    }
  }
}

// Storage an array hands back with its clock past 2^31 is zeroed when the
// next array takes it, which then starts stamping from 0. The geometry is
// one no other test uses, so the pool's only spare of that size is this
// array's.
TEST(CacheTest, StoragePastHalfTheStampRangeIsTakenZeroed) {
  const CacheGeometry g{64 * 1024, 4};
  {
    CacheArray cache(g.size_bytes, g.ways, kCacheLineBytes);
    CacheArrayTestPeer::StartTickAt(cache, (uint32_t{1} << 31) + 10);
    ExpectMatchesReferenceLru(cache, g, 7);
  }
  CacheArray cache(g.size_bytes, g.ways, kCacheLineBytes);
  EXPECT_EQ(CacheArrayTestPeer::tick(cache), 0u);
  ExpectMatchesReferenceLru(cache, g, 7);
}

class MmuTest : public ::testing::Test {
 protected:
  MmuTest() : mmu_(&pmem_, &cost_) {
    mmu_.SetPageTable(&pt_);
  }
  PhysicalMemory pmem_{1 << 16};
  CostModel cost_;
  PageTable pt_{&pmem_};
  Mmu mmu_{&pmem_, &cost_};
  Pkru pkru_{};
};

TEST_F(MmuTest, TranslatesAndCaches) {
  ASSERT_TRUE(pt_.MapNew(0x4000, PageFlags::Data()).ok());
  auto first = mmu_.Access(0x4000, AccessType::kRead, pkru_);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().tlb_hit);
  auto second = mmu_.Access(0x4000, AccessType::kRead, pkru_);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().tlb_hit);
  EXPECT_LT(second.value().cycles, first.value().cycles);
}

TEST_F(MmuTest, UnmappedFaults) {
  auto r = mmu_.Access(0x4000, AccessType::kRead, pkru_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.fault().type, FaultType::kPageNotPresent);
}

TEST_F(MmuTest, NonCanonicalFaults) {
  auto r = mmu_.Access(kAddressSpaceEnd, AccessType::kRead, pkru_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.fault().type, FaultType::kNonCanonical);
}

TEST_F(MmuTest, WriteProtection) {
  ASSERT_TRUE(pt_.MapNew(0x4000, PageFlags::ReadOnlyData()).ok());
  EXPECT_TRUE(mmu_.Access(0x4000, AccessType::kRead, pkru_).ok());
  auto w = mmu_.Access(0x4000, AccessType::kWrite, pkru_);
  ASSERT_FALSE(w.ok());
  EXPECT_EQ(w.fault().type, FaultType::kWriteProtection);
}

TEST_F(MmuTest, NxEnforced) {
  ASSERT_TRUE(pt_.MapNew(0x4000, PageFlags::Data()).ok());
  auto x = mmu_.Access(0x4000, AccessType::kExecute, pkru_);
  ASSERT_FALSE(x.ok());
  EXPECT_EQ(x.fault().type, FaultType::kNxViolation);
}

TEST_F(MmuTest, PkeyChecksApplyOnTlbHits) {
  PageFlags flags = PageFlags::Data();
  flags.pkey = 5;
  ASSERT_TRUE(pt_.MapNew(0x4000, flags).ok());
  // Warm the TLB with the key accessible.
  ASSERT_TRUE(mmu_.Access(0x4000, AccessType::kRead, pkru_).ok());
  // Disable the key: takes effect immediately, NO TLB flush needed (as on
  // real MPK hardware).
  pkru_.SetAccessDisable(5, true);
  auto r = mmu_.Access(0x4000, AccessType::kRead, pkru_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.fault().type, FaultType::kPkeyAccessDisabled);
}

TEST_F(MmuTest, PkeyWriteDisableAllowsReads) {
  PageFlags flags = PageFlags::Data();
  flags.pkey = 7;
  ASSERT_TRUE(pt_.MapNew(0x4000, flags).ok());
  pkru_.SetWriteDisable(7, true);
  EXPECT_TRUE(mmu_.Access(0x4000, AccessType::kRead, pkru_).ok());
  auto w = mmu_.Access(0x4000, AccessType::kWrite, pkru_);
  ASSERT_FALSE(w.ok());
  EXPECT_EQ(w.fault().type, FaultType::kPkeyWriteDisabled);
}

TEST_F(MmuTest, PteChangesRequireInvalidation) {
  ASSERT_TRUE(pt_.MapNew(0x4000, PageFlags::Data()).ok());
  ASSERT_TRUE(mmu_.Access(0x4000, AccessType::kWrite, pkru_).ok());
  ASSERT_TRUE(pt_.Protect(0x4000, PageFlags::ReadOnlyData()).ok());
  // Stale TLB entry still allows the write (hardware behaviour)...
  EXPECT_TRUE(mmu_.Access(0x4000, AccessType::kWrite, pkru_).ok());
  // ...until the kernel invalidates.
  mmu_.InvalidatePage(0x4000);
  EXPECT_FALSE(mmu_.Access(0x4000, AccessType::kWrite, pkru_).ok());
}

TEST_F(MmuTest, ReadWriteHelpers) {
  ASSERT_TRUE(pt_.MapNew(0x4000, PageFlags::Data()).ok());
  Cycles cycles = 0;
  ASSERT_TRUE(mmu_.Write64(0x4008, 0x1122334455667788ULL, pkru_, &cycles).ok());
  auto v = mmu_.Read64(0x4008, pkru_, &cycles);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 0x1122334455667788ULL);
  EXPECT_GT(cycles, 0.0);
}

TEST_F(MmuTest, BufferAccessSpansPages) {
  ASSERT_TRUE(pt_.MapNew(0x4000, PageFlags::Data()).ok());
  ASSERT_TRUE(pt_.MapNew(0x5000, PageFlags::Data()).ok());
  std::vector<uint8_t> data(256, 0xcd);
  Cycles cycles = 0;
  ASSERT_TRUE(mmu_.WriteBytes(0x4f80, data.data(), data.size(), pkru_, &cycles).ok());
  std::vector<uint8_t> back(256);
  ASSERT_TRUE(mmu_.ReadBytes(0x4f80, back.data(), back.size(), pkru_, &cycles).ok());
  EXPECT_EQ(data, back);
}

// A fake second level that remaps one frame and rejects another.
class FakeSecondLevel : public SecondLevelTranslation {
 public:
  FaultOr<PhysAddr> TranslateGuestPhys(GuestPhysAddr gpa, AccessType access) override {
    if (blocked_ != 0 && PageAlignDown(gpa) == blocked_) {
      return Fault{FaultType::kEptViolation, gpa, access};
    }
    return gpa;  // identity
  }
  int ExtraWalkLevels() const override { return 4; }
  void SetTag(uint16_t tag) { SetAsidTag(tag); }

  FakeSecondLevel() { SetAsidTag(1); }

  GuestPhysAddr blocked_ = 0;
};

TEST_F(MmuTest, SecondLevelViolationSurfacesVirtualAddress) {
  auto frame = pt_.MapNew(0x4000, PageFlags::Data());
  ASSERT_TRUE(frame.ok());
  FakeSecondLevel second;
  second.blocked_ = PageAlignDown(frame.value());
  mmu_.SetSecondLevel(&second);
  auto r = mmu_.Access(0x4000, AccessType::kRead, pkru_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.fault().type, FaultType::kEptViolation);
  EXPECT_EQ(r.fault().address, 0x4000u);  // reported in virtual space
}

TEST_F(MmuTest, SecondLevelSwitchNeedsNoFlush) {
  auto frame = pt_.MapNew(0x4000, PageFlags::Data());
  ASSERT_TRUE(frame.ok());
  FakeSecondLevel second;
  mmu_.SetSecondLevel(&second);
  ASSERT_TRUE(mmu_.Access(0x4000, AccessType::kRead, pkru_).ok());
  // "Switch EPTs": block the frame and change the ASID tag. The stale entry
  // under tag 1 must not leak into tag 2.
  second.blocked_ = PageAlignDown(frame.value());
  second.SetTag(2);
  auto r = mmu_.Access(0x4000, AccessType::kRead, pkru_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.fault().type, FaultType::kEptViolation);
  // Switching back re-hits the old entry without a walk.
  second.SetTag(1);
  auto back = mmu_.Access(0x4000, AccessType::kRead, pkru_);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().tlb_hit);
}

}  // namespace
}  // namespace memsentry::machine
