#include <gtest/gtest.h>

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
  PhysicalMemory pmem(4);  // frames 1..3 usable
  auto a = pmem.AllocFrame();
  auto b = pmem.AllocFrame();
  auto c = pmem.AllocFrame();
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(pmem.AllocFrame().ok());  // exhausted
  ASSERT_TRUE(pmem.FreeFrame(b.value()).ok());
  auto d = pmem.AllocFrame();
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value(), a.value() + kPageSize);  // reused the freed frame
}

TEST(PhysicalMemoryTest, DoubleFreeFails) {
  PhysicalMemory pmem(16);
  auto a = pmem.AllocFrame();
  ASSERT_TRUE(pmem.FreeFrame(a.value()).ok());
  EXPECT_FALSE(pmem.FreeFrame(a.value()).ok());
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
      mapped,               // mapped leaf
      mapped + 0xfff,       // mapped leaf, unaligned
      mapped + kPageSize,   // unmapped leaf in a live page table
      0x7f0000000000ULL,    // no PDPT below this PML4 slot
      mapped + (1ULL << 30) // PDPT present, no page directory
  };
  for (VirtAddr va : cases) {
    EXPECT_EQ(pt_.IsMapped(va), pt_.Walk(va).ok()) << std::hex << va;
  }
  EXPECT_TRUE(pt_.IsMapped(mapped));
  EXPECT_FALSE(pt_.IsMapped(mapped + kPageSize));
  ASSERT_TRUE(pt_.Unmap(mapped).ok());
  EXPECT_EQ(pt_.IsMapped(mapped), pt_.Walk(mapped).ok());
  EXPECT_FALSE(pt_.IsMapped(mapped));
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
