// x86-64 4-level page tables built inside simulated physical memory, using the
// architectural PTE bit layout including the 4-bit protection key (MPK) field
// in bits 62:59 of leaf entries (Intel SDM Vol 3, 4.6.2).
#ifndef MEMSENTRY_SRC_MACHINE_PAGE_TABLE_H_
#define MEMSENTRY_SRC_MACHINE_PAGE_TABLE_H_

#include <cstdint>

#include "src/base/status.h"
#include "src/base/types.h"
#include "src/machine/phys_mem.h"

namespace memsentry::machine {

// Architectural PTE bits.
inline constexpr uint64_t kPtePresent = uint64_t{1} << 0;
inline constexpr uint64_t kPteWritable = uint64_t{1} << 1;
inline constexpr uint64_t kPteUser = uint64_t{1} << 2;
inline constexpr uint64_t kPteAccessed = uint64_t{1} << 5;
inline constexpr uint64_t kPteDirty = uint64_t{1} << 6;
inline constexpr uint64_t kPteNx = uint64_t{1} << 63;
inline constexpr int kPtePkeyShift = 59;
inline constexpr uint64_t kPtePkeyMask = uint64_t{0xf} << kPtePkeyShift;
inline constexpr uint64_t kPteFrameMask = 0x000ffffffffff000ULL;

// Page permissions + protection key, the software-facing view of a mapping.
struct PageFlags {
  bool writable = true;
  bool user = true;
  bool executable = false;
  uint8_t pkey = 0;  // protection key 0..15; key 0 is the default domain

  static PageFlags Data() { return PageFlags{.writable = true, .user = true}; }
  static PageFlags ReadOnlyData() { return PageFlags{.writable = false, .user = true}; }
  static PageFlags Code() {
    return PageFlags{.writable = false, .user = true, .executable = true};
  }
};

struct WalkResult {
  PhysAddr phys = 0;       // translated physical address (frame | offset)
  uint64_t pte = 0;        // leaf entry, for permission evaluation
  int levels_touched = 0;  // memory accesses the walk performed
  bool present = false;    // false: some level (or the leaf) is not present
};

// A 4-level page table. The root (PML4) and all intermediate tables are
// ordinary frames in PhysicalMemory; Walk() performs real entry loads.
class PageTable {
 public:
  explicit PageTable(PhysicalMemory* pmem);

  PageTable(const PageTable&) = delete;
  PageTable& operator=(const PageTable&) = delete;

  PhysAddr root() const { return root_; }

  // Maps one page. Fails if already mapped (use Protect/SetKey to modify).
  Status Map(VirtAddr virt, PhysAddr phys, PageFlags flags);

  // The leaf table MapNext used last, for a run of mappings into one table
  // (start each run with a fresh cursor; tables are never freed, so the
  // cached one stays valid while the run lasts).
  struct Cursor {
    VirtAddr span = 1;      // the leaf-table-aligned span it covers (1: none)
    PhysAddr leaf_table = 0;
  };
  // Map for one page of a run: a page in the cursor's span takes its slot
  // from the cached leaf table without a walk; any other page walks from
  // the root, creating absent levels, and moves the cursor there. Map is
  // MapNext with a fresh cursor.
  Status MapNext(Cursor& cursor, VirtAddr virt, PhysAddr phys, PageFlags flags);
  // Allocates a fresh frame and maps it; returns the frame address.
  StatusOr<PhysAddr> MapNew(VirtAddr virt, PageFlags flags);
  // MapNew for `pages` consecutive pages from `base`, walking from the root
  // once per leaf table and growing the frame table once. Allocates frames
  // in the same order as a MapNew loop (each data frame, then any new table
  // levels) and stops with the same AlreadyExists at the first page already
  // mapped.
  Status MapNewRange(VirtAddr base, uint64_t pages, PageFlags flags);
  Status Unmap(VirtAddr virt);
  // Rewrites permissions of an existing mapping (mprotect).
  Status Protect(VirtAddr virt, PageFlags flags);
  // Rewrites only the protection key of an existing mapping (pkey_mprotect).
  Status SetKey(VirtAddr virt, uint8_t pkey);

  bool IsMapped(VirtAddr virt) const;
  // Whether any of `pages` pages from the page-aligned `base` is mapped, as
  // a per-page IsMapped loop would answer; skips whole spans under absent
  // PML4, PDPT and PD entries.
  bool AnyMapped(VirtAddr base, uint64_t pages) const;

  // Hardware-style walk: loads one entry per level from physical memory.
  // Returns nullopt-equivalent via ok()==false when a level is not present.
  StatusOr<WalkResult> Walk(VirtAddr virt) const;
  // The same loads without building a Status on a miss (TLB-miss paths that
  // probe unmapped pages): `present` says whether the walk translated, and
  // levels_touched counts the loads made either way. `pte` is the leaf
  // entry when the walk reached it, else 0.
  WalkResult Probe(VirtAddr virt) const;

  // Raw leaf-PTE access for fault injection and containment audits. Reads
  // and overwrites the leaf entry verbatim — including non-present entries —
  // with no validation of the resulting bits. Fails only when no leaf slot
  // exists (an intermediate level is absent).
  StatusOr<uint64_t> ReadPte(VirtAddr virt) const;
  Status WritePteRaw(VirtAddr virt, uint64_t pte);

  static bool PteWritable(uint64_t pte) { return (pte & kPteWritable) != 0; }
  static bool PteUser(uint64_t pte) { return (pte & kPteUser) != 0; }
  static bool PteNx(uint64_t pte) { return (pte & kPteNx) != 0; }
  static uint8_t PtePkey(uint64_t pte) {
    return static_cast<uint8_t>((pte & kPtePkeyMask) >> kPtePkeyShift);
  }

 private:
  // Returns the physical address of the leaf PTE slot for virt, creating
  // absent intermediate tables.
  PhysAddr PteSlot(VirtAddr virt);
  // The leaf PTE slot for virt without creating anything; 0 when an
  // intermediate level is absent.
  PhysAddr FindPteSlot(VirtAddr virt) const;

  static uint64_t IndexAt(VirtAddr virt, int level) {
    // level 3 = PML4, 2 = PDPT, 1 = PD, 0 = PT.
    return (virt >> (kPageShift + 9 * level)) & 0x1ff;
  }

  PhysicalMemory* pmem_;
  PhysAddr root_;
};

// Inline: every TLB miss walks, and Walk() wraps it.
inline WalkResult PageTable::Probe(VirtAddr virt) const {
  WalkResult result;
  PhysAddr table = root_;
  for (int level = 3; level >= 1; --level) {
    const uint64_t entry = pmem_->Read64(table + IndexAt(virt, level) * 8);
    ++result.levels_touched;
    if ((entry & kPtePresent) == 0) {
      return result;
    }
    table = entry & kPteFrameMask;
  }
  result.pte = pmem_->Read64(table + IndexAt(virt, 0) * 8);
  ++result.levels_touched;
  result.present = (result.pte & kPtePresent) != 0;
  if (result.present) {
    result.phys = (result.pte & kPteFrameMask) | PageOffset(virt);
  }
  return result;
}

}  // namespace memsentry::machine

#endif  // MEMSENTRY_SRC_MACHINE_PAGE_TABLE_H_
