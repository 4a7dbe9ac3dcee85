#include "src/machine/page_table.h"

#include <algorithm>
#include <cassert>

namespace memsentry::machine {
namespace {

uint64_t MakePte(PhysAddr phys, PageFlags flags) {
  uint64_t pte = (phys & kPteFrameMask) | kPtePresent;
  if (flags.writable) {
    pte |= kPteWritable;
  }
  if (flags.user) {
    pte |= kPteUser;
  }
  if (!flags.executable) {
    pte |= kPteNx;
  }
  pte |= (uint64_t{flags.pkey} << kPtePkeyShift) & kPtePkeyMask;
  return pte;
}

}  // namespace

PageTable::PageTable(PhysicalMemory* pmem) : pmem_(pmem) {
  auto root = pmem_->AllocFrame();
  assert(root.ok() && "cannot allocate PML4");
  root_ = root.value();
}

PhysAddr PageTable::PteSlot(VirtAddr virt) {
  PhysAddr table = root_;
  for (int level = 3; level >= 1; --level) {
    const PhysAddr slot = table + IndexAt(virt, level) * 8;
    uint64_t entry = pmem_->Read64(slot);
    if ((entry & kPtePresent) == 0) {
      auto frame = pmem_->AllocFrame();
      assert(frame.ok() && "cannot allocate page-table level");
      // Intermediate entries are maximally permissive; leaves carry policy.
      entry = (frame.value() & kPteFrameMask) | kPtePresent | kPteWritable | kPteUser;
      pmem_->Write64(slot, entry);
    }
    table = entry & kPteFrameMask;
  }
  return table + IndexAt(virt, 0) * 8;
}

Status PageTable::Map(VirtAddr virt, PhysAddr phys, PageFlags flags) {
  Cursor cursor;
  return MapNext(cursor, virt, phys, flags);
}

Status PageTable::MapNext(Cursor& cursor, VirtAddr virt, PhysAddr phys, PageFlags flags) {
  if (PageOffset(virt) != 0 || PageOffset(phys) != 0) {
    return InvalidArgument("Map requires page-aligned addresses");
  }
  // One leaf table maps what one PD entry spans. Only a page outside the
  // cursor's span can need new levels, so walking just for those allocates
  // the same levels, in the same order, as walking for every page.
  const VirtAddr span = virt & ~((uint64_t{1} << (kPageShift + 9)) - 1);
  if (span != cursor.span) {
    cursor = Cursor{.span = span, .leaf_table = PteSlot(virt) - IndexAt(virt, 0) * 8};
  }
  const PhysAddr slot = cursor.leaf_table + IndexAt(virt, 0) * 8;
  if ((pmem_->Read64(slot) & kPtePresent) != 0) {
    return AlreadyExists("virtual page already mapped");
  }
  pmem_->Write64(slot, MakePte(phys, flags));
  return OkStatus();
}

StatusOr<PhysAddr> PageTable::MapNew(VirtAddr virt, PageFlags flags) {
  MEMSENTRY_ASSIGN_OR_RETURN(PhysAddr frame, pmem_->AllocFrame());
  MEMSENTRY_RETURN_IF_ERROR(Map(virt, frame, flags));
  return frame;
}

Status PageTable::MapNewRange(VirtAddr base, uint64_t pages, PageFlags flags) {
  if (PageOffset(base) != 0) {
    return InvalidArgument("Map requires page-aligned addresses");
  }
  // Data frames plus at most one leaf table per 512 pages and the levels
  // above the first and last.
  pmem_->ReserveFrames(pages + pages / 512 + 4);
  Cursor cursor;
  for (uint64_t p = 0; p < pages; ++p) {
    MEMSENTRY_ASSIGN_OR_RETURN(PhysAddr frame, pmem_->AllocFrame());
    MEMSENTRY_RETURN_IF_ERROR(MapNext(cursor, base + p * kPageSize, frame, flags));
  }
  return OkStatus();
}

Status PageTable::Unmap(VirtAddr virt) {
  const PhysAddr slot = FindPteSlot(virt);
  if (slot == 0 || (pmem_->Read64(slot) & kPtePresent) == 0) {
    return NotFound("virtual page not mapped");
  }
  pmem_->Write64(slot, 0);
  return OkStatus();
}

Status PageTable::Protect(VirtAddr virt, PageFlags flags) {
  const PhysAddr slot = FindPteSlot(virt);
  if (slot == 0) {
    return NotFound("virtual page not mapped");
  }
  const uint64_t old = pmem_->Read64(slot);
  if ((old & kPtePresent) == 0) {
    return NotFound("virtual page not mapped");
  }
  pmem_->Write64(slot, MakePte(old & kPteFrameMask, flags));
  return OkStatus();
}

Status PageTable::SetKey(VirtAddr virt, uint8_t pkey) {
  if (pkey >= 16) {
    return InvalidArgument("protection key must be 0..15");
  }
  const PhysAddr slot = FindPteSlot(virt);
  if (slot == 0) {
    return NotFound("virtual page not mapped");
  }
  const uint64_t old = pmem_->Read64(slot);
  if ((old & kPtePresent) == 0) {
    return NotFound("virtual page not mapped");
  }
  pmem_->Write64(slot, (old & ~kPtePkeyMask) | ((uint64_t{pkey} << kPtePkeyShift) & kPtePkeyMask));
  return OkStatus();
}

PhysAddr PageTable::FindPteSlot(VirtAddr virt) const {
  PhysAddr table = root_;
  for (int level = 3; level >= 1; --level) {
    const uint64_t entry = pmem_->Read64(table + IndexAt(virt, level) * 8);
    if ((entry & kPtePresent) == 0) {
      return 0;
    }
    table = entry & kPteFrameMask;
  }
  return table + IndexAt(virt, 0) * 8;
}

StatusOr<uint64_t> PageTable::ReadPte(VirtAddr virt) const {
  const PhysAddr slot = FindPteSlot(virt);
  if (slot == 0) {
    return NotFound("no leaf PTE slot for virtual page");
  }
  return pmem_->Read64(slot);
}

Status PageTable::WritePteRaw(VirtAddr virt, uint64_t pte) {
  const PhysAddr slot = FindPteSlot(virt);
  if (slot == 0) {
    return NotFound("no leaf PTE slot for virtual page");
  }
  pmem_->Write64(slot, pte);
  return OkStatus();
}

bool PageTable::IsMapped(VirtAddr virt) const { return Probe(virt).present; }

bool PageTable::AnyMapped(VirtAddr base, uint64_t pages) const {
  const VirtAddr end = base + pages * kPageSize;
  VirtAddr virt = base;
  while (virt < end) {
    PhysAddr table = root_;
    int level = 3;
    for (; level >= 1; --level) {
      const uint64_t entry = pmem_->Read64(table + IndexAt(virt, level) * 8);
      if ((entry & kPtePresent) == 0) {
        break;
      }
      table = entry & kPteFrameMask;
    }
    // level 0: `table` is the leaf table covering virt, which spans what
    // one PD entry does; otherwise nothing under the absent level-`level`
    // entry is mapped. Either way, resume at the next span.
    const uint64_t span = uint64_t{1} << (kPageShift + 9 * std::max(level, 1));
    const VirtAddr span_end = std::min(end, (virt & ~(span - 1)) + span);
    if (level == 0) {
      for (; virt < span_end; virt += kPageSize) {
        if ((pmem_->Read64(table + IndexAt(virt, 0) * 8) & kPtePresent) != 0) {
          return true;
        }
      }
    }
    virt = span_end;
  }
  return false;
}

StatusOr<WalkResult> PageTable::Walk(VirtAddr virt) const {
  const WalkResult result = Probe(virt);
  if (!result.present) {
    if (result.levels_touched == 4) {
      return NotFound("leaf not present");
    }
    return NotFound("not present at level " + std::to_string(4 - result.levels_touched));
  }
  return result;
}

}  // namespace memsentry::machine
