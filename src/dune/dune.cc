#include "src/dune/dune.h"

#include <vector>

namespace memsentry::dune {

DuneVm::DuneVm(machine::PhysicalMemory* pmem) : pmem_(pmem), vmx_(pmem) {
  // EPT 0 always exists: the default (nonsensitive) domain.
  auto ept0 = vmx_.CreateEpt();
  (void)ept0;
  vmx_.SetHypercallHandler([this](uint64_t nr, uint64_t a0, uint64_t a1, uint64_t a2) {
    return HandleHypercall(nr, a0, a1, a2);
  });
}

StatusOr<GuestPhysAddr> DuneVm::AllocGuestFrame() {
  MEMSENTRY_ASSIGN_OR_RETURN(PhysAddr host, pmem_->AllocFrame());
  const GuestPhysAddr gpa = next_gpa_;
  next_gpa_ += kPageSize;
  frames_[PageNumber(gpa)] = GuestFrame{.host = host, .private_to = -1};
  for (int i = 0; i < vmx_.ept_count(); ++i) {
    MEMSENTRY_RETURN_IF_ERROR(vmx_.ept(i).Map(gpa, host));
  }
  return gpa;
}

Status DuneVm::MapNewGuestRange(machine::PageTable& guest, VirtAddr base, uint64_t pages,
                                machine::PageFlags flags) {
  const int epts = vmx_.ept_count();
  // Data frames, plus about one leaf table per 512 pages (and the levels
  // above the first) in the guest table and in every EPT.
  pmem_->ReserveFrames(pages + static_cast<uint64_t>(epts + 1) * (pages / 512 + 4));
  std::vector<machine::PageTable::Cursor> ept_cursors(static_cast<size_t>(epts));
  machine::PageTable::Cursor guest_cursor;
  for (uint64_t p = 0; p < pages; ++p) {
    MEMSENTRY_ASSIGN_OR_RETURN(PhysAddr host, pmem_->AllocFrame());
    const GuestPhysAddr gpa = next_gpa_;
    next_gpa_ += kPageSize;
    frames_[PageNumber(gpa)] = GuestFrame{.host = host, .private_to = -1};
    for (int i = 0; i < epts; ++i) {
      MEMSENTRY_RETURN_IF_ERROR(
          vmx_.ept(i).MapNext(ept_cursors[static_cast<size_t>(i)], gpa, host));
    }
    MEMSENTRY_RETURN_IF_ERROR(guest.MapNext(guest_cursor, base + p * kPageSize, gpa, flags));
  }
  return OkStatus();
}

StatusOr<int> DuneVm::CreateEpt() {
  MEMSENTRY_ASSIGN_OR_RETURN(int index, vmx_.CreateEpt());
  machine::PageTable::Cursor cursor;
  for (const auto& [gpn, frame] : frames_) {
    if (frame.private_to == -1 || frame.private_to == index) {
      MEMSENTRY_RETURN_IF_ERROR(vmx_.ept(index).MapNext(cursor, gpn << kPageShift, frame.host));
    }
  }
  return index;
}

Status DuneVm::MarkPrivate(GuestPhysAddr gpa, uint64_t pages, int ept_index) {
  if (ept_index < 0 || ept_index >= vmx_.ept_count()) {
    return InvalidArgument("no such EPT");
  }
  for (uint64_t p = 0; p < pages; ++p) {
    const uint64_t gpn = PageNumber(gpa) + p;
    auto it = frames_.find(gpn);
    if (it == frames_.end()) {
      return NotFound("guest frame not allocated");
    }
    it->second.private_to = ept_index;
    for (int i = 0; i < vmx_.ept_count(); ++i) {
      if (i == ept_index) {
        continue;
      }
      // Unmap from the other EPTs; ignore "wasn't mapped" for idempotence.
      (void)vmx_.ept(i).Unmap(gpn << kPageShift);
    }
  }
  return OkStatus();
}

StatusOr<PhysAddr> DuneVm::HostFrame(GuestPhysAddr gpa) const {
  auto it = frames_.find(PageNumber(gpa));
  if (it == frames_.end()) {
    return NotFound("guest frame not allocated");
  }
  return it->second.host | PageOffset(gpa);
}

uint64_t DuneVm::HandleHypercall(uint64_t nr, uint64_t a0, uint64_t a1, uint64_t a2) {
  ++hypercall_count_;
  switch (nr) {
    case kHcMarkPrivate: {
      const Status status = MarkPrivate(a0, a1, static_cast<int>(a2));
      return status.ok() ? 0 : static_cast<uint64_t>(-1);
    }
    case kHcSyscall:
      if (syscall_) {
        return syscall_(a0, a1, a2);
      }
      return static_cast<uint64_t>(-1);
    default:
      return static_cast<uint64_t>(-1);
  }
}

}  // namespace memsentry::dune
