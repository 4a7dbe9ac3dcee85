#include "src/sim/kernel.h"

namespace memsentry::sim {
namespace {

// The kernel's mmap area sits between the heap and the stack.
inline constexpr VirtAddr kMmapBase = kMmapAreaBase;

}  // namespace

const char* ErrnoName(Errno err) {
  switch (err) {
    case Errno::kEPERM: return "EPERM";
    case Errno::kENOMEM: return "ENOMEM";
    case Errno::kEACCES: return "EACCES";
    case Errno::kEBUSY: return "EBUSY";
    case Errno::kEEXIST: return "EEXIST";
    case Errno::kEINVAL: return "EINVAL";
    case Errno::kENOSPC: return "ENOSPC";
    case Errno::kENOSYS: return "ENOSYS";
  }
  return "E?";
}

Kernel::Kernel(Process* process)
    : process_(process), mmap_cursor_(kMmapBase), brk_(kHeapBase) {}

void Kernel::Install() {
  process_->SetSyscallHandler(
      [this](uint64_t nr, uint64_t a0, uint64_t a1) { return Dispatch(nr, a0, a1); });
}

void Kernel::InjectSyscallFailure(Sysno nr, Errno err, int count) {
  if (count <= 0) {
    return;
  }
  armed_.push_back(ArmedFailure{static_cast<uint64_t>(nr), err, count});
}

bool Kernel::ConsumeInjected(uint64_t nr, Errno* err) {
  for (ArmedFailure& armed : armed_) {
    if (armed.nr == nr && armed.remaining > 0) {
      --armed.remaining;
      ++injected_failures_;
      *err = armed.err;
      return true;
    }
  }
  return false;
}

uint64_t Kernel::Dispatch(uint64_t nr, uint64_t a0, uint64_t a1) {
  ++total_syscalls_;
  if (current_asid_ >= asid_syscalls_.size()) {
    asid_syscalls_.resize(current_asid_ + 1, 0);
  }
  ++asid_syscalls_[current_asid_];
  Errno injected;
  if (ConsumeInjected(nr, &injected)) {
    return SysErr(injected);
  }
  // The mmap-policy layer vets memory-management calls before they mutate
  // anything; a refusal is indistinguishable from a kernel errno to the
  // caller (exactly how MapGuard's LD_PRELOAD interposition presents).
  if (policy_ != nullptr) {
    const Sysno sysno = static_cast<Sysno>(nr);
    if (sysno == Sysno::kMmap || sysno == Sysno::kMprotect || sysno == Sysno::kMunmap) {
      if (auto refused = policy_->FilterSyscall(sysno, a0, a1); refused.has_value()) {
        return SysErr(*refused);
      }
    }
  }
  switch (static_cast<Sysno>(nr)) {
    case Sysno::kNop:
      return 0;
    case Sysno::kWrite:
      write_sink_ += a0;
      return 8;
    case Sysno::kMmap:
      return DoMmap(a0, a1);
    case Sysno::kMprotect:
      return DoMprotect(a0, a1);
    case Sysno::kMunmap:
      return DoMunmap(a0, a1);
    case Sysno::kBrk:
      return DoBrk(a0);
    case Sysno::kPkeyMprotect:
      return DoPkeyMprotect(a0, a1);
    case Sysno::kPkeyAlloc: {
      auto key = keys_.Alloc();
      // Linux reports pkey exhaustion as ENOSPC (pkey_alloc(2)).
      return key.ok() ? key.value() : SysErr(Errno::kENOSPC);
    }
    case Sysno::kPkeyFree:
      return DoPkeyFree(static_cast<uint8_t>(a0));
  }
  return SysErr(Errno::kENOSYS);
}

uint64_t Kernel::DoMmap(VirtAddr hint, uint64_t length) {
  ++mmap_calls_;
  if (length == 0) {
    return SysErr(Errno::kEINVAL);
  }
  // Overflow / address-space guard before PageAlignUp can wrap: nothing
  // larger than the whole mmap area can ever succeed.
  if (length > kStackTop - kMmapBase) {
    return SysErr(Errno::kENOMEM);
  }
  const uint64_t pages = PageAlignUp(length) >> kPageShift;
  VirtAddr base;
  if (hint != 0) {
    if (PageOffset(hint) != 0) {
      return SysErr(Errno::kEINVAL);
    }
    base = hint;
  } else {
    // Policy-chosen randomized placement first (ASLR entropy enforcement);
    // the linear cursor is the no-policy fallback.
    std::optional<VirtAddr> run;
    if (policy_ != nullptr) {
      run = policy_->ChoosePlacement(pages);
    }
    if (!run.has_value()) {
      run = process_->FindFreeRun(mmap_cursor_, kStackTop, pages);
    }
    if (!run.has_value()) {
      return SysErr(Errno::kENOMEM);
    }
    base = *run;
  }
  const Status mapped = process_->MapRange(base, pages, machine::PageFlags::Data());
  if (!mapped.ok()) {
    return SysErr(mapped.code() == StatusCode::kAlreadyExists ? Errno::kEEXIST
                                                              : Errno::kENOMEM);
  }
  if (policy_ != nullptr) {
    policy_->OnMapped(base, pages);
  }
  return base;
}

uint64_t Kernel::DoMprotect(VirtAddr addr, uint64_t prot) {
  ++mprotect_calls_;
  if (PageOffset(addr) != 0) {
    return SysErr(Errno::kEINVAL);
  }
  machine::PageFlags flags = machine::PageFlags::Data();
  flags.user = prot != kProtNone;
  flags.writable = (prot & 2) != 0;
  flags.executable = (prot & kProtExec) != 0;
  // Keep the page's protection key (mprotect must not strip MPK tags).
  auto walk = process_->page_table().Walk(addr);
  if (!walk.ok()) {
    return SysErr(Errno::kENOMEM);  // unmapped range, as Linux reports it
  }
  flags.pkey = machine::PageTable::PtePkey(walk.value().pte);
  if (!process_->page_table().Protect(addr, flags).ok()) {
    return SysErr(Errno::kENOMEM);
  }
  process_->mmu().InvalidatePage(addr);  // the kernel's TLB shootdown
  return 0;
}

uint64_t Kernel::DoMunmap(VirtAddr addr, uint64_t length) {
  if (length == 0 || PageOffset(addr) != 0) {
    return SysErr(Errno::kEINVAL);
  }
  const uint64_t pages = PageAlignUp(length) >> kPageShift;
  // Validate first so a bad range (including a double-unmap, which Linux
  // tolerates but the simulator treats as a program bug) mutates nothing,
  // and account tagged pages back before their PTEs disappear.
  for (uint64_t p = 0; p < pages; ++p) {
    if (!process_->page_table().IsMapped(addr + p * kPageSize)) {
      return SysErr(Errno::kEINVAL);
    }
  }
  for (uint64_t p = 0; p < pages; ++p) {
    auto walk = process_->page_table().Walk(addr + p * kPageSize);
    if (walk.ok()) {
      const uint8_t key = machine::PageTable::PtePkey(walk.value().pte);
      if (tag_counts_[key] > 0) {
        --tag_counts_[key];
      }
    }
  }
  return process_->Unmap(addr, pages).ok() ? 0 : SysErr(Errno::kEINVAL);
}

uint64_t Kernel::DoBrk(VirtAddr new_brk) {
  if (new_brk == 0) {
    return brk_;
  }
  if (new_brk < brk_ || new_brk > kHeapBase + (uint64_t{1} << 32)) {
    return brk_;  // shrinking/unreasonable: report current break, like Linux
  }
  const VirtAddr old_end = PageAlignUp(brk_);
  const VirtAddr new_end = PageAlignUp(new_brk);
  if (new_end > old_end) {
    if (!process_->MapRange(old_end, (new_end - old_end) >> kPageShift,
                            machine::PageFlags::Data())
             .ok()) {
      return brk_;
    }
  }
  brk_ = new_brk;
  return brk_;
}

uint64_t Kernel::DoPkeyMprotect(VirtAddr addr, uint64_t packed) {
  const uint8_t key = static_cast<uint8_t>(packed & 0xff);
  const uint64_t pages = packed >> 8;
  if (PageOffset(addr) != 0 || key >= mpk::kNumKeys) {
    return SysErr(Errno::kEINVAL);
  }
  if (!keys_.InUse(key)) {
    return SysErr(Errno::kEINVAL);  // unallocated key
  }
  // Validate the whole range before tagging anything so a failure can't
  // leave a half-tagged region.
  for (uint64_t p = 0; p < pages; ++p) {
    if (!process_->page_table().IsMapped(addr + p * kPageSize)) {
      return SysErr(Errno::kENOMEM);
    }
  }
  // Move the per-key tag accounting from each page's old key to `key`.
  for (uint64_t p = 0; p < pages; ++p) {
    auto walk = process_->page_table().Walk(addr + p * kPageSize);
    if (walk.ok()) {
      const uint8_t old_key = machine::PageTable::PtePkey(walk.value().pte);
      if (old_key != key && tag_counts_[old_key] > 0) {
        --tag_counts_[old_key];
      }
      if (old_key != key) {
        ++tag_counts_[key];
      }
    }
  }
  if (!mpk::TagRange(process_->page_table(), addr, pages, key).ok()) {
    return SysErr(Errno::kENOMEM);
  }
  for (uint64_t p = 0; p < pages; ++p) {
    process_->mmu().InvalidatePage(addr + p * kPageSize);
  }
  return 0;
}

uint64_t Kernel::DoPkeyFree(uint8_t key) {
  if (!keys_.InUse(key) || key == 0) {
    return SysErr(Errno::kEINVAL);
  }
  if (tag_counts_[key] > 0) {
    // Freeing a key while pages still carry its tag would let a later
    // pkey_alloc silently inherit access to those pages.
    return SysErr(Errno::kEBUSY);
  }
  return keys_.Free(key).ok() ? 0 : SysErr(Errno::kEINVAL);
}

}  // namespace memsentry::sim
