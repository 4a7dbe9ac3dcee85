// Dune-style process-level virtualization (Belay et al., OSDI'12), as used by
// MemSentry for VMFUNC isolation (paper Section 5.1): a single process runs
// inside a small VM. The "hypervisor" here manages guest-physical memory and
// multiple EPT copies; MemSentry's added hypercall marks mappings private to
// one EPT so secret pages exist only in the sensitive EPT. All guest syscalls
// become hypercalls (the major source of Dune's residual overhead).
#ifndef MEMSENTRY_SRC_DUNE_DUNE_H_
#define MEMSENTRY_SRC_DUNE_DUNE_H_

#include <functional>
#include <unordered_map>

#include "src/base/status.h"
#include "src/base/types.h"
#include "src/machine/page_table.h"
#include "src/machine/phys_mem.h"
#include "src/vmx/ept.h"

namespace memsentry::dune {

// Hypercall numbers (the MemSentry-modified Dune ABI).
inline constexpr uint64_t kHcMarkPrivate = 1;  // a0 = gpa, a1 = pages, a2 = ept index
inline constexpr uint64_t kHcSyscall = 2;      // a0 = syscall nr, a1/a2 = args

using GuestSyscallHandler = std::function<uint64_t(uint64_t nr, uint64_t a0, uint64_t a1)>;

class DuneVm {
 public:
  explicit DuneVm(machine::PhysicalMemory* pmem);

  DuneVm(const DuneVm&) = delete;
  DuneVm& operator=(const DuneVm&) = delete;

  vmx::VmxContext& vmx() { return vmx_; }

  // Allocates one guest-physical frame backed by a fresh host frame and maps
  // it into every EPT (Dune fills EPTs on demand; we map eagerly — the guest
  // observes the same thing without modeling EPT-fault replay).
  StatusOr<GuestPhysAddr> AllocGuestFrame();

  // Maps `pages` consecutive guest-virtual pages from `base` in `guest`
  // (the process's guest page table), each backed by a fresh guest frame:
  // the same frames, EPT entries and guest PTEs, allocated in the same
  // order, as an AllocGuestFrame + guest Map loop, but with one frame-table
  // growth and one walk per leaf table in each EPT and in `guest`. The
  // caller checks that no page in the range is mapped.
  Status MapNewGuestRange(machine::PageTable& guest, VirtAddr base, uint64_t pages,
                          machine::PageFlags flags);

  // Creates an additional EPT pre-populated with all current *shared*
  // mappings. Returns its EPTP index.
  StatusOr<int> CreateEpt();

  // The MemSentry hypercall: restrict [gpa, gpa + pages) to `ept_index` only.
  // Frames are unmapped from every other EPT; future EPTs won't see them.
  Status MarkPrivate(GuestPhysAddr gpa, uint64_t pages, int ept_index);

  // Host-physical frame backing a guest frame (for the simulated kernel).
  StatusOr<PhysAddr> HostFrame(GuestPhysAddr gpa) const;

  void SetSyscallHandler(GuestSyscallHandler handler) { syscall_ = std::move(handler); }

  uint64_t hypercall_count() const { return hypercall_count_; }

 private:
  uint64_t HandleHypercall(uint64_t nr, uint64_t a0, uint64_t a1, uint64_t a2);

  struct GuestFrame {
    PhysAddr host = 0;
    int private_to = -1;  // -1 == shared across all EPTs
  };

  machine::PhysicalMemory* pmem_;
  vmx::VmxContext vmx_;
  std::unordered_map<uint64_t, GuestFrame> frames_;  // keyed by guest page number
  GuestPhysAddr next_gpa_ = kPageSize;               // guest-phys 0 stays unmapped
  GuestSyscallHandler syscall_;
  uint64_t hypercall_count_ = 0;
};

}  // namespace memsentry::dune

#endif  // MEMSENTRY_SRC_DUNE_DUNE_H_
