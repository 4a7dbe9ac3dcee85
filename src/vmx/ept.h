// VT-x extended page tables. An EPT is a second radix translation —
// guest-physical to host-physical — built in simulated physical memory using
// the same 4-level structure as guest page tables. The VMFUNC isolation
// technique maintains two EPTs that differ only in whether the safe region's
// frames are mapped (paper Section 3.1/5.1).
#ifndef MEMSENTRY_SRC_VMX_EPT_H_
#define MEMSENTRY_SRC_VMX_EPT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/base/status.h"
#include "src/base/types.h"
#include "src/machine/fault.h"
#include "src/machine/mmu.h"
#include "src/machine/page_table.h"
#include "src/machine/phys_mem.h"

namespace memsentry::vmx {

// Read/write/execute permissions of an EPT mapping.
struct EptPerms {
  bool read = true;
  bool write = true;
  bool execute = true;
};

class Ept {
 public:
  explicit Ept(machine::PhysicalMemory* pmem) : table_(pmem) {}

  Status Map(GuestPhysAddr gpa, PhysAddr hpa, EptPerms perms = {});
  // Map for one frame of a run of mappings (see machine::PageTable::MapNext).
  Status MapNext(machine::PageTable::Cursor& cursor, GuestPhysAddr gpa, PhysAddr hpa,
                 EptPerms perms = {});
  Status Unmap(GuestPhysAddr gpa);
  bool IsMapped(GuestPhysAddr gpa) const { return table_.IsMapped(gpa); }

  machine::FaultOr<PhysAddr> Translate(GuestPhysAddr gpa, machine::AccessType access) const;

 private:
  // Reuses the page-table radix machinery; EPT entries have the same
  // frame/permission geometry (we encode X as !NX).
  machine::PageTable table_;
};

// The EPTP list programmed by the hypervisor: VMFUNC leaf 0 lets the guest
// switch among up to 512 entries without a VM exit.
inline constexpr int kMaxEptpEntries = 512;

// Hypercall (vmcall) handler: the "hypervisor" side. Returns a value in rax.
using HypercallHandler =
    std::function<uint64_t(uint64_t nr, uint64_t a0, uint64_t a1, uint64_t a2)>;

// The per-VCPU virtualization context. Implements the MMU's second-level
// translation hook, owns the EPTP list and dispatches VM functions.
class VmxContext : public machine::SecondLevelTranslation {
 public:
  explicit VmxContext(machine::PhysicalMemory* pmem) : pmem_(pmem) { SetAsidTag(1); }

  // Hypervisor-side: creates a new EPT, returns its EPTP-list index.
  StatusOr<int> CreateEpt();
  Ept& ept(int index) { return *epts_[static_cast<size_t>(index)]; }
  int ept_count() const { return static_cast<int>(epts_.size()); }
  int active_index() const { return active_; }

  // Guest-side vmfunc(leaf=0, index): switch the active EPT. Invalid leaves
  // or out-of-range indices cause a VM exit (fault), as on hardware.
  machine::FaultOr<bool> VmFunc(uint64_t leaf, uint64_t index);

  // Guest-side vmcall: exits to the registered hypervisor handler.
  machine::FaultOr<uint64_t> VmCall(uint64_t nr, uint64_t a0, uint64_t a1, uint64_t a2);
  void SetHypercallHandler(HypercallHandler handler) { hypercall_ = std::move(handler); }

  // machine::SecondLevelTranslation:
  machine::FaultOr<PhysAddr> TranslateGuestPhys(GuestPhysAddr gpa,
                                                machine::AccessType access) override;
  int ExtraWalkLevels() const override { return 4; }

 private:
  machine::PhysicalMemory* pmem_;
  std::vector<std::unique_ptr<Ept>> epts_;
  int active_ = 0;
  HypercallHandler hypercall_;
};

}  // namespace memsentry::vmx

#endif  // MEMSENTRY_SRC_VMX_EPT_H_
