#include "src/vmx/ept.h"

namespace memsentry::vmx {

namespace {

machine::PageFlags EptFlags(EptPerms perms) {
  machine::PageFlags flags;
  flags.writable = perms.write;
  flags.executable = perms.execute;
  flags.user = true;
  return flags;
}

}  // namespace

Status Ept::Map(GuestPhysAddr gpa, PhysAddr hpa, EptPerms perms) {
  return table_.Map(gpa, hpa, EptFlags(perms));
}

Status Ept::MapNext(machine::PageTable::Cursor& cursor, GuestPhysAddr gpa, PhysAddr hpa,
                    EptPerms perms) {
  return table_.MapNext(cursor, gpa, hpa, EptFlags(perms));
}

Status Ept::Unmap(GuestPhysAddr gpa) { return table_.Unmap(gpa); }

machine::FaultOr<PhysAddr> Ept::Translate(GuestPhysAddr gpa, machine::AccessType access) const {
  const machine::WalkResult walk = table_.Probe(gpa);
  if (!walk.present) {
    return machine::Fault{machine::FaultType::kEptViolation, gpa, access};
  }
  const uint64_t pte = walk.pte;
  if (access == machine::AccessType::kWrite && !machine::PageTable::PteWritable(pte)) {
    return machine::Fault{machine::FaultType::kEptViolation, gpa, access};
  }
  if (access == machine::AccessType::kExecute && machine::PageTable::PteNx(pte)) {
    return machine::Fault{machine::FaultType::kEptViolation, gpa, access};
  }
  return walk.phys;
}

StatusOr<int> VmxContext::CreateEpt() {
  if (static_cast<int>(epts_.size()) >= kMaxEptpEntries) {
    return ResourceExhausted("EPTP list full (512 entries)");
  }
  epts_.push_back(std::make_unique<Ept>(pmem_));
  return static_cast<int>(epts_.size()) - 1;
}

machine::FaultOr<bool> VmxContext::VmFunc(uint64_t leaf, uint64_t index) {
  // Only leaf 0 (EPTP switching) exists (paper Section 3.1).
  if (leaf != 0) {
    return machine::Fault{machine::FaultType::kVmExit, leaf, machine::AccessType::kExecute};
  }
  if (index >= epts_.size()) {
    return machine::Fault{machine::FaultType::kVmExit, index, machine::AccessType::kExecute};
  }
  active_ = static_cast<int>(index);
  SetAsidTag(static_cast<uint16_t>(active_ + 1));
  return true;
}

machine::FaultOr<uint64_t> VmxContext::VmCall(uint64_t nr, uint64_t a0, uint64_t a1,
                                              uint64_t a2) {
  if (!hypercall_) {
    return machine::Fault{machine::FaultType::kVmExit, nr, machine::AccessType::kExecute};
  }
  return hypercall_(nr, a0, a1, a2);
}

machine::FaultOr<PhysAddr> VmxContext::TranslateGuestPhys(GuestPhysAddr gpa,
                                                          machine::AccessType access) {
  if (epts_.empty()) {
    return machine::Fault{machine::FaultType::kEptViolation, gpa, access};
  }
  return epts_[static_cast<size_t>(active_)]->Translate(gpa, access);
}

}  // namespace memsentry::vmx
