#include "src/machine/mmu.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace memsentry::machine {

Mmu::Mmu(PhysicalMemory* pmem, const CostModel* cost) : pmem_(pmem), cost_(cost) {}

FaultOr<AccessResult> Mmu::AccessSlow(VirtAddr va, AccessType access, const Pkru& pkru,
                                      bool fill_grant) {
  ++stats_.accesses;
  assert(page_table_ != nullptr && "no active page table");

  if (va >= kAddressSpaceEnd) {
    ++stats_.faults;
    return Fault{FaultType::kNonCanonical, va, access};
  }

  AccessResult result;
  uint64_t pte = 0;
  const uint16_t asid = EffectiveAsid();
  Tlb::Entry* tlb_entry = tlb_.LookupEntry(va, asid);
  if (tlb_entry != nullptr) {
    pte = tlb_entry->pte;
  } else {
    result.tlb_hit = false;
    const WalkResult walk = page_table_->Probe(va);
    // Each walk level is a real memory touch priced through the data cache;
    // a miss is charged one level wherever the walk stopped.
    const int guest_levels = walk.present ? walk.levels_touched : 1;
    for (int i = 0; i < guest_levels; ++i) {
      // Page-table entries cluster, so model them as hitting near the root
      // frame; pricing uses the cache level the touch lands in.
      const CacheLevel level = dcache_.Access(page_table_->root() + static_cast<uint64_t>(i) * 64);
      result.cycles += cost_->MemLatency(level);
      ++stats_.walk_memory_touches;
    }
    if (!walk.present) {
      ++stats_.faults;
      return Fault{FaultType::kPageNotPresent, va, access};
    }
    pte = walk.pte;

    if (second_ != nullptr) {
      // Nested translation: the guest frame is guest-physical; run it through
      // the EPT and charge the extra walk levels.
      const GuestPhysAddr gpa = pte & kPteFrameMask;
      for (int i = 0; i < second_->ExtraWalkLevels(); ++i) {
        const CacheLevel level =
            dcache_.Access(page_table_->root() + 4096 + static_cast<uint64_t>(i) * 64);
        result.cycles += cost_->MemLatency(level);
        ++stats_.walk_memory_touches;
      }
      auto host = second_->TranslateGuestPhys(gpa, access);
      if (!host.ok()) {
        ++stats_.faults;
        // Report the *virtual* address: the guest defense/attacker reasons in
        // virtual space.
        Fault f = host.fault();
        f.address = va;
        return f;
      }
      pte = (pte & ~kPteFrameMask) | (host.value() & kPteFrameMask);
    }
    tlb_entry = tlb_.Insert(va, asid, pte);
  }

  // Permission checks run on every access, hit or miss.
  const bool user_page = PageTable::PteUser(pte);
  if (!user_page) {
    ++stats_.faults;
    return Fault{FaultType::kUserSupervisor, va, access};
  }
  switch (access) {
    case AccessType::kExecute:
      if (PageTable::PteNx(pte)) {
        ++stats_.faults;
        return Fault{FaultType::kNxViolation, va, access};
      }
      break;
    case AccessType::kWrite:
      if (!PageTable::PteWritable(pte)) {
        ++stats_.faults;
        return Fault{FaultType::kWriteProtection, va, access};
      }
      [[fallthrough]];
    case AccessType::kRead: {
      // MPK: protection keys gate data accesses to user pages (SDM 4.6.2).
      const uint8_t key = PageTable::PtePkey(pte);
      if (pkru.AccessDisabled(key)) {
        ++stats_.faults;
        return Fault{FaultType::kPkeyAccessDisabled, va, access};
      }
      if (access == AccessType::kWrite && pkru.WriteDisabled(key)) {
        ++stats_.faults;
        return Fault{FaultType::kPkeyWriteDisabled, va, access};
      }
      break;
    }
  }

  if (fill_grant) {
    // Mint the grant before pricing: the verdict is settled, and the TLB
    // version must be read *after* any Insert above (which bumped it).
    const uint64_t vpn = PageNumber(va);
    Grant& grant = grants_[GrantIndex(vpn, access)];
    grant.vpn = vpn;
    grant.pte = pte;
    grant.tlb_version = tlb_.version();
    grant.entry = tlb_entry;
    grant.pkru = pkru.value;
    grant.asid = asid;
    grant.access = static_cast<uint8_t>(access);
  }

  result.phys = (pte & kPteFrameMask) | PageOffset(va);
  result.level = dcache_.Access(result.phys);
  if (access == AccessType::kRead) {
    result.cycles += cost_->LoadCost(result.level);
  }
  // Stores: latency hidden by the store buffer; the line move was recorded.
  return result;
}

void Mmu::CheckGrant(const Grant& grant, VirtAddr va, AccessType access,
                     const Pkru& pkru) const {
  // Re-derive what the slow path would do on this access and abort on any
  // divergence: the grant must mirror the entry a first-match Lookup would
  // hit, with the same PTE, and the permission verdict must still be
  // "allowed" under the live PKRU.
  const Tlb::Entry* first = tlb_.PeekEntry(va, EffectiveAsid());
  const char* divergence = nullptr;
  if (first == nullptr) {
    divergence = "grant hit but the TLB has no matching entry";
  } else if (first != grant.entry) {
    divergence = "grant entry is not the first-match TLB entry";
  } else if (first->pte != grant.pte) {
    divergence = "grant PTE differs from the cached TLB PTE";
  } else if (!PageTable::PteUser(grant.pte)) {
    divergence = "grant PTE lost its user bit";
  } else if (access == AccessType::kExecute && PageTable::PteNx(grant.pte)) {
    divergence = "grant PTE gained NX";
  } else if (access == AccessType::kWrite && !PageTable::PteWritable(grant.pte)) {
    divergence = "grant PTE lost its writable bit";
  } else if (access != AccessType::kExecute) {
    const uint8_t key = PageTable::PtePkey(grant.pte);
    if (pkru.AccessDisabled(key) ||
        (access == AccessType::kWrite && pkru.WriteDisabled(key))) {
      divergence = "live PKRU now denies the granted access";
    }
  }
  if (divergence != nullptr) {
    std::fprintf(stderr,
                 "memsentry: MMU fast-path divergence: %s (va=0x%llx access=%d asid=%u "
                 "pkru=0x%x tlb_version=%llu)\n",
                 divergence, static_cast<unsigned long long>(va), static_cast<int>(access),
                 unsigned{grant.asid}, grant.pkru,
                 static_cast<unsigned long long>(grant.tlb_version));
    std::abort();
  }
}

// Both byte-transfer helpers split at page boundaries, so a multi-page copy
// performs exactly one Access() — one translation, one pricing — per page
// touched, regardless of total size. tests/mmu_bytes_test.cc pins the cycle
// counts of multi-page copies so this invariant cannot drift.
FaultOr<bool> Mmu::ReadBytes(VirtAddr va, void* out, uint64_t size, const Pkru& pkru,
                             Cycles* cycles) {
  uint8_t* dst = static_cast<uint8_t*>(out);
  while (size > 0) {
    const uint64_t chunk = std::min<uint64_t>(size, kPageSize - PageOffset(va));
    auto access = Access(va, AccessType::kRead, pkru);
    if (!access.ok()) {
      return access.fault();
    }
    if (cycles != nullptr) {
      *cycles += access.value().cycles;
    }
    pmem_->ReadBytes(access.value().phys, dst, chunk);
    va += chunk;
    dst += chunk;
    size -= chunk;
  }
  return true;
}

FaultOr<bool> Mmu::WriteBytes(VirtAddr va, const void* in, uint64_t size, const Pkru& pkru,
                              Cycles* cycles) {
  const uint8_t* src = static_cast<const uint8_t*>(in);
  while (size > 0) {
    const uint64_t chunk = std::min<uint64_t>(size, kPageSize - PageOffset(va));
    auto access = Access(va, AccessType::kWrite, pkru);
    if (!access.ok()) {
      return access.fault();
    }
    if (cycles != nullptr) {
      *cycles += access.value().cycles;
    }
    pmem_->WriteBytes(access.value().phys, src, chunk);
    va += chunk;
    src += chunk;
    size -= chunk;
  }
  return true;
}

}  // namespace memsentry::machine
