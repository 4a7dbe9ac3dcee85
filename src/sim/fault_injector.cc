#include "src/sim/fault_injector.h"

#include "src/machine/page_table.h"

namespace memsentry::sim {

const char* FaultSiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kPtePresentClear:
      return "pte-present-clear";
    case FaultSite::kPteWritableClear:
      return "pte-writable-clear";
    case FaultSite::kPtePkeyFlip:
      return "pte-pkey-flip";
    case FaultSite::kTlbStaleEntry:
      return "tlb-stale-entry";
    case FaultSite::kBndRegisterClobber:
      return "bnd-register-clobber";
    case FaultSite::kBndTableCorrupt:
      return "bnd-table-corrupt";
    case FaultSite::kPkruDesync:
      return "pkru-desync";
    case FaultSite::kEptMappingDrop:
      return "ept-mapping-drop";
    case FaultSite::kAesRoundKeyClobber:
      return "aes-round-key-clobber";
    case FaultSite::kSyscallMmapEnomem:
      return "syscall-mmap-enomem";
    case FaultSite::kSyscallPkeyAllocExhausted:
      return "syscall-pkey-alloc-exhausted";
    case FaultSite::kSyscallMprotectEacces:
      return "syscall-mprotect-eacces";
  }
  return "?";
}

SafeRegion* FaultInjector::PickRegion() {
  auto& regions = process_->safe_regions();
  if (regions.empty()) {
    return nullptr;
  }
  return &regions[rng_.Below(regions.size())];
}

VirtAddr FaultInjector::PickPage(const SafeRegion& region) {
  const uint64_t pages = PageAlignUp(region.size) >> kPageShift;
  return region.base + rng_.Below(pages == 0 ? 1 : pages) * kPageSize;
}

StatusOr<Injection> FaultInjector::Inject(FaultSite site) {
  StatusOr<Injection> result = [&]() -> StatusOr<Injection> {
    switch (site) {
      case FaultSite::kPtePresentClear:
      case FaultSite::kPteWritableClear:
      case FaultSite::kPtePkeyFlip:
        return CorruptPte(site);
      case FaultSite::kTlbStaleEntry:
        return InsertStaleTlbEntry();
      case FaultSite::kBndRegisterClobber:
      case FaultSite::kBndTableCorrupt:
        return ClobberBounds(site);
      case FaultSite::kPkruDesync:
        return DesyncPkru();
      case FaultSite::kEptMappingDrop:
        return DropEptMapping();
      case FaultSite::kAesRoundKeyClobber:
        return ClobberAesRoundKey();
      case FaultSite::kSyscallMmapEnomem:
      case FaultSite::kSyscallPkeyAllocExhausted:
      case FaultSite::kSyscallMprotectEacces:
        return ArmSyscallFailure(site);
    }
    return InvalidArgument("unknown fault site");
  }();
  if (result.ok()) {
    injections_.push_back(result.value());
  }
  return result;
}

StatusOr<Injection> FaultInjector::CorruptPte(FaultSite site) {
  SafeRegion* region = PickRegion();
  if (region == nullptr) {
    return FailedPrecondition("no safe region to corrupt");
  }
  const VirtAddr va = PickPage(*region);
  MEMSENTRY_ASSIGN_OR_RETURN(uint64_t pte, process_->page_table().ReadPte(va));
  uint64_t corrupted = pte;
  std::string detail;
  switch (site) {
    case FaultSite::kPtePresentClear:
      corrupted &= ~machine::kPtePresent;
      detail = "cleared P bit";
      break;
    case FaultSite::kPteWritableClear:
      corrupted &= ~machine::kPteWritable;
      detail = "cleared W bit";
      break;
    case FaultSite::kPtePkeyFlip: {
      const uint8_t old_key = machine::PageTable::PtePkey(pte);
      // A different key, uniform over the 15 others: flipping to an unused
      // key is the dangerous case (unused keys are open under closed PKRU).
      uint8_t new_key = static_cast<uint8_t>(rng_.Below(15));
      if (new_key >= old_key) {
        ++new_key;
      }
      corrupted = (pte & ~machine::kPtePkeyMask) |
                  ((uint64_t{new_key} << machine::kPtePkeyShift) & machine::kPtePkeyMask);
      detail = "pkey " + std::to_string(old_key) + " -> " + std::to_string(new_key);
      break;
    }
    default:
      return InvalidArgument("not a PTE site");
  }
  MEMSENTRY_RETURN_IF_ERROR(process_->page_table().WritePteRaw(va, corrupted));
  // The corruption is architecturally visible at once: stale-TLB masking is
  // its own site (kTlbStaleEntry), so keep the two failure modes separate.
  process_->mmu().InvalidatePage(va);
  return Injection{.site = site,
                   .address = va,
                   .before = pte,
                   .after = corrupted,
                   .detail = region->name + ": " + detail};
}

StatusOr<Injection> FaultInjector::InsertStaleTlbEntry() {
  SafeRegion* region = PickRegion();
  if (region == nullptr) {
    return FailedPrecondition("no safe region to corrupt");
  }
  const VirtAddr va = PickPage(*region);
  // The worst-case desync: a cached translation from before the technique
  // revoked access — host frame already resolved, user-reachable, writable,
  // default key. Inserted under the tag current translations use, so the
  // next access hits it without a walk (and without second-level checks).
  MEMSENTRY_ASSIGN_OR_RETURN(PhysAddr host, process_->TranslateRaw(va));
  const uint64_t stale = (host & machine::kPteFrameMask) | machine::kPtePresent |
                         machine::kPteWritable | machine::kPteUser;
  const uint16_t asid = process_->mmu().EffectiveAsid();
  process_->mmu().tlb().Insert(va, asid, stale);
  return Injection{.site = FaultSite::kTlbStaleEntry,
                   .address = va,
                   .before = 0,
                   .after = stale,
                   .detail = region->name + ": permissive entry under asid " +
                             std::to_string(asid)};
}

StatusOr<Injection> FaultInjector::ClobberBounds(FaultSite site) {
  machine::RegisterFile& regs = process_->regs();
  if (site == FaultSite::kBndRegisterClobber) {
    const uint64_t before = regs.bnd[0].upper;
    regs.bnd[0] = machine::BoundRegister{};  // INIT: [0, ~0], permit everything
    return Injection{.site = site,
                     .before = before,
                     .after = regs.bnd[0].upper,
                     .detail = "bnd0 reset to INIT"};
  }
  const auto& reload = process_->bnd_reload(0);
  const uint64_t before = reload.has_value() ? reload->upper : 0;
  process_->SetBndReload(0, machine::BoundRegister{});
  return Injection{.site = site,
                   .before = before,
                   .after = ~uint64_t{0},
                   .detail = "bound-table entry for bnd0 widened"};
}

StatusOr<Injection> FaultInjector::DesyncPkru() {
  const uint32_t before = process_->regs().pkru.value;
  process_->regs().pkru.value = 0;  // all keys open
  return Injection{.site = FaultSite::kPkruDesync,
                   .before = before,
                   .after = 0,
                   .detail = "PKRU forced all-open"};
}

StatusOr<Injection> FaultInjector::DropEptMapping() {
  if (!process_->dune_enabled()) {
    return FailedPrecondition("EPT drop needs a Dune process");
  }
  // Deterministic pick among regions actually private to a secondary EPT.
  std::vector<SafeRegion*> candidates;
  for (auto& region : process_->safe_regions()) {
    if (region.ept_index > 0) {
      candidates.push_back(&region);
    }
  }
  if (candidates.empty()) {
    return FailedPrecondition("no region is private to a secondary EPT");
  }
  SafeRegion* region = candidates[rng_.Below(candidates.size())];
  const VirtAddr va = PickPage(*region);
  auto walk = process_->page_table().Walk(va);
  if (!walk.ok()) {
    return FailedPrecondition("victim page not mapped");
  }
  const GuestPhysAddr gpa = walk.value().phys & ~kPageMask;
  MEMSENTRY_RETURN_IF_ERROR(process_->dune()->vmx().ept(region->ept_index).Unmap(gpa));
  process_->mmu().InvalidatePage(va);
  return Injection{.site = FaultSite::kEptMappingDrop,
                   .address = va,
                   .before = gpa,
                   .after = 0,
                   .detail = region->name + ": gpa dropped from EPT " +
                             std::to_string(region->ept_index)};
}

StatusOr<Injection> FaultInjector::ClobberAesRoundKey() {
  std::vector<SafeRegion*> candidates;
  for (auto& region : process_->safe_regions()) {
    if (region.crypt) {
      candidates.push_back(&region);
    }
  }
  if (candidates.empty()) {
    return FailedPrecondition("no encrypted region");
  }
  SafeRegion* region = candidates[rng_.Below(candidates.size())];
  const uint64_t round = rng_.Below(region->enc_keys.size());
  const uint64_t byte = rng_.Below(aes::kBlockSize);
  const uint8_t flip = static_cast<uint8_t>(1 + rng_.Below(255));  // never a no-op
  const uint8_t before = region->enc_keys[round][byte];
  region->enc_keys[round][byte] = static_cast<uint8_t>(before ^ flip);
  return Injection{.site = FaultSite::kAesRoundKeyClobber,
                   .address = region->base,
                   .before = before,
                   .after = region->enc_keys[round][byte],
                   .detail = region->name + ": round " + std::to_string(round) +
                             " byte " + std::to_string(byte)};
}

StatusOr<Injection> FaultInjector::ArmSyscallFailure(FaultSite site) {
  if (kernel_ == nullptr) {
    return FailedPrecondition("syscall sites need SetKernel()");
  }
  Sysno nr = Sysno::kMmap;
  Errno err = Errno::kENOMEM;
  int count = 1;
  std::string detail;
  switch (site) {
    case FaultSite::kSyscallMmapEnomem:
      nr = Sysno::kMmap;
      err = Errno::kENOMEM;
      detail = "next mmap fails ENOMEM";
      break;
    case FaultSite::kSyscallPkeyAllocExhausted:
      nr = Sysno::kPkeyAlloc;
      err = Errno::kENOSPC;
      count = 1 << 20;  // effectively permanent exhaustion
      detail = "pkey_alloc exhausted (ENOSPC)";
      break;
    case FaultSite::kSyscallMprotectEacces:
      nr = Sysno::kMprotect;
      err = Errno::kEACCES;
      detail = "next mprotect fails EACCES";
      break;
    default:
      return InvalidArgument("not a syscall site");
  }
  kernel_->InjectSyscallFailure(nr, err, count);
  return Injection{.site = site,
                   .address = static_cast<uint64_t>(nr),
                   .before = 0,
                   .after = static_cast<uint64_t>(err),
                   .detail = detail};
}

}  // namespace memsentry::sim
