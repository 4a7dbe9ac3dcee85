#include "src/sim/process.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace memsentry::sim {

Process::Process(Machine* machine)
    : machine_(machine), page_table_(&machine->pmem), mmu_(&machine->pmem, &machine->cost) {
  mmu_.SetPageTable(&page_table_);
  regs_[machine::Gpr::kRsp] = kStackTop;
}

Status Process::EnableDune() {
  if (dune_ != nullptr) {
    return FailedPrecondition("Dune already enabled");
  }
  dune_ = std::make_unique<dune::DuneVm>(&machine_->pmem);
  dune_->SetSyscallHandler(
      [this](uint64_t nr, uint64_t a0, uint64_t a1) { return DispatchSyscall(nr, a0, a1); });
  mmu_.SetSecondLevel(&dune_->vmx());
  return OkStatus();
}

Status Process::MapRange(VirtAddr base, uint64_t pages, machine::PageFlags flags) {
  if (PageOffset(base) != 0) {
    return InvalidArgument("MapRange requires a page-aligned base");
  }
  // All or nothing: a range overlapping a mapped page fails before any
  // frame is taken, leaving the page table, the frames and mappings() as
  // they were.
  if (page_table_.AnyMapped(base, pages)) {
    return AlreadyExists("virtual page already mapped");
  }
  if (dune_ != nullptr) {
    MEMSENTRY_RETURN_IF_ERROR(dune_->MapNewGuestRange(page_table_, base, pages, flags));
  } else {
    MEMSENTRY_RETURN_IF_ERROR(page_table_.MapNewRange(base, pages, flags));
  }
  mappings_.push_back(Mapping{base, pages});
  return OkStatus();
}

Status Process::Unmap(VirtAddr base, uint64_t pages) {
  for (uint64_t p = 0; p < pages; ++p) {
    MEMSENTRY_RETURN_IF_ERROR(page_table_.Unmap(base + p * kPageSize));
    mmu_.InvalidatePage(base + p * kPageSize);
  }
  for (auto it = mappings_.begin(); it != mappings_.end(); ++it) {
    if (it->base == base && it->pages == pages) {
      mappings_.erase(it);
      break;
    }
  }
  return OkStatus();
}

std::optional<VirtAddr> Process::FindFreeRun(VirtAddr lo, VirtAddr hi, uint64_t pages) const {
  // Collect mapped ranges overlapping [lo, hi), sorted by base.
  std::vector<Mapping> sorted;
  for (const Mapping& m : mappings_) {
    const VirtAddr end = m.base + m.pages * kPageSize;
    if (end > lo && m.base < hi) {
      sorted.push_back(m);
    }
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const Mapping& a, const Mapping& b) { return a.base < b.base; });
  VirtAddr cursor = lo;
  const uint64_t need = pages * kPageSize;
  for (const Mapping& m : sorted) {
    if (m.base > cursor && m.base - cursor >= need) {
      return cursor;
    }
    cursor = std::max(cursor, m.base + m.pages * kPageSize);
  }
  if (hi > cursor && hi - cursor >= need) {
    return cursor;
  }
  return std::nullopt;
}

Status Process::ReserveRange(VirtAddr base, uint64_t pages) {
  if (PageOffset(base) != 0) {
    return InvalidArgument("ReserveRange requires a page-aligned base");
  }
  mappings_.push_back(Mapping{base, pages});
  return OkStatus();
}

Status Process::ReleaseRange(VirtAddr base, uint64_t pages) {
  for (auto it = mappings_.begin(); it != mappings_.end(); ++it) {
    if (it->base == base && it->pages == pages) {
      mappings_.erase(it);
      return OkStatus();
    }
  }
  return NotFound("no such reservation");
}

Status Process::SetupStack(uint64_t pages) {
  return MapRange(kStackTop - pages * kPageSize, pages, machine::PageFlags::Data());
}

SafeRegion& Process::AddSafeRegion(const std::string& name, VirtAddr base, uint64_t size) {
  SafeRegion region;
  region.name = name;
  region.base = base;
  region.size = size;
  safe_regions_.push_back(std::move(region));
  SafeRegion* added = &safe_regions_.back();
  region_index_.insert(
      std::upper_bound(region_index_.begin(), region_index_.end(), added,
                       [](const SafeRegion* a, const SafeRegion* b) { return a->base < b->base; }),
      added);
  return *added;
}

SafeRegion* Process::LookupSafeRegion(VirtAddr va) const {
  // Accesses cluster (per-region instrumentation, AES sweeps over one
  // region), so the last hit answers most containing lookups without a
  // search.
  if (last_region_hit_ != nullptr && last_region_hit_->Contains(va)) {
    return last_region_hit_;
  }
  // The candidate is the region with the greatest base <= va; regions are
  // disjoint, so no other region can contain va.
  auto it = std::upper_bound(
      region_index_.begin(), region_index_.end(), va,
      [](VirtAddr addr, const SafeRegion* r) { return addr < r->base; });
  if (it == region_index_.begin()) {
    return nullptr;
  }
  SafeRegion* candidate = *std::prev(it);
  if (candidate->Contains(va)) {
    last_region_hit_ = candidate;
    return candidate;
  }
  return nullptr;
}

SafeRegion* Process::FindSafeRegion(VirtAddr base) { return LookupSafeRegion(base); }

StatusOr<PhysAddr> Process::TranslateRaw(VirtAddr va) const {
  auto walk = page_table_.Walk(va);
  if (!walk.ok()) {
    return walk.status();
  }
  PhysAddr addr = walk.value().phys;
  if (dune_ != nullptr) {
    // Under Dune the guest page table produces guest-physical addresses.
    MEMSENTRY_ASSIGN_OR_RETURN(addr, dune_->HostFrame(addr));
  }
  return addr;
}

StatusOr<uint64_t> Process::Peek64(VirtAddr va) const {
  MEMSENTRY_ASSIGN_OR_RETURN(PhysAddr phys, TranslateRaw(va));
  return machine_->pmem.Read64(phys);
}

Status Process::Poke64(VirtAddr va, uint64_t value) {
  MEMSENTRY_ASSIGN_OR_RETURN(PhysAddr phys, TranslateRaw(va));
  machine_->pmem.Write64(phys, value);
  return OkStatus();
}

Status Process::PokeBytes(VirtAddr va, const void* data, uint64_t size) {
  const uint8_t* src = static_cast<const uint8_t*>(data);
  while (size > 0) {
    const uint64_t chunk = std::min<uint64_t>(size, kPageSize - PageOffset(va));
    MEMSENTRY_ASSIGN_OR_RETURN(PhysAddr phys, TranslateRaw(va));
    machine_->pmem.WriteBytes(phys, src, chunk);
    va += chunk;
    src += chunk;
    size -= chunk;
  }
  return OkStatus();
}

Status Process::PeekBytes(VirtAddr va, void* out, uint64_t size) const {
  uint8_t* dst = static_cast<uint8_t*>(out);
  while (size > 0) {
    const uint64_t chunk = std::min<uint64_t>(size, kPageSize - PageOffset(va));
    MEMSENTRY_ASSIGN_OR_RETURN(PhysAddr phys, TranslateRaw(va));
    machine_->pmem.ReadBytes(phys, dst, chunk);
    va += chunk;
    dst += chunk;
    size -= chunk;
  }
  return OkStatus();
}

Status Process::CryptToggle(SafeRegion& region, uint64_t size, base::FastPathMode mode) {
  if (mode == base::FastPathMode::kOff) {
    std::vector<uint8_t> bytes(size);
    MEMSENTRY_RETURN_IF_ERROR(PeekBytes(region.base, bytes.data(), size));
    aes::CryptRegion(bytes, region.enc_keys, region.nonce);
    MEMSENTRY_RETURN_IF_ERROR(PokeBytes(region.base, bytes.data(), size));
    region.encrypted_now = !region.encrypted_now;
    return OkStatus();
  }
  for (VirtAddr va = region.base; va < region.base + size; va = PageAlignDown(va) + kPageSize) {
    MEMSENTRY_RETURN_IF_ERROR(TranslateRaw(va).status());
  }
  std::unique_ptr<CryptKeystream>& memo = region.keystream;
  if (memo == nullptr) {
    memo = std::make_unique<CryptKeystream>();
  }
  // Full comparisons, never a digest: a colliding schedule could only cost a
  // recompute, not a wrong byte.
  const bool same_keys = memo->nonce == region.nonce &&
                         std::memcmp(memo->keys.data(), region.enc_keys.data(),
                                     sizeof(aes::KeySchedule)) == 0;
  if (!same_keys || memo->bytes.size() < size) {
    // Sized to the longest toggle so far, so alternating partial and whole
    // toggles of one region share a single keystream.
    memo->bytes.assign(std::max<uint64_t>(size, memo->bytes.size()), 0);
    memo->keys = region.enc_keys;
    memo->nonce = region.nonce;
    aes::CryptRegion(memo->bytes, memo->keys, memo->nonce);  // XOR into zeros
  } else if (mode == base::FastPathMode::kCheck) {
    std::vector<uint8_t> fresh(size);
    aes::CryptRegion(fresh, region.enc_keys, region.nonce);
    if (std::memcmp(fresh.data(), memo->bytes.data(), size) != 0) {
      std::fprintf(stderr,
                   "memsentry: crypt keystream divergence in region %s (base=0x%llx size=%llu)\n",
                   region.name.c_str(), static_cast<unsigned long long>(region.base),
                   static_cast<unsigned long long>(size));
      std::abort();
    }
  }
  const uint8_t* keystream = memo->bytes.data();
  for (VirtAddr va = region.base, end = region.base + size; va < end;) {
    const uint64_t chunk = std::min<uint64_t>(end - va, kPageSize - PageOffset(va));
    const PhysAddr phys = TranslateRaw(va).value();
    machine_->pmem.XorBytes(phys, keystream, chunk);
    va += chunk;
    keystream += chunk;
  }
  region.encrypted_now = !region.encrypted_now;
  return OkStatus();
}

uint64_t Process::DispatchSyscall(uint64_t nr, uint64_t a0, uint64_t a1) {
  if (syscall_) {
    return syscall_(nr, a0, a1);
  }
  return 0;
}

}  // namespace memsentry::sim
