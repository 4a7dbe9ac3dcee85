#include "src/sim/process.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/machine/snapshot.h"

namespace memsentry::sim {

namespace {
constexpr uint32_t kTagProcess = 0x50524F43;  // "PROC"
}  // namespace

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
  for (uint64_t p = 0; p < pages; ++p) {
    const VirtAddr va = base + p * kPageSize;
    if (dune_ != nullptr) {
      MEMSENTRY_ASSIGN_OR_RETURN(GuestPhysAddr gpa, dune_->AllocGuestFrame());
      MEMSENTRY_RETURN_IF_ERROR(page_table_.Map(va, gpa, flags));
    } else {
      MEMSENTRY_RETURN_IF_ERROR(page_table_.MapNew(va, flags).status());
    }
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

void Process::SaveState(machine::SnapshotWriter& w) const {
  w.PutTag(kTagProcess);
  // Digest of the cost model (all doubles, no padding): a snapshot priced
  // under one calibration must not silently continue under another.
  w.PutU64(machine::SnapshotDigest(&machine_->cost, sizeof(machine_->cost)));
  machine_->pmem.SaveState(w);
  page_table_.SaveState(w);
  mmu_.SaveState(w);
  machine::SaveRegisterFile(regs_, w);
  w.PutBool(ymm_reserved_);
  for (const auto& reload : bnd_reload_) {
    w.PutBool(reload.has_value());
    w.PutU64(reload.has_value() ? reload->lower : 0);
    w.PutU64(reload.has_value() ? reload->upper : 0);
  }
  w.PutU64(mappings_.size());
  for (const Mapping& m : mappings_) {
    w.PutU64(m.base);
    w.PutU64(m.pages);
  }
  w.PutBool(dune_ != nullptr);
  if (dune_ != nullptr) {
    dune_->SaveState(w);
  }
  w.PutBool(enclave_ != nullptr);
  if (enclave_ != nullptr) {
    enclave_->SaveState(w);
  }
  w.PutU64(safe_regions_.size());
  for (const SafeRegion& region : safe_regions_) {
    w.PutString(region.name);
    w.PutU64(region.base);
    w.PutU64(region.size);
    w.PutU8(region.pkey);
    w.PutI32(region.ept_index);
    w.PutBool(region.crypt);
    w.PutBool(region.encrypted_now);
    w.PutU64(region.nonce);
    w.PutBytes(region.enc_keys.data(), sizeof(aes::KeySchedule));
    w.PutU64(region.enc_key_digest);
    w.PutBool(region.mprotected);
  }
}

Status Process::LoadState(machine::SnapshotReader& r) {
  if (!r.ExpectTag(kTagProcess, "process")) {
    return r.status();
  }
  const uint64_t cost_digest = r.U64();
  MEMSENTRY_RETURN_IF_ERROR(r.status());
  if (cost_digest != machine::SnapshotDigest(&machine_->cost, sizeof(machine_->cost))) {
    return FailedPrecondition("snapshot was taken under a different cost model");
  }
  MEMSENTRY_RETURN_IF_ERROR(machine_->pmem.LoadState(r));
  MEMSENTRY_RETURN_IF_ERROR(page_table_.LoadState(r));
  MEMSENTRY_RETURN_IF_ERROR(mmu_.LoadState(r));
  MEMSENTRY_RETURN_IF_ERROR(machine::LoadRegisterFile(&regs_, r));
  ymm_reserved_ = r.Bool();
  for (auto& reload : bnd_reload_) {
    const bool has = r.Bool();
    machine::BoundRegister bounds;
    bounds.lower = r.U64();
    bounds.upper = r.U64();
    reload = has ? std::optional<machine::BoundRegister>(bounds) : std::nullopt;
  }
  const uint64_t mapping_count = r.U64();
  if (!r.FitCount(mapping_count, 16)) {
    return r.status();
  }
  std::vector<Mapping> mappings;
  mappings.reserve(mapping_count);
  for (uint64_t i = 0; i < mapping_count; ++i) {
    Mapping m;
    m.base = r.U64();
    m.pages = r.U64();
    mappings.push_back(m);
  }
  MEMSENTRY_RETURN_IF_ERROR(r.status());
  // Dune and the enclave hold structure (EPT radix trees, entry points) that
  // deterministic setup must have rebuilt before the restore; their presence
  // is a precondition, not something LoadState can conjure.
  const bool has_dune = r.Bool();
  MEMSENTRY_RETURN_IF_ERROR(r.status());
  if (has_dune != (dune_ != nullptr)) {
    return FailedPrecondition("snapshot Dune presence does not match the live process");
  }
  if (dune_ != nullptr) {
    MEMSENTRY_RETURN_IF_ERROR(dune_->LoadState(r));
  }
  const bool has_enclave = r.Bool();
  MEMSENTRY_RETURN_IF_ERROR(r.status());
  if (has_enclave != (enclave_ != nullptr)) {
    return FailedPrecondition("snapshot enclave presence does not match the live process");
  }
  if (enclave_ != nullptr) {
    MEMSENTRY_RETURN_IF_ERROR(enclave_->LoadState(r));
  }
  const uint64_t region_count = r.U64();
  if (!r.FitCount(region_count, 64)) {
    return r.status();
  }
  if (region_count < safe_regions_.size()) {
    return FailedPrecondition("snapshot has fewer safe regions than the live process");
  }
  // Overwrite live regions in place (handed-out SafeRegion* stay valid) and
  // append any the snapshot added after the live setup registered its own.
  for (uint64_t i = 0; i < region_count; ++i) {
    SafeRegion scratch;
    SafeRegion& region =
        i < safe_regions_.size() ? safe_regions_[i] : scratch;
    region.name = r.String();
    region.base = r.U64();
    region.size = r.U64();
    region.pkey = r.U8();
    region.ept_index = r.I32();
    region.crypt = r.Bool();
    region.encrypted_now = r.Bool();
    region.nonce = r.U64();
    r.Bytes(region.enc_keys.data(), sizeof(aes::KeySchedule));
    region.enc_key_digest = r.U64();
    region.mprotected = r.Bool();
    if (&region == &scratch) {
      AddSafeRegion(scratch.name, scratch.base, scratch.size) = std::move(scratch);
    }
  }
  MEMSENTRY_RETURN_IF_ERROR(r.status());
  mappings_ = std::move(mappings);
  // Rebuild the lookup index: bases may have moved with the restored state.
  region_index_.clear();
  for (SafeRegion& region : safe_regions_) {
    region_index_.push_back(&region);
  }
  std::sort(region_index_.begin(), region_index_.end(),
            [](const SafeRegion* a, const SafeRegion* b) { return a->base < b->base; });
  last_region_hit_ = nullptr;
  return OkStatus();
}

}  // namespace memsentry::sim
