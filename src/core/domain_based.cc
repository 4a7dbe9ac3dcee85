// Domain-based techniques: MPK, VMFUNC, crypt, SGX, plus the mprotect and
// information-hiding baselines. Domain-based isolation leaves program loads
// and stores untouched; instead, the safe region is inaccessible by default
// and instrumentation opens/closes the sensitive domain around annotated
// accesses (paper Section 3.1).
#include "src/base/rng.h"
#include "src/core/techniques_impl.h"
#include "src/mpk/mpk.h"

namespace memsentry::core::internal {
namespace {

ir::Instr Flagged(ir::Instr instr) {
  instr.flags |= ir::kFlagInstrumentation;
  return instr;
}

// PKRU value that closes every registered safe region (reads denied only in
// confidentiality modes; writes always denied).
uint32_t ClosedPkruFor(const sim::Process& process, ProtectMode mode) {
  machine::Pkru pkru{};
  for (const auto& region : process.safe_regions()) {
    if (region.pkey == 0) {
      continue;
    }
    pkru.SetWriteDisable(region.pkey, true);
    if (mode != ProtectMode::kWriteOnly) {
      pkru.SetAccessDisable(region.pkey, true);
    }
  }
  return pkru.value;
}

// FNV-1a over a region's expanded key schedule + nonce; stored in
// SafeRegion::enc_key_digest at Prepare so audits can detect round-key
// clobbering without keeping a plaintext copy of the key around.
uint64_t KeyScheduleDigest(const aes::KeySchedule& keys, uint64_t nonce) {
  uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](uint8_t byte) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  };
  for (const auto& round_key : keys) {
    for (uint8_t byte : round_key) {
      mix(byte);
    }
  }
  for (int i = 0; i < 8; ++i) {
    mix(static_cast<uint8_t>(nonce >> (8 * i)));
  }
  return h;
}

}  // namespace

// ---- MPK ----

TechniqueLimits MpkTechnique::limits() const {
  return TechniqueLimits{.max_domains = 16,
                         .granularity = kPageSize,
                         .hw_since_year = 2017,
                         .notes = "16 protection keys, 4 bits per PTE; unreleased at paper time"};
}

Status MpkTechnique::Prepare(sim::Process& process) {
  mpk::KeyAllocator keys;
  for (auto& region : process.safe_regions()) {
    MEMSENTRY_ASSIGN_OR_RETURN(uint8_t key, keys.Alloc());
    region.pkey = key;
    const uint64_t pages = PageAlignUp(region.size) >> kPageShift;
    MEMSENTRY_RETURN_IF_ERROR(mpk::TagRange(process.page_table(), region.base, pages, key));
    for (uint64_t p = 0; p < pages; ++p) {
      process.mmu().InvalidatePage(region.base + p * kPageSize);
    }
  }
  // Start closed (read+write denied; the instrumentation's open relaxes it).
  process.regs().pkru.value = ClosedPkruFor(process, ProtectMode::kReadWrite);
  return OkStatus();
}

std::vector<ir::Instr> MpkTechnique::MakeDomainOpen(const sim::Process&,
                                                    const InstrumentOptions&) const {
  return {Flagged(ir::Instr{.op = ir::Opcode::kWrpkru, .imm = mpk::kOpenPkru})};
}

std::vector<ir::Instr> MpkTechnique::MakeDomainClose(const sim::Process& process,
                                                     const InstrumentOptions& opts) const {
  return {Flagged(ir::Instr{.op = ir::Opcode::kWrpkru,
                            .imm = ClosedPkruFor(process, opts.mode)})};
}

std::vector<ProtectionAuditIssue> MpkTechnique::AuditProtection(sim::Process& process) {
  auto issues = Technique::AuditProtection(process);
  // Pages whose PTE pkey no longer matches the region's key are reachable
  // under any PKRU that leaves the flipped-to key open (unused keys are open
  // even in the closed state) — re-tag and shoot down the TLB entry.
  for (auto& region : process.safe_regions()) {
    if (region.pkey == 0) {
      continue;
    }
    const uint64_t pages = PageAlignUp(region.size) >> kPageShift;
    for (uint64_t p = 0; p < pages; ++p) {
      const VirtAddr va = region.base + p * kPageSize;
      auto walk = process.page_table().Walk(va);
      if (!walk.ok()) {
        continue;  // non-present pages fault architecturally; nothing to repair
      }
      if (machine::PageTable::PtePkey(walk.value().pte) != region.pkey) {
        const bool retagged = process.page_table().SetKey(va, region.pkey).ok();
        if (retagged) {
          process.mmu().InvalidatePage(va);
        }
        issues.push_back(ProtectionAuditIssue{
            .what = "PTE pkey mismatch on " + region.name + " page " + std::to_string(p),
            .repaired = retagged});
      }
    }
  }
  // PKRU must still carry the closed-state bits Prepare installed; a desync
  // between wrpkru and the region access (the ERIM gate problem) clears them.
  const uint32_t closed = ClosedPkruFor(process, ProtectMode::kReadWrite);
  if ((process.regs().pkru.value & closed) != closed) {
    process.regs().pkru.value |= closed;
    issues.push_back(ProtectionAuditIssue{
        .what = "PKRU desync: closed-state deny bits cleared", .repaired = true});
  }
  return issues;
}

// ---- VMFUNC ----

TechniqueLimits VmfuncTechnique::limits() const {
  return TechniqueLimits{.max_domains = 512,
                         .granularity = kPageSize,
                         .hw_since_year = 2013,
                         .notes = "EPTP list of 512; needs Dune or a modified hypervisor"};
}

Status VmfuncTechnique::Prepare(sim::Process& process) {
  if (!process.dune_enabled()) {
    return FailedPrecondition("VMFUNC isolation requires the process to run under Dune");
  }
  // One secondary EPT holds all shared mappings plus the secrets; the
  // default EPT 0 loses the secret frames via the mark-private hypercall.
  MEMSENTRY_ASSIGN_OR_RETURN(int secret_ept, process.dune()->CreateEpt());
  for (auto& region : process.safe_regions()) {
    region.ept_index = secret_ept;
    const uint64_t pages = PageAlignUp(region.size) >> kPageShift;
    for (uint64_t p = 0; p < pages; ++p) {
      const VirtAddr va = region.base + p * kPageSize;
      auto walk = process.page_table().Walk(va);
      if (!walk.ok()) {
        return NotFound("safe region page not mapped: " + region.name);
      }
      const GuestPhysAddr gpa = walk.value().phys & ~kPageMask;
      MEMSENTRY_RETURN_IF_ERROR(process.dune()->MarkPrivate(gpa, 1, secret_ept));
      process.mmu().InvalidatePage(va);
    }
  }
  return OkStatus();
}

std::vector<ir::Instr> VmfuncTechnique::MakeDomainOpen(const sim::Process& process,
                                                       const InstrumentOptions&) const {
  const int ept = process.safe_regions().empty() ? 1 : process.safe_regions()[0].ept_index;
  return {Flagged(ir::Instr{.op = ir::Opcode::kVmFunc, .imm = static_cast<uint64_t>(ept)})};
}

std::vector<ir::Instr> VmfuncTechnique::MakeDomainClose(const sim::Process&,
                                                        const InstrumentOptions&) const {
  return {Flagged(ir::Instr{.op = ir::Opcode::kVmFunc, .imm = 0})};
}

std::vector<ProtectionAuditIssue> VmfuncTechnique::AuditProtection(sim::Process& process) {
  auto issues = Technique::AuditProtection(process);
  if (!process.dune_enabled()) {
    return issues;
  }
  // Secret frames must not be mapped in the default EPT 0: a mapping that
  // leaked back (EPT corruption) makes the region readable without vmfunc.
  for (auto& region : process.safe_regions()) {
    if (region.ept_index <= 0) {
      continue;
    }
    const uint64_t pages = PageAlignUp(region.size) >> kPageShift;
    for (uint64_t p = 0; p < pages; ++p) {
      const VirtAddr va = region.base + p * kPageSize;
      auto walk = process.page_table().Walk(va);
      if (!walk.ok()) {
        continue;
      }
      const GuestPhysAddr gpa = walk.value().phys & ~kPageMask;
      if (process.dune()->vmx().ept(0).IsMapped(gpa)) {
        const bool restricted =
            process.dune()->MarkPrivate(gpa, 1, region.ept_index).ok();
        if (restricted) {
          process.mmu().InvalidatePage(va);
        }
        issues.push_back(ProtectionAuditIssue{
            .what = "secret frame of " + region.name + " leaked into EPT 0",
            .repaired = restricted});
      }
    }
  }
  return issues;
}

// ---- crypt (AES-NI) ----

TechniqueLimits CryptTechnique::limits() const {
  return TechniqueLimits{.max_domains = 0,  // unbounded: one key per domain
                         .granularity = 16,
                         .hw_since_year = 2010,
                         .notes = "AES-NI since Westmere; cost linear in region size"};
}

Status CryptTechnique::Prepare(sim::Process& process) {
  Rng rng(key_seed_);
  for (auto& region : process.safe_regions()) {
    if (region.crypt) {
      continue;  // already prepared; re-encrypting would decrypt (CTR toggle)
    }
    aes::Block key;
    for (auto& byte : key) {
      byte = static_cast<uint8_t>(rng.Next());
    }
    region.enc_keys = aes::ExpandKey(key);
    region.nonce = rng.Next();
    region.enc_key_digest = KeyScheduleDigest(region.enc_keys, region.nonce);
    region.crypt = true;
    // Encrypt at rest now; the data becomes ciphertext until a domain open.
    MEMSENTRY_RETURN_IF_ERROR(process.CryptToggle(region, region.size));
  }
  // Round keys are parked in ymm8..15 upper halves: reserve them, which taxes
  // vector-heavy code (Section 6.2).
  process.SetYmmReserved(true);
  return OkStatus();
}

std::vector<ir::Instr> CryptTechnique::MakeDomainOpen(const sim::Process& process,
                                                      const InstrumentOptions& opts) const {
  std::vector<ir::Instr> seq;
  for (const auto& region : process.safe_regions()) {
    seq.push_back(
        Flagged(ir::Instr{.op = ir::Opcode::kMovImm, .dst = machine::Gpr::kRax,
                          .imm = region.base}));
    seq.push_back(Flagged(ir::Instr{.op = ir::Opcode::kAesCryptRegion,
                                    .src = machine::Gpr::kRax,
                                    .imm = 0,  // whole region
                                    .target = opts.crypt_live_xmm}));
  }
  return seq;
}

std::vector<ir::Instr> CryptTechnique::MakeDomainClose(const sim::Process& process,
                                                       const InstrumentOptions& opts) const {
  // CTR keystream XOR is an involution: closing re-encrypts with the same op.
  return MakeDomainOpen(process, opts);
}

std::vector<ProtectionAuditIssue> CryptTechnique::AuditProtection(sim::Process& process) {
  auto issues = Technique::AuditProtection(process);
  for (auto& region : process.safe_regions()) {
    if (!region.crypt) {
      continue;
    }
    if (KeyScheduleDigest(region.enc_keys, region.nonce) != region.enc_key_digest) {
      // Clobbered round keys cannot be reconstructed; the ciphertext stays
      // unreadable (contained) but a domain open would produce garbage, so
      // the region is quarantined rather than repaired.
      if (!region.encrypted_now) {
        // Caught mid-open: the region holds (near-)plaintext that the
        // clobbered schedule cannot re-seal — a last-round key flip garbles
        // only one byte per block, so "garbage" re-encryption would still
        // leak almost everything. Quarantine must scrub the exposure.
        std::vector<uint8_t> zeros(region.size, 0);
        if (process.PokeBytes(region.base, zeros.data(), region.size).ok()) {
          region.encrypted_now = true;  // sealed; contents destroyed
        }
      }
      issues.push_back(ProtectionAuditIssue{
          .what = "AES round-key schedule clobbered for " + region.name +
                  "; region quarantined (ciphertext unrecoverable)",
          .repaired = false});
      continue;
    }
    if (!region.encrypted_now) {
      // Left decrypted at rest (missed close): re-encrypt with the intact key.
      const bool repaired = process.CryptToggle(region, region.size).ok();
      issues.push_back(ProtectionAuditIssue{
          .what = "region " + region.name + " found decrypted at rest",
          .repaired = repaired});
    }
  }
  return issues;
}

// ---- SGX ----

TechniqueLimits SgxTechnique::limits() const {
  return TechniqueLimits{.max_domains = 0,
                         .granularity = kPageSize,
                         .hw_since_year = 2015,
                         .notes = "fixed mappings after EINIT; 7664-cycle crossings"};
}

Status SgxTechnique::Prepare(sim::Process& process) {
  if (process.safe_regions().empty()) {
    return FailedPrecondition("SGX technique needs at least one safe region");
  }
  // Build one enclave spanning all safe regions (they are contiguous per the
  // allocator); accessor code is assumed extracted into the enclave.
  VirtAddr lo = ~VirtAddr{0};
  VirtAddr hi = 0;
  for (const auto& region : process.safe_regions()) {
    lo = std::min(lo, PageAlignDown(region.base));
    hi = std::max(hi, PageAlignUp(region.base + region.size));
  }
  auto enclave = std::make_unique<sgx::Enclave>(lo, PageNumber(hi - lo));
  for (const auto& region : process.safe_regions()) {
    const uint64_t pages = PageAlignUp(region.size) >> kPageShift;
    for (uint64_t p = 0; p < pages; ++p) {
      MEMSENTRY_RETURN_IF_ERROR(enclave->AddPage(PageAlignDown(region.base) + p * kPageSize));
    }
  }
  MEMSENTRY_RETURN_IF_ERROR(enclave->RegisterEntry(0, lo));
  MEMSENTRY_RETURN_IF_ERROR(enclave->Finalize());
  process.SetEnclave(std::move(enclave));
  return OkStatus();
}

std::vector<ir::Instr> SgxTechnique::MakeDomainOpen(const sim::Process&,
                                                    const InstrumentOptions&) const {
  return {Flagged(ir::Instr{.op = ir::Opcode::kEnclaveEnter, .imm = 0})};
}

std::vector<ir::Instr> SgxTechnique::MakeDomainClose(const sim::Process&,
                                                     const InstrumentOptions&) const {
  return {Flagged(ir::Instr{.op = ir::Opcode::kEnclaveExit})};
}

// ---- mprotect baseline ----

TechniqueLimits MprotectTechnique::limits() const {
  return TechniqueLimits{.max_domains = 0,
                         .granularity = kPageSize,
                         .hw_since_year = 0,
                         .notes = "POSIX baseline: 20-50x on switch-heavy workloads"};
}

Status MprotectTechnique::Prepare(sim::Process& process) {
  for (auto& region : process.safe_regions()) {
    machine::PageFlags closed = machine::PageFlags::Data();
    closed.user = false;
    const uint64_t pages = PageAlignUp(region.size) >> kPageShift;
    for (uint64_t p = 0; p < pages; ++p) {
      MEMSENTRY_RETURN_IF_ERROR(process.page_table().Protect(region.base + p * kPageSize, closed));
      process.mmu().InvalidatePage(region.base + p * kPageSize);
    }
    region.mprotected = true;
  }
  return OkStatus();
}

std::vector<ir::Instr> MprotectTechnique::MakeDomainOpen(const sim::Process&,
                                                         const InstrumentOptions&) const {
  return {Flagged(ir::Instr{.op = ir::Opcode::kMprotect, .imm = 1})};
}

std::vector<ir::Instr> MprotectTechnique::MakeDomainClose(const sim::Process&,
                                                          const InstrumentOptions&) const {
  return {Flagged(ir::Instr{.op = ir::Opcode::kMprotect, .imm = 0})};
}

std::vector<ProtectionAuditIssue> MprotectTechnique::AuditProtection(sim::Process& process) {
  auto issues = Technique::AuditProtection(process);
  // Closed regions must stay supervisor-only; a PTE user bit that came back
  // makes the page reachable without the open syscall.
  for (auto& region : process.safe_regions()) {
    if (!region.mprotected) {
      continue;
    }
    const uint64_t pages = PageAlignUp(region.size) >> kPageShift;
    for (uint64_t p = 0; p < pages; ++p) {
      const VirtAddr va = region.base + p * kPageSize;
      auto walk = process.page_table().Walk(va);
      if (!walk.ok() || !machine::PageTable::PteUser(walk.value().pte)) {
        continue;
      }
      machine::PageFlags closed = machine::PageFlags::Data();
      closed.user = false;
      closed.pkey = machine::PageTable::PtePkey(walk.value().pte);
      const bool reclosed = process.page_table().Protect(va, closed).ok();
      if (reclosed) {
        process.mmu().InvalidatePage(va);
      }
      issues.push_back(ProtectionAuditIssue{
          .what = "closed region " + region.name + " page " + std::to_string(p) +
                  " user-accessible",
          .repaired = reclosed});
    }
  }
  return issues;
}

// ---- information hiding baseline ----

TechniqueLimits InfoHideTechnique::limits() const {
  return TechniqueLimits{.max_domains = 0,
                         .granularity = kPageSize,
                         .hw_since_year = 0,
                         .notes = "probabilistic only: broken by allocation oracles et al."};
}

Status InfoHideTechnique::Prepare(sim::Process&) {
  // The whole point: nothing is enforced. Protection rests on the region's
  // randomized placement, handled by the allocator.
  return OkStatus();
}

}  // namespace memsentry::core::internal
