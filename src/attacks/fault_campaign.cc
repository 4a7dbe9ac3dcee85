#include "src/attacks/fault_campaign.h"

#include <cstdlib>
#include <cstring>

#include "src/aes/aes128.h"
#include "src/attacks/victim.h"
#include "src/core/advisor.h"
#include "src/mpx/mpx.h"

namespace memsentry::attacks {
namespace {

// What the probes observed, accumulated across the attacker primitives and
// the legitimate access path.
struct ProbeSignals {
  bool leaked = false;          // attacker read the secret plaintext
  bool corrupted = false;       // attacker landed a controlled write
  bool fault_observed = false;  // an architectural fault or clean refusal
  bool legit_wrong = false;     // legitimate path silently saw wrong data
  std::string note;
};

void Observe(ProbeSignals& signals, const std::string& note) {
  if (!signals.note.empty()) {
    signals.note += "; ";
  }
  signals.note += note;
}

// The program's own (uninstrumented-by-checks, properly gated) access to the
// safe region: opens the domain the way the technique's MakeDomainOpen
// sequence would, reads the secret, re-closes. A fault here is loud — the
// injected fault surfaced on the legitimate path. A silently wrong value is
// the worst outcome: the program computes with corrupted data.
void LegitProbe(core::TechniqueKind kind, sim::Process& process, sim::Kernel& kernel,
                sim::SafeRegion* region, sim::FaultSite site, ProbeSignals& signals) {
  machine::Mmu& mmu = process.mmu();
  Cycles cycles = 0;
  switch (kind) {
    case core::TechniqueKind::kSfi:
    case core::TechniqueKind::kMpx: {
      // Legit safe-region accesses are exempt from masking/bndcu; the raw
      // memory path is the model.
      auto value = process.Peek64(region->base);
      if (!value.ok()) {
        signals.fault_observed = true;
        Observe(signals, "legit access failed cleanly: " + value.status().ToString());
      } else if (value.value() != kSecret) {
        signals.legit_wrong = true;
        Observe(signals, "legit access silently read wrong data");
      }
      return;
    }
    case core::TechniqueKind::kMpk: {
      const uint32_t closed = process.regs().pkru.value;
      process.regs().pkru.value = mpk::kOpenPkru;
      auto read = mmu.Read64(region->base, process.regs().pkru, &cycles);
      if (!read.ok()) {
        signals.fault_observed = true;
        Observe(signals, "legit open-domain read faulted: " + read.fault().ToString());
      } else if (read.value() != kSecret) {
        signals.legit_wrong = true;
        Observe(signals, "legit open-domain read silently saw wrong data");
      } else if (site == sim::FaultSite::kPteWritableClear) {
        // The spurious write protection only surfaces on a write; store the
        // secret back (a value-preserving write) through the open domain.
        auto write = mmu.Write64(region->base, kSecret, process.regs().pkru, &cycles);
        if (!write.ok()) {
          signals.fault_observed = true;
          Observe(signals, "legit open-domain write faulted: " + write.fault().ToString());
        }
      }
      process.regs().pkru.value = closed;
      return;
    }
    case core::TechniqueKind::kVmfunc: {
      vmx::VmxContext& vmx = process.dune()->vmx();
      auto enter = vmx.VmFunc(0, region->ept_index);
      if (!enter.ok()) {
        signals.fault_observed = true;
        Observe(signals, "vmfunc to private EPT faulted");
        return;
      }
      auto read = mmu.Read64(region->base, process.regs().pkru, &cycles);
      if (!read.ok()) {
        signals.fault_observed = true;
        Observe(signals, "legit in-domain read faulted: " + read.fault().ToString());
      } else if (read.value() != kSecret) {
        signals.legit_wrong = true;
        Observe(signals, "legit in-domain read silently saw wrong data");
      }
      (void)vmx.VmFunc(0, 0);
      return;
    }
    case core::TechniqueKind::kCrypt: {
      std::vector<uint8_t> bytes(region->size);
      Status peeked = process.PeekBytes(region->base, bytes.data(), region->size);
      if (!peeked.ok()) {
        signals.fault_observed = true;
        Observe(signals, "legit ciphertext read failed cleanly: " + peeked.ToString());
        return;
      }
      aes::CryptRegion(bytes, region->enc_keys, region->nonce);
      uint64_t decrypted = 0;
      std::memcpy(&decrypted, bytes.data(), sizeof(decrypted));
      if (decrypted != kSecret) {
        signals.legit_wrong = true;
        Observe(signals, "legit decrypt silently produced wrong plaintext");
      }
      return;
    }
    case core::TechniqueKind::kMprotect: {
      const uint64_t opened = kernel.Dispatch(static_cast<uint64_t>(sim::Sysno::kMprotect),
                                              region->base, sim::kProtRw);
      if (sim::IsSysError(opened)) {
        // Fail-closed: the open syscall refused; the region stays sealed.
        signals.fault_observed = true;
        Observe(signals, std::string("legit mprotect open refused: ") +
                             sim::ErrnoName(sim::SysErrnoOf(opened)));
        return;
      }
      auto read = mmu.Read64(region->base, process.regs().pkru, &cycles);
      if (!read.ok()) {
        signals.fault_observed = true;
        Observe(signals, "legit opened read faulted: " + read.fault().ToString());
      } else if (read.value() != kSecret) {
        signals.legit_wrong = true;
        Observe(signals, "legit opened read silently saw wrong data");
      }
      (void)kernel.Dispatch(static_cast<uint64_t>(sim::Sysno::kMprotect), region->base,
                            sim::kProtNone);
      return;
    }
    case core::TechniqueKind::kSgx:
    case core::TechniqueKind::kInfoHide:
      return;  // no modeled legitimate in-process path to exercise here
  }
}

Containment Classify(const ProbeSignals& signals, int repairs, int quarantines,
                     int downgrades) {
  if (signals.leaked || signals.corrupted || signals.legit_wrong) {
    return Containment::kEscaped;
  }
  if (repairs > 0 || quarantines > 0 || downgrades > 0) {
    return Containment::kDegraded;
  }
  if (signals.fault_observed) {
    return Containment::kDetected;
  }
  // Nothing leaked, but nothing surfaced either: the fault vanished without
  // any signal. Conservatively an escape — every enumerated cell must have
  // an observable containment story.
  return Containment::kEscaped;
}

}  // namespace

const char* ContainmentName(Containment outcome) {
  switch (outcome) {
    case Containment::kDetected:
      return "detected";
    case Containment::kDegraded:
      return "degraded";
    case Containment::kEscaped:
      return "ESCAPED";
  }
  return "?";
}

std::vector<std::pair<core::TechniqueKind, sim::FaultSite>> FaultMatrixCells() {
  using K = core::TechniqueKind;
  using S = sim::FaultSite;
  return {
      {K::kSfi, S::kPtePresentClear},
      {K::kSfi, S::kSyscallMmapEnomem},
      {K::kMpx, S::kPtePresentClear},
      {K::kMpx, S::kBndRegisterClobber},
      {K::kMpx, S::kBndTableCorrupt},
      {K::kMpx, S::kSyscallMmapEnomem},
      {K::kMpk, S::kPtePresentClear},
      {K::kMpk, S::kPteWritableClear},
      {K::kMpk, S::kPtePkeyFlip},
      {K::kMpk, S::kTlbStaleEntry},
      {K::kMpk, S::kPkruDesync},
      {K::kMpk, S::kSyscallPkeyAllocExhausted},
      {K::kVmfunc, S::kPtePresentClear},
      {K::kVmfunc, S::kEptMappingDrop},
      {K::kVmfunc, S::kTlbStaleEntry},
      {K::kCrypt, S::kPtePresentClear},
      {K::kCrypt, S::kAesRoundKeyClobber},
      {K::kSgx, S::kPtePresentClear},
      {K::kMprotect, S::kPtePresentClear},
      {K::kMprotect, S::kTlbStaleEntry},
      {K::kMprotect, S::kSyscallMprotectEacces},
  };
}

FaultCellResult RunFaultCell(core::TechniqueKind kind, sim::FaultSite site,
                             const FaultCampaignOptions& options) {
  FaultCellResult cell;
  cell.technique = kind;
  cell.site = site;
  cell.cell_seed = VictimSeed(options.seed, kind, sim::FaultSiteName(site));

  // The MPK key-exhaustion cell is the fallback-chain scenario: sixteen
  // regions against fifteen usable keys, with the advisor's default chain
  // configured. Every other cell runs the technique strictly.
  const bool exhaustion_cell = kind == core::TechniqueKind::kMpk &&
                               site == sim::FaultSite::kSyscallPkeyAllocExhausted;
  Victim victim(kind, exhaustion_cell ? core::DefaultFallbackChain(kind)
                                      : std::vector<core::TechniqueKind>{});
  sim::Process& process = victim.process();
  sim::Kernel& kernel = victim.kernel();
  core::MemSentry& memsentry = victim.memsentry();

  Status allocated = victim.AllocSecrets(options.region_bytes, exhaustion_cell ? 16 : 1);
  if (!allocated.ok()) {
    cell.detail = "setup failed: " + allocated.ToString();
    return cell;  // outcome stays kEscaped: a broken cell must be loud
  }

  sim::FaultInjector injector(&process, cell.cell_seed);
  injector.SetKernel(&kernel);

  if (exhaustion_cell) {
    // Arm the kernel-side exhaustion too (pkey_alloc -> ENOSPC from now on);
    // the in-process allocator exhausts on its own from the 16 regions.
    auto injected = injector.Inject(site);
    if (!injected.ok()) {
      cell.detail = "injection failed: " + injected.status().ToString();
      return cell;
    }
    cell.detail = injected.value().detail;
  }

  Status prepared = victim.Prepare();
  if (!prepared.ok()) {
    cell.detail = "prepare failed: " + prepared.ToString();
    return cell;
  }
  cell.downgrades = static_cast<int>(memsentry.downgrades().size());

  if (!exhaustion_cell) {
    auto injected = injector.Inject(site);
    if (!injected.ok()) {
      cell.detail = "injection failed: " + injected.status().ToString();
      return cell;
    }
    cell.detail = injected.value().detail;
  }

  // Crash-bundle hook: die right after injection. The crash handler writes
  // the bundle from the staged context, whose replay spec reproduces this
  // exact abort.
  const std::string cell_label =
      std::string(core::TechniqueKindName(kind)) + "/" + sim::FaultSiteName(site);
  if (options.force_crash == cell_label) {
    std::abort();
  }

  // Containment audit at the closed-domain checkpoint (unless the test-only
  // escape hook disabled it).
  if (!options.skip_containment_audit) {
    victim.Audit(cell.repairs, cell.quarantines);
  }

  // The bound-table corruption targets the reload path: model the legacy
  // branch that resets bnd0 and the next check's table reload, exactly as
  // the executor does.
  if (site == sim::FaultSite::kBndTableCorrupt) {
    mpx::OnLegacyBranch(process.regs());
    if (process.regs().bnd[0].upper == ~uint64_t{0} && process.bnd_reload(0).has_value()) {
      process.regs().bnd[0] = *process.bnd_reload(0);
    }
  }

  ProbeSignals signals;
  core::Technique& technique = memsentry.technique();
  sim::SafeRegion* region = victim.region();
  const VirtAddr target = region->base;

  // Attacker read primitive.
  auto read = technique.AttackerRead(process, target);
  if (!read.ok()) {
    signals.fault_observed = true;
    Observe(signals, "attacker read: " + read.fault().ToString());
  } else if (read.value() == kSecret) {
    signals.leaked = true;
    Observe(signals, "attacker read the secret plaintext");
  }

  // Syscall-refusal cells: drive the program-visible call the armed failure
  // targets and require a clean errno (then a successful retry, proving the
  // process survived the refusal).
  if (site == sim::FaultSite::kSyscallMmapEnomem) {
    const uint64_t nr = static_cast<uint64_t>(sim::Sysno::kMmap);
    const uint64_t first = kernel.Dispatch(nr, 0, 4 * kPageSize);
    if (!sim::IsSysError(first)) {
      signals.legit_wrong = true;
      Observe(signals, "armed mmap failure did not fire");
    } else {
      signals.fault_observed = true;
      Observe(signals, std::string("mmap refused cleanly: ") +
                           sim::ErrnoName(sim::SysErrnoOf(first)));
      const uint64_t retry = kernel.Dispatch(nr, 0, 4 * kPageSize);
      if (sim::IsSysError(retry)) {
        signals.legit_wrong = true;
        Observe(signals, "mmap retry after refusal failed too");
      }
    }
  }

  // Legitimate access path, before the attacker write probe (a garbling
  // write to ciphertext must not be misread as legit-path corruption). A
  // quarantined region has no trustworthy legitimate path by design.
  if (cell.quarantines == 0) {
    LegitProbe(memsentry.active_technique(), process, kernel, region, site, signals);
  } else {
    Observe(signals, "region quarantined; legit path not exercised");
  }

  // Attacker write primitive, with ground truth through raw memory.
  constexpr uint64_t kWritten = 0xdeadULL;
  auto write = technique.AttackerWrite(process, target, kWritten);
  if (!write.ok()) {
    signals.fault_observed = true;
    Observe(signals, "attacker write: " + write.fault().ToString());
  } else {
    switch (victim.JudgeWrite(target, kWritten)) {
      case WriteVerdict::kDecrypted:
        signals.corrupted = true;
        Observe(signals, "attacker write decrypted to the attacker's value");
        break;
      case WriteVerdict::kLanded:
        signals.corrupted = true;
        Observe(signals, "attacker write landed in the safe region");
        break;
      case WriteVerdict::kMissed:
      case WriteVerdict::kGarbled:
        break;
    }
  }

  cell.outcome = Classify(signals, cell.repairs, cell.quarantines, cell.downgrades);
  if (!signals.note.empty()) {
    cell.detail += " | " + signals.note;
  }
  return cell;
}

FaultCampaignResult RunFaultCampaign(const FaultCampaignOptions& options) {
  FaultCampaignResult result;
  for (const auto& [kind, site] : FaultMatrixCells()) {
    FaultCellResult cell = RunFaultCell(kind, site, options);
    switch (cell.outcome) {
      case Containment::kDetected:
        ++result.detected;
        break;
      case Containment::kDegraded:
        ++result.degraded;
        break;
      case Containment::kEscaped:
        ++result.escaped;
        break;
    }
    result.repairs += cell.repairs;
    result.downgrades += cell.downgrades;
    result.cells.push_back(std::move(cell));
  }
  return result;
}

}  // namespace memsentry::attacks
