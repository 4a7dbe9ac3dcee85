// The Technique interface: one implementation per isolation mechanism
// (paper Sections 3.1/3.2). A technique knows how to
//   1. prepare a process's safe regions at runtime (tag pages, build EPTs,
//      encrypt, build an enclave, ...),
//   2. instrument a module (via core/instrument.h),
//   3. adjudicate an attacker's arbitrary read/write primitive, and
//   4. report its architectural limits (paper Table 3).
#ifndef MEMSENTRY_SRC_CORE_TECHNIQUE_H_
#define MEMSENTRY_SRC_CORE_TECHNIQUE_H_

#include <memory>
#include <string>

#include "src/base/status.h"
#include "src/base/types.h"
#include "src/ir/module.h"
#include "src/machine/fault.h"
#include "src/sim/process.h"

namespace memsentry::core {

enum class TechniqueKind {
  kSfi = 0,      // and-mask every access (address-based, software only)
  kMpx,          // single bndcu against bnd0 (address-based)
  kMpk,          // protection keys + wrpkru (domain-based)
  kVmfunc,       // EPT switching via VMFUNC under Dune (domain-based)
  kCrypt,        // AES-NI in-place encryption (domain-based)
  kSgx,          // enclave-hosted safe region (domain-based)
  kMprotect,     // mprotect() toggling: the slow POSIX baseline
  kInfoHide,     // probabilistic isolation: randomized placement only
};

inline constexpr int kNumTechniques = 8;

const char* TechniqueKindName(TechniqueKind kind);

enum class Category { kAddressBased, kDomainBased, kNone };

// What the protection must stop (paper Section 4): a shadow stack needs
// integrity only (writes), code randomization secrecy needs reads, private
// keys need both.
enum class ProtectMode { kWriteOnly, kReadOnly, kReadWrite };

// Architectural limits, paper Table 3.
struct TechniqueLimits {
  int max_domains = 0;          // 0 == unbounded
  uint64_t granularity = 1;     // minimum isolated-data granularity in bytes
  int hw_since_year = 0;        // first commodity CPU generation with support
  std::string notes;
};

// One finding of a containment audit (AuditProtection): what protection
// state was found corrupted and whether the audit repaired it in place.
// Unrepaired findings mean the region is contained but quarantined (e.g.
// clobbered AES round keys: the ciphertext is unrecoverable but unreadable).
struct ProtectionAuditIssue {
  std::string what;
  bool repaired = false;
};

struct InstrumentOptions {
  ProtectMode mode = ProtectMode::kReadWrite;
  // MPX ablation: check both bounds (the GCC-style usage the paper shows is
  // much slower) instead of MemSentry's single upper-bound check.
  bool mpx_double_bounds = false;
  // SFI ablation: rematerialize the mask before every access instead of
  // hoisting it to a register.
  bool sfi_rematerialize_mask = false;
  // crypt: how many live xmm registers each inlined AES sequence must spill.
  int crypt_live_xmm = 6;
};

class Technique {
 public:
  virtual ~Technique() = default;

  virtual TechniqueKind kind() const = 0;
  virtual Category category() const = 0;
  virtual TechniqueLimits limits() const = 0;

  // Runtime side: configures every safe region already registered on the
  // process. Must run after regions are allocated and before execution.
  virtual Status Prepare(sim::Process& process) = 0;

  // Instrumentation side (used by core/instrument.h). Address-based
  // techniques emit a per-access check sequence; domain-based techniques
  // emit open/close sequences around safe-access runs. Default
  // implementations return empty sequences. Each sequence must depend only
  // on its arguments: MemSentryPass builds it once per run and reuses it at
  // every instrumentation point.
  virtual std::vector<ir::Instr> MakeAccessCheck(machine::Gpr addr_reg, bool is_load,
                                                 const InstrumentOptions& opts) const;
  virtual std::vector<ir::Instr> MakeDomainOpen(const sim::Process& process,
                                                const InstrumentOptions& opts) const;
  virtual std::vector<ir::Instr> MakeDomainClose(const sim::Process& process,
                                                 const InstrumentOptions& opts) const;

  // The attacker holds an arbitrary read/write primitive inside the
  // (instrumented) vulnerable program; these apply the technique's semantics
  // to that primitive (paper Section 2.3 threat model).
  virtual machine::FaultOr<uint64_t> AttackerRead(sim::Process& process, VirtAddr va);
  virtual machine::FaultOr<bool> AttackerWrite(sim::Process& process, VirtAddr va,
                                               uint64_t value);

  // Containment audit: sweeps the process for corrupted protection state and
  // repairs what can be repaired, returning one issue per finding. Intended
  // to run at closed-domain checkpoints (the technique's Prepare-time state
  // is the reference; an audit while a domain is legitimately open would
  // re-close it). The base implementation is a TLB-coherence sweep over all
  // safe-region pages: any cached translation whose permission or pkey bits
  // disagree with the live page tables is invalidated — the desync vector
  // that otherwise lets pre-revocation TLB entries bypass MPK, VMFUNC and
  // mprotect (frame bits are exempt from the comparison because nested
  // translation caches host frames).
  virtual std::vector<ProtectionAuditIssue> AuditProtection(sim::Process& process);
};

std::unique_ptr<Technique> CreateTechnique(TechniqueKind kind);

}  // namespace memsentry::core

#endif  // MEMSENTRY_SRC_CORE_TECHNIQUE_H_
