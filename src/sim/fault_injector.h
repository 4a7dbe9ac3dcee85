// Deterministic fault-injection campaigns. The injector corrupts protection
// state at named sites — PTE bits, TLB entries, bound registers and tables,
// PKRU, EPT mappings, AES round keys, and kernel syscall results — choosing
// pages/bits/keys through the shared deterministic Rng, so a campaign with a
// fixed seed replays bit-for-bit. The containment verifier (src/eval) runs
// every technique under every applicable site and classifies the outcome.
#ifndef MEMSENTRY_SRC_SIM_FAULT_INJECTOR_H_
#define MEMSENTRY_SRC_SIM_FAULT_INJECTOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/base/status.h"
#include "src/base/types.h"
#include "src/sim/kernel.h"
#include "src/sim/process.h"

namespace memsentry::sim {

// Where a fault lands. Memory-state sites corrupt a deterministic page of a
// deterministic safe region; register sites corrupt thread state; syscall
// sites arm the kernel to fail the next dispatch of a call.
enum class FaultSite {
  kPtePresentClear = 0,    // leaf P bit cleared (lost mapping)
  kPteWritableClear,       // leaf W bit cleared (spurious write protection)
  kPtePkeyFlip,            // leaf pkey field flipped to another key
  kTlbStaleEntry,          // permissive pre-revocation translation re-inserted
  kBndRegisterClobber,     // bnd0 reset to INIT (permit everything)
  kBndTableCorrupt,        // in-memory bound-table entry widened
  kPkruDesync,             // PKRU forced all-open between gate and access
  kEptMappingDrop,         // secret frame unmapped from its private EPT
  kAesRoundKeyClobber,     // one byte of an expanded round key flipped
  kSyscallMmapEnomem,      // next mmap fails -ENOMEM
  kSyscallPkeyAllocExhausted,  // pkey_alloc fails -ENOSPC from now on
  kSyscallMprotectEacces,  // next mprotect fails -EACCES
};

inline constexpr int kNumFaultSites = 12;

const char* FaultSiteName(FaultSite site);

// Record of one performed injection, sufficient to audit or undo it.
struct Injection {
  FaultSite site;
  VirtAddr address = 0;  // page address for memory sites; 0 for others
  uint64_t before = 0;   // site-specific prior value (PTE, PKRU, bnd upper...)
  uint64_t after = 0;    // value written
  std::string detail;
};

class FaultInjector {
 public:
  FaultInjector(Process* process, uint64_t seed)
      : process_(process), rng_(seed), seed_(seed) {}

  // Kernel hookup is only needed for the kSyscall* sites.
  void SetKernel(Kernel* kernel) { kernel_ = kernel; }

  // Performs one injection. Fails with kFailedPrecondition when the site
  // does not apply to the process's current protection state (no crypt
  // region for kAesRoundKeyClobber, no Dune EPT for kEptMappingDrop, no
  // kernel for syscall sites, no safe region at all).
  StatusOr<Injection> Inject(FaultSite site);

  const std::vector<Injection>& injections() const { return injections_; }
  uint64_t seed() const { return seed_; }

 private:
  // Deterministic choice of victim region/page. Region picks are uniform
  // over the registry; page picks uniform over the region's pages.
  SafeRegion* PickRegion();
  VirtAddr PickPage(const SafeRegion& region);

  StatusOr<Injection> CorruptPte(FaultSite site);
  StatusOr<Injection> InsertStaleTlbEntry();
  StatusOr<Injection> ClobberBounds(FaultSite site);
  StatusOr<Injection> DesyncPkru();
  StatusOr<Injection> DropEptMapping();
  StatusOr<Injection> ClobberAesRoundKey();
  StatusOr<Injection> ArmSyscallFailure(FaultSite site);

  Process* process_;
  Kernel* kernel_ = nullptr;
  Rng rng_;
  uint64_t seed_;
  std::vector<Injection> injections_;
};

}  // namespace memsentry::sim

#endif  // MEMSENTRY_SRC_SIM_FAULT_INJECTOR_H_
