// The victim of the paper's threat model (Section 2.3): one process holding
// a secret in a safe region, attacked through an arbitrary read/write
// primitive. The attack matrix (harness.cc), the fault matrix
// (fault_campaign.cc) and the generated campaigns (campaign_gen.cc) all
// attack this one victim, so their outcomes compare like for like.
//
// Set-up order: a fresh machine and process (Dune enabled for VMFUNC), the
// stack, 16 working-set pages, an installed kernel and a MemSentry for the
// technique; then AllocSecrets. Callers add their own steps (arming a
// fault, attaching an mmap policy) before Prepare.
#ifndef MEMSENTRY_SRC_ATTACKS_VICTIM_H_
#define MEMSENTRY_SRC_ATTACKS_VICTIM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/core/memsentry.h"
#include "src/sim/kernel.h"
#include "src/sim/machine.h"
#include "src/sim/process.h"

namespace memsentry::attacks {

// The secret every victim region holds: recognizable in a leak report.
inline constexpr uint64_t kSecret = 0x5ec4e7c0de5ec4e7ULL;

// One victim's seed: `seed` mixed with an FNV-1a hash of
// "<TechniqueKindName>/<label>". Order-independent: a fault cell or a
// campaign run alone replays exactly as it does inside its whole matrix.
uint64_t VictimSeed(uint64_t seed, core::TechniqueKind kind, const std::string& label);

// What an attacker write did to the victim, by ground truth through raw
// memory.
enum class WriteVerdict {
  kMissed,     // outside every safe region, or the value is not there
  kLanded,     // the safe region holds the attacker's value at the address
  kDecrypted,  // a crypt region decrypts to the attacker's value there
  kGarbled,    // a crypt region's write changed ciphertext, not plaintext
};

class Victim {
 public:
  // `fallbacks` is the technique's fallback chain (empty: strict).
  explicit Victim(core::TechniqueKind kind,
                  std::vector<core::TechniqueKind> fallbacks = {});

  // Allocates `count` regions of `region_bytes` ("secret", "secret-1", ...)
  // and pokes kSecret into each. Returns the first allocation failure.
  Status AllocSecrets(uint64_t region_bytes, int count = 1);

  Status Prepare() { return memsentry_.PrepareRuntime(); }

  // The containment audit at a closed-domain checkpoint: adds the issues it
  // repaired and those it could only quarantine.
  void Audit(int& repairs, int& quarantines);

  // Judges an attacker write of `value` at `va` that the technique let
  // through. A write on a crypt region is decrypted at the written offset:
  // without the keystream it only garbles (weak integrity).
  WriteVerdict JudgeWrite(VirtAddr va, uint64_t value);

  sim::Process& process() { return process_; }
  sim::Kernel& kernel() { return kernel_; }
  core::MemSentry& memsentry() { return memsentry_; }
  core::Technique& technique() { return memsentry_.technique(); }
  // The first secret region; nullptr until AllocSecrets succeeded once.
  sim::SafeRegion* region() const { return regions_.empty() ? nullptr : regions_[0]; }

 private:
  sim::Machine machine_;
  sim::Process process_;
  sim::Kernel kernel_;
  core::MemSentry memsentry_;
  std::vector<sim::SafeRegion*> regions_;
};

}  // namespace memsentry::attacks

#endif  // MEMSENTRY_SRC_ATTACKS_VICTIM_H_
