// Fault-containment campaigns: runs every isolation technique under every
// applicable fault site (src/sim/fault_injector.h) and classifies how the
// fault was contained. The classification a cell may report:
//
//   kDetected — the fault surfaced as the correct architectural fault or a
//     clean errno-style refusal; nothing leaked, nothing silently wrong.
//   kDegraded — the containment audit repaired or quarantined corrupted
//     protection state, or the technique downgraded along its fallback
//     chain; protection held, with a logged and countable cost.
//   kEscaped — the attacker read the secret, achieved a controlled write,
//     or the program's own legitimate path silently computed with wrong
//     data. Always a failure: the fault_matrix workload pins every cell and the
//     total escape count at zero in the regression baseline.
//
// Campaigns are deterministic: each (technique, site) cell derives its RNG
// seed from the campaign seed and the cell's names alone, so a cell replays
// bit-for-bit regardless of execution order or matrix composition.
#ifndef MEMSENTRY_SRC_EVAL_FAULT_CAMPAIGN_H_
#define MEMSENTRY_SRC_EVAL_FAULT_CAMPAIGN_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/core/technique.h"
#include "src/sim/fault_injector.h"

namespace memsentry::eval {

enum class Containment {
  kDetected = 0,
  kDegraded = 1,
  kEscaped = 2,
};

const char* ContainmentName(Containment outcome);

struct FaultCellResult {
  core::TechniqueKind technique;
  sim::FaultSite site;
  Containment outcome = Containment::kEscaped;
  uint64_t cell_seed = 0;
  int repairs = 0;      // audit issues repaired in place
  int quarantines = 0;  // audit issues contained but not repairable
  int downgrades = 0;   // fallback-chain steps taken by PrepareRuntime
  std::string detail;
};

struct FaultCampaignOptions {
  uint64_t seed = 0xfa017ca3ULL;
  uint64_t region_bytes = 4096;
  // Test-only escape hook: skip the containment audit between injection and
  // probe. This reproduces exactly the desync escapes the audit exists to
  // stop, and lets the tests prove that an escape fails the regression gate.
  bool skip_containment_audit = false;
  // Crash-bundle hook: when set to "<TechniqueKindName>/<FaultSiteName>",
  // the matching cell aborts right after injection, and the crash handler
  // writes a bundle from the staged context. Deterministic by construction
  // (same seed, same cell, same abort point), so `memsentry_cli replay` on
  // the resulting bundle reproduces the identical failure.
  std::string force_crash;
};

struct FaultCampaignResult {
  std::vector<FaultCellResult> cells;
  int detected = 0;
  int degraded = 0;
  int escaped = 0;
  int repairs = 0;
  int downgrades = 0;
};

// The (technique, site) cells the standard campaign runs: every technique
// under the lost-mapping fault, plus each technique's own corruption modes
// (bounds for MPX, pkey/PKRU/TLB for MPK, EPT/TLB for VMFUNC, round keys
// for crypt, TLB/syscall refusal for mprotect, syscall exhaustion for the
// allocating techniques).
std::vector<std::pair<core::TechniqueKind, sim::FaultSite>> FaultMatrixCells();

// Runs one cell in a fresh victim process. Deterministic for a fixed
// (options.seed, kind, site) triple.
FaultCellResult RunFaultCell(core::TechniqueKind kind, sim::FaultSite site,
                             const FaultCampaignOptions& options);

// Runs every cell of FaultMatrixCells() and tallies the outcomes.
FaultCampaignResult RunFaultCampaign(const FaultCampaignOptions& options);

}  // namespace memsentry::eval

#endif  // MEMSENTRY_SRC_EVAL_FAULT_CAMPAIGN_H_
