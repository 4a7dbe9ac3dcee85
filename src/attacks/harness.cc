#include "src/attacks/harness.h"

#include <vector>

#include "src/attacks/primitives.h"
#include "src/attacks/strategies.h"
#include "src/attacks/victim.h"

namespace memsentry::attacks {
namespace {

Outcome ClassifyReadFault(const machine::Fault& fault) {
  switch (fault.type) {
    case machine::FaultType::kBoundRange:
    case machine::FaultType::kPkeyAccessDisabled:
    case machine::FaultType::kPkeyWriteDisabled:
    case machine::FaultType::kEptViolation:
    case machine::FaultType::kEnclaveAccess:
    case machine::FaultType::kUserSupervisor:
    case machine::FaultType::kWriteProtection:
      return Outcome::kDetected;
    default:
      // e.g. #PF at a masked (aliased) address: SFI prevented the access but
      // cannot attribute it (Section 3.2).
      return Outcome::kPrevented;
  }
}

}  // namespace

const char* OutcomeName(Outcome outcome) {
  switch (outcome) {
    case Outcome::kLeaked:
      return "LEAKED";
    case Outcome::kCorrupted:
      return "CORRUPTED";
    case Outcome::kPrevented:
      return "prevented";
    case Outcome::kDetected:
      return "detected";
    case Outcome::kNotFound:
      return "not-located";
    case Outcome::kTimedOut:
      return "timed-out";
  }
  return "?";
}

AttackReport RunAttackScenario(core::TechniqueKind kind, uint64_t region_bytes) {
  AttackReport report;
  report.technique = kind;

  Victim victim(kind);
  Status allocated = victim.AllocSecrets(region_bytes);
  if (!allocated.ok()) {
    // Conservative default, as in the fault matrix and the campaigns: a
    // scenario that cannot produce a defense signal is scored as if the
    // attack succeeded, never silently as "prevented".
    report.read_outcome = Outcome::kLeaked;
    report.write_outcome = Outcome::kCorrupted;
    report.detail = "setup failed (scored as escape): " + allocated.ToString();
    return report;
  }
  const sim::SafeRegion& region = *victim.region();
  Status prepared = victim.Prepare();
  if (!prepared.ok()) {
    report.read_outcome = Outcome::kLeaked;
    report.write_outcome = Outcome::kCorrupted;
    report.detail = "prepare failed (scored as escape): " + prepared.ToString();
    return report;
  }

  // Phase 1 — locate. Deterministic isolation does not hide the region: the
  // attacker gets the address for free. Information hiding forces a search.
  VirtAddr target = region.base;
  if (kind == core::TechniqueKind::kInfoHide) {
    LocateResult located =
        AllocationOracleAttack(victim.process(), PageAlignUp(region.size) >> kPageShift);
    report.locate_probes = located.probes;
    if (!located.found) {
      report.read_outcome = Outcome::kNotFound;
      report.write_outcome = Outcome::kNotFound;
      report.detail = "allocation oracle failed";
      return report;
    }
    target = located.base;
  }
  report.region_located = true;

  // Phase 2 — the arbitrary read primitive.
  ArbitraryRw rw(&victim.process(), &victim.technique());
  auto read = rw.Read(target);
  if (!read.ok()) {
    report.read_outcome = ClassifyReadFault(read.fault());
    report.detail = read.fault().ToString();
  } else if (read.value() == kSecret) {
    report.read_outcome = Outcome::kLeaked;
  } else {
    report.read_outcome = Outcome::kPrevented;  // aliased read or ciphertext
  }

  // Phase 3 — the arbitrary write primitive.
  constexpr uint64_t kWritten = 0xdeadULL;
  auto write = rw.Write(target, kWritten);
  if (!write.ok()) {
    report.write_outcome = ClassifyReadFault(write.fault());
    return report;
  }
  const WriteVerdict verdict = victim.JudgeWrite(target, kWritten);
  report.write_outcome = verdict == WriteVerdict::kLanded || verdict == WriteVerdict::kDecrypted
                             ? Outcome::kCorrupted
                             : Outcome::kPrevented;
  if (kind == core::TechniqueKind::kCrypt) {
    report.detail += " (write garbles ciphertext; value not attacker-controlled)";
  }
  return report;
}

std::vector<AttackReport> RunAttackMatrix(uint64_t region_bytes) {
  std::vector<AttackReport> reports;
  for (int k = 0; k < core::kNumTechniques; ++k) {
    reports.push_back(RunAttackScenario(static_cast<core::TechniqueKind>(k), region_bytes));
  }
  return reports;
}

}  // namespace memsentry::attacks
