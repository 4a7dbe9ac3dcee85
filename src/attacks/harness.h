// End-to-end attack harness: builds a victim process with a secret in a safe
// region, applies an isolation technique, and runs the attacker's read and
// write primitives against the region. For deterministic techniques the
// attacker is handed the region's true address — the paper's titular point:
// there is no need to hide a region the attacker cannot touch. For the
// information-hiding baseline the attacker must first locate the region,
// which the allocation oracle does in a few dozen probes.
#ifndef MEMSENTRY_SRC_ATTACKS_HARNESS_H_
#define MEMSENTRY_SRC_ATTACKS_HARNESS_H_

#include <string>
#include <vector>

#include "src/core/technique.h"

namespace memsentry::attacks {

enum class Outcome {
  kLeaked,     // attacker read the secret plaintext
  kCorrupted,  // attacker modified the safe region
  kPrevented,  // access silently diverted / yielded ciphertext; region intact
  kDetected,   // architectural fault: the attempt was caught
  kNotFound,   // attacker could not even locate the region
  // Appended (fidelity metrics persist these as ints; earlier values must
  // not shift). No scenario produces it: the harness's locate phase has no
  // budget.
  kTimedOut,
};

const char* OutcomeName(Outcome outcome);

// A per-campaign step budget: long generated campaigns consume one unit per
// primitive step; once the budget is exhausted further Consume() calls fail
// and the campaign classifies as a clean timeout instead of running open
// ended. Counts the overrun attempt too, so used() > limit ⇔ exhausted().
class StepBudget {
 public:
  explicit StepBudget(uint64_t limit) : limit_(limit) {}

  // Consumes `n` units. Returns false once the budget is exceeded.
  bool Consume(uint64_t n = 1) {
    used_ += n;
    return used_ <= limit_;
  }
  bool exhausted() const { return used_ > limit_; }
  uint64_t used() const { return used_; }
  uint64_t limit() const { return limit_; }

 private:
  uint64_t limit_;
  uint64_t used_ = 0;
};

struct AttackReport {
  core::TechniqueKind technique;
  bool region_located = false;
  uint64_t locate_probes = 0;
  Outcome read_outcome = Outcome::kPrevented;
  Outcome write_outcome = Outcome::kPrevented;
  std::string detail;
};

// Runs the full scenario for one technique.
AttackReport RunAttackScenario(core::TechniqueKind kind, uint64_t region_bytes = 4096);

// All eight techniques.
std::vector<AttackReport> RunAttackMatrix(uint64_t region_bytes = 4096);

}  // namespace memsentry::attacks

#endif  // MEMSENTRY_SRC_ATTACKS_HARNESS_H_
