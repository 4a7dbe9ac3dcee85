// Seeded generative attack campaigns: instead of the fixed strategy list in
// strategies.h, a grammar of composable attack steps (probe sweeps,
// allocation-oracle runs, gate-window races against the containment audit,
// fault-then-probe via sim::FaultInjector, scheduler-preemption
// interleavings, mmap-policy abuse) is sampled into thousands of randomized
// multi-step campaigns per run.
//
// Determinism contract: a campaign is a pure function of (seed, technique,
// grammar). ALL randomness is drawn at generation time into the step
// parameters; RunCampaign consumes parameters only, so any outcome replays
// bit-for-bit from the serialized spec — alone, on any engine worker, and
// after shrinking.
//
// Classification mirrors eval::fault_campaign:
//   kDetected  — every probe was refused with a fault, a clean errno, a
//                policy refusal, or a diverted/ciphertext read — or the
//                attacker cashed out blind against a region it never located.
//   kDegraded  — the containment audit repaired/quarantined state or the
//                technique downgraded; protection held at a logged cost.
//   kEscaped   — secret plaintext read, controlled write landed, attacker
//                gained writable-then-executable memory, or the campaign
//                finished without any observable containment signal
//                (conservative default).
//   kTimedOut  — the per-campaign step budget ran out before a verdict.
#ifndef MEMSENTRY_SRC_ATTACKS_CAMPAIGN_GEN_H_
#define MEMSENTRY_SRC_ATTACKS_CAMPAIGN_GEN_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/base/json.h"
#include "src/base/status.h"
#include "src/core/technique.h"

namespace memsentry::attacks {

// The campaign grammar's step vocabulary. Parameters a/b/c are drawn at
// generation time; their meaning is per-kind (documented in campaign_gen.cc
// next to each runner).
enum class StepKind {
  kProbeSweep = 0,    // crash-resistant read sweep near the sensitive half
  kAllocOracle,       // allocation-oracle locate run (information hiding)
  kGateRace,          // open the domain legitimately, probe inside the window
  kFaultThenProbe,    // inject a fault-injector site, then probe
  kPreemptRace,       // scheduler interleaving: probe from a preempting tenant
  kMmapFixed,         // attacker-chosen fixed mmap near the region
  kMmapSpray,         // kernel-placed mmap spray (layout grooming)
  kWxTransition,      // map, write payload, re-protect to executable
  kAdjacentOverflow,  // fixed map below the region + linear overflow across
  kGuardTouch,        // touch the pages immediately around the region
  kStaleRead,         // read a fresh mapping before initializing it
  kCashOut,           // final read+write at the best-known target address
};

inline constexpr int kNumStepKinds = 12;

const char* StepKindName(StepKind kind);
std::optional<StepKind> StepKindFromName(const std::string& name);

struct CampaignStep {
  StepKind kind = StepKind::kCashOut;
  // Pre-drawn parameters; semantics per kind. Serialized as hex strings
  // (JSON numbers are doubles and cannot carry 64-bit values exactly).
  uint64_t a = 0;
  uint64_t b = 0;
  uint64_t c = 0;

  bool operator==(const CampaignStep&) const = default;
};

struct CampaignSpec {
  core::TechniqueKind technique = core::TechniqueKind::kSfi;
  uint64_t seed = 0;   // the campaign's own derived seed
  uint64_t index = 0;  // position within the generated suite (labeling only)
  std::vector<CampaignStep> steps;

  bool operator==(const CampaignSpec&) const = default;
};

// Victim/defense configuration a campaign runs against. The weakening knobs
// (mmap_policy=false, runtime_audit=false) are the deliberately broken
// configurations the tests and CI use to prove escapes are caught, bundled
// and replayable.
struct CampaignConfig {
  uint64_t region_bytes = 4096;
  bool mmap_policy = true;    // attach defenses::MmapPolicy (Strict) + guards
  bool runtime_audit = true;  // run the containment audit at checkpoints
  uint64_t step_budget = 96;  // primitive-step budget; exhaustion => timeout
};

enum class CampaignOutcome {
  kDetected = 0,
  kDegraded = 1,
  kEscaped = 2,
  kTimedOut = 3,
};

const char* CampaignOutcomeName(CampaignOutcome outcome);
std::optional<CampaignOutcome> CampaignOutcomeFromName(const std::string& name);

struct CampaignResult {
  CampaignOutcome outcome = CampaignOutcome::kEscaped;
  uint64_t steps_run = 0;  // grammar steps executed (≤ spec.steps.size())
  uint64_t budget_used = 0;
  uint64_t probes = 0;  // attacker primitive invocations
  int repairs = 0;
  int quarantines = 0;
  int downgrades = 0;
  // The escape signature: which concrete signal (if any) drove a kEscaped
  // verdict. The shrinker matches these too, so a shrink can never trade a
  // real leak for the conservative no-signal default.
  bool leaked = false;
  bool corrupted = false;
  bool exec_hijack = false;
  std::string note;
};

// Per-campaign seed: suite seed mixed with an FNV-1a hash of
// "<TechniqueKindName>/campaign-<index>" — order-independent, exactly like
// eval::fault_campaign's CellSeed.
uint64_t CampaignSeed(uint64_t suite_seed, core::TechniqueKind kind, uint64_t index);

// Samples one campaign from the grammar. Pure function of (kind, seed);
// `index` is carried through for labeling.
CampaignSpec GenerateCampaign(core::TechniqueKind kind, uint64_t seed, uint64_t index);

// Runs one campaign against a fresh victim. Pure function of (spec, config).
CampaignResult RunCampaign(const CampaignSpec& spec, const CampaignConfig& config);

// Shrinks `spec` to a minimal step list that still reproduces its outcome
// under `config`: bisection over halves first, then greedy single-step
// removal to 1-minimality. Deterministic.
CampaignSpec ShrinkCampaign(const CampaignSpec& spec, const CampaignConfig& config);

// --- Replay serialization (the crash-bundle "replay" payload) ---

json::Value CampaignToJson(const CampaignSpec& spec, const CampaignConfig& config,
                           CampaignOutcome expected);

struct ParsedCampaign {
  CampaignSpec spec;
  CampaignConfig config;
  CampaignOutcome expected = CampaignOutcome::kEscaped;
};

StatusOr<ParsedCampaign> CampaignFromJson(const json::Value& value);

// --- Suite parameters ---

struct CampaignTally {
  uint64_t detected = 0;
  uint64_t degraded = 0;
  uint64_t escaped = 0;
  uint64_t timed_out = 0;
  uint64_t steps_run = 0;
  uint64_t probes = 0;
};

// The attack_campaigns workload's parameters (src/suite): the suite seed,
// campaigns per technique, and the defense configuration they run under.
struct CampaignSuiteOptions {
  uint64_t seed = 0xca3a16e5ULL;
  uint64_t campaigns_per_technique = 125;  // x8 techniques = 1000 campaigns
  CampaignConfig config;
  bool shrink_anomalies = true;
};

}  // namespace memsentry::attacks

#endif  // MEMSENTRY_SRC_ATTACKS_CAMPAIGN_GEN_H_
