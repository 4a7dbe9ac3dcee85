#include "src/attacks/campaign_gen.h"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>

#include "src/attacks/fault_campaign.h"
#include "src/attacks/harness.h"
#include "src/attacks/strategies.h"
#include "src/attacks/victim.h"
#include "src/base/rng.h"
#include "src/defenses/mmap_policy.h"
#include "src/mpk/mpk.h"
#include "src/sim/fault_injector.h"
#include "src/sim/scheduler.h"

namespace memsentry::attacks {
namespace {

// Marker for controlled-write ground truth.
inline constexpr uint64_t kWriteMarker = 0x600dca11600dca11ULL;

const char* const kStepNames[kNumStepKinds] = {
    "probe-sweep",      "alloc-oracle",  "gate-race",   "fault-then-probe",
    "preempt-race",     "mmap-fixed",    "mmap-spray",  "wx-transition",
    "adjacent-overflow", "guard-touch",  "stale-read",  "cash-out",
};

const char* const kOutcomeNames[4] = {"detected", "degraded", "ESCAPED", "timed-out"};

std::string Hex64(uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

StatusOr<uint64_t> ParseHex64(const std::string& s) {
  if (s.empty()) {
    return InvalidArgument("empty hex literal");
  }
  errno = 0;
  char* end = nullptr;
  const uint64_t v = std::strtoull(s.c_str(), &end, 16);
  if (errno != 0 || end == s.c_str() || *end != '\0') {
    return InvalidArgument("bad hex literal: " + s);
  }
  return v;
}

std::optional<core::TechniqueKind> TechniqueFromName(const std::string& name) {
  for (int k = 0; k < core::kNumTechniques; ++k) {
    const auto kind = static_cast<core::TechniqueKind>(k);
    if (name == core::TechniqueKindName(kind)) {
      return kind;
    }
  }
  return std::nullopt;
}

// What the campaign's probes observed; accumulated across every step.
struct Signals {
  bool leaked = false;
  bool corrupted = false;
  bool exec_hijack = false;    // gained writable-then-executable memory
  bool fault_observed = false;
  bool policy_refused = false;  // mmap-policy refusal or guard-page trip
  bool diverted = false;        // access landed but yielded non-secret data
  bool stayed_hidden = false;   // cash-out fired blind; region never located
  std::string note;
};

void Note(Signals& s, const std::string& msg) {
  if (!s.note.empty()) {
    s.note += "; ";
  }
  s.note += msg;
}

// The victim one campaign runs against, plus the attacker's state.
struct Env {
  explicit Env(core::TechniqueKind kind) : victim(kind) {}

  Victim victim;
  std::unique_ptr<defenses::MmapPolicy> policy;
  VirtAddr target = 0;   // best-known target address
  bool located = false;  // target is the region's true address
};

// One attacker read at `va`, with full outcome attribution.
void AttackerReadAt(Env& env, Signals& s, CampaignResult& result, VirtAddr va) {
  ++result.probes;
  auto read = env.victim.technique().AttackerRead(env.victim.process(), va);
  if (!read.ok()) {
    if (env.policy->IsGuardPage(va)) {
      s.policy_refused = true;
      Note(s, "guard page tripped at " + Hex64(va));
    } else if (env.victim.process().InSafeRegion(va)) {
      s.fault_observed = true;
      Note(s, "attacker read faulted: " + read.fault().ToString());
    }
    // Faults elsewhere are crash-resistant probing noise, not a signal.
  } else if (read.value() == kSecret) {
    s.leaked = true;
    env.located = true;
    env.target = va;
    Note(s, "attacker read the secret plaintext at " + Hex64(va));
  } else if (env.victim.process().InSafeRegion(va)) {
    s.diverted = true;  // aliased/masked read or ciphertext: access diverted
  }
}

// One attacker write at the best-known target, with raw-memory ground truth.
void AttackerWriteAt(Env& env, Signals& s, CampaignResult& result, VirtAddr va) {
  ++result.probes;
  auto write = env.victim.technique().AttackerWrite(env.victim.process(), va, kWriteMarker);
  if (!write.ok()) {
    if (env.policy->IsGuardPage(va)) {
      s.policy_refused = true;
      Note(s, "guard page tripped by write at " + Hex64(va));
    } else if (env.victim.process().InSafeRegion(va)) {
      s.fault_observed = true;
      Note(s, "attacker write faulted: " + write.fault().ToString());
    }
    return;
  }
  switch (env.victim.JudgeWrite(va, kWriteMarker)) {
    case WriteVerdict::kDecrypted:
      s.corrupted = true;
      Note(s, "attacker write decrypted to the attacker's value");
      break;
    case WriteVerdict::kLanded:
      s.corrupted = true;
      Note(s, "attacker write landed in the safe region at " + Hex64(va));
      break;
    case WriteVerdict::kGarbled:
      s.diverted = true;  // garbling write: confidentiality held
      break;
    case WriteVerdict::kMissed:
      break;  // e.g. attacker-reachable memory: no victim damage
  }
}

// Domain gate open/close for the gate-race and preempt-race steps. Returns
// false when the technique has no in-process gate to race.
struct GateState {
  uint32_t saved_pkru = 0;
  bool open = false;
};

bool OpenGate(Env& env, GateState& gate) {
  sim::SafeRegion* region = env.victim.region();
  switch (env.victim.memsentry().active_technique()) {
    case core::TechniqueKind::kMpk:
      gate.saved_pkru = env.victim.process().regs().pkru.value;
      env.victim.process().regs().pkru.value = mpk::kOpenPkru;
      gate.open = true;
      return true;
    case core::TechniqueKind::kMprotect: {
      const uint64_t rv =
          env.victim.kernel().Dispatch(static_cast<uint64_t>(sim::Sysno::kMprotect),
                               region->base, sim::kProtRw);
      gate.open = !sim::IsSysError(rv);
      return gate.open;
    }
    case core::TechniqueKind::kCrypt: {
      if (!region->crypt || !region->encrypted_now ||
          !env.victim.process().CryptToggle(*region, region->size).ok()) {
        return false;
      }
      gate.open = true;
      return true;
    }
    default:
      return false;
  }
}

void CloseGate(Env& env, GateState& gate) {
  if (!gate.open) {
    return;
  }
  sim::SafeRegion* region = env.victim.region();
  switch (env.victim.memsentry().active_technique()) {
    case core::TechniqueKind::kMpk:
      env.victim.process().regs().pkru.value = gate.saved_pkru;
      break;
    case core::TechniqueKind::kMprotect:
      (void)env.victim.kernel().Dispatch(static_cast<uint64_t>(sim::Sysno::kMprotect),
                                 region->base, sim::kProtNone);
      break;
    case core::TechniqueKind::kCrypt:
      if (!region->encrypted_now) {  // the audit may have re-encrypted already
        (void)env.victim.process().CryptToggle(*region, region->size);
      }
      break;
    default:
      break;
  }
  gate.open = false;
}

// Fault-injector sites applicable to this technique, in FaultMatrixCells
// order. The pkey-exhaustion site is the fallback-chain scenario and needs
// its own 16-region setup, so the generator excludes it.
std::vector<sim::FaultSite> ApplicableSites(core::TechniqueKind kind) {
  std::vector<sim::FaultSite> sites;
  for (const auto& [cell_kind, site] : FaultMatrixCells()) {
    if (cell_kind == kind && site != sim::FaultSite::kSyscallPkeyAllocExhausted) {
      sites.push_back(site);
    }
  }
  return sites;
}

// --- Step runners. Each consumes budget units and appends to the signals;
// all parameters were drawn at generation time. ---

void StepProbeSweep(Env& env, const CampaignStep& step, Signals& s,
                    CampaignResult& result, StepBudget& budget) {
  // a selects the window, b the stride in pages, c the probe count.
  VirtAddr start = 0;
  switch (step.a % 4) {
    case 0:
      start = PageAlignDown(env.target) - 8 * kPageSize;
      break;
    case 1:
      start = sim::kWorkingSetBase;
      break;
    case 2:
      start = sim::kHeapBase;
      break;
    default:
      start = sim::kSafeRegionBase + ((step.a >> 8) % 1024) * kPageSize;
      break;
  }
  const uint64_t stride = (step.b == 0 ? 1 : step.b) * kPageSize;
  for (uint64_t i = 0; i < step.c; ++i) {
    if (!budget.Consume()) {
      return;
    }
    AttackerReadAt(env, s, result, start + i * stride);
    if (s.leaked) {
      return;
    }
  }
}

void StepAllocOracle(Env& env, Signals& s, CampaignResult& result,
                     StepBudget& budget) {
  const uint64_t pages = PageAlignUp(env.victim.region()->size) >> kPageShift;
  LocateResult located = AllocationOracleAttack(env.victim.process(), pages);
  result.probes += located.probes;
  if (!budget.Consume(located.probes == 0 ? 1 : located.probes)) {
    return;
  }
  if (located.found) {
    env.located = true;
    env.target = located.base;
    Note(s, "allocation oracle located the region at " + Hex64(located.base));
  } else {
    Note(s, "allocation oracle failed (" + std::to_string(located.probes) + " probes)");
  }
}

void StepGateRace(Env& env, const CampaignConfig& config, Signals& s,
                  CampaignResult& result, StepBudget& budget) {
  if (!budget.Consume(2)) {
    return;
  }
  GateState gate;
  if (!OpenGate(env, gate)) {
    Note(s, "gate race: no racable gate for this technique");
    return;
  }
  // The ERIM-style audit runs at what it believes is a closed-domain
  // checkpoint — catching (and closing) the racing window.
  if (config.runtime_audit) {
    env.victim.Audit(result.repairs, result.quarantines);
  }
  AttackerReadAt(env, s, result, env.target);
  CloseGate(env, gate);
}

void StepFaultThenProbe(Env& env, const CampaignSpec& spec,
                        const CampaignConfig& config, const CampaignStep& step,
                        Signals& s, CampaignResult& result, StepBudget& budget) {
  if (!budget.Consume(2)) {
    return;
  }
  const std::vector<sim::FaultSite> sites = ApplicableSites(spec.technique);
  if (sites.empty()) {
    Note(s, "fault-then-probe: no applicable fault sites");
    return;
  }
  const sim::FaultSite site = sites[step.a % sites.size()];
  // The injector's seed comes from the step's own pre-drawn salt, never from
  // the step's position, so shrinking the list around it cannot change which
  // page/bit/key the injection picks.
  sim::FaultInjector injector(&env.victim.process(), spec.seed ^ step.b);
  injector.SetKernel(&env.victim.kernel());
  auto injected = injector.Inject(site);
  if (!injected.ok()) {
    Note(s, std::string("injection skipped: ") + sim::FaultSiteName(site));
    return;
  }
  if (config.runtime_audit) {
    env.victim.Audit(result.repairs, result.quarantines);
  }
  // Syscall sites: drive the armed call and require a clean refusal.
  if (site == sim::FaultSite::kSyscallMmapEnomem) {
    const uint64_t rv = env.victim.kernel().Dispatch(
        static_cast<uint64_t>(sim::Sysno::kMmap), 0, 4 * kPageSize);
    if (sim::IsSysError(rv)) {
      s.fault_observed = true;
      Note(s, std::string("armed mmap refused cleanly: ") +
                  sim::ErrnoName(sim::SysErrnoOf(rv)));
    }
  } else if (site == sim::FaultSite::kSyscallMprotectEacces) {
    const uint64_t rv = env.victim.kernel().Dispatch(
        static_cast<uint64_t>(sim::Sysno::kMprotect), sim::kWorkingSetBase,
        sim::kProtRw);
    if (sim::IsSysError(rv)) {
      s.fault_observed = true;
      Note(s, std::string("armed mprotect refused cleanly: ") +
                  sim::ErrnoName(sim::SysErrnoOf(rv)));
    }
  }
  AttackerReadAt(env, s, result, env.target);
}

void StepPreemptRace(Env& env, const CampaignConfig& config,
                     const CampaignStep& step, Signals& s, CampaignResult& result,
                     StepBudget& budget) {
  if (!budget.Consume(4)) {
    return;
  }
  GateState gate;
  sim::SchedulerConfig sched_config;
  sched_config.quantum = 10'000 + static_cast<Cycles>(step.a % 4) * 10'000;
  sim::Scheduler scheduler(sched_config, 2);
  scheduler.Submit(0, 0, 0);  // victim
  scheduler.Submit(1, 0, sched_config.quantum / 2);  // attacker, mid-quantum
  scheduler.SetSwitchHook([&](uint16_t tenant) {
    // The kernel's scheduler checkpoint: audit when handing the CPU to the
    // (attacker) tenant — the analogue of an audit on context switch.
    if (tenant == 1 && config.runtime_audit) {
      env.victim.Audit(result.repairs, result.quarantines);
    }
  });
  bool gated = false;
  (void)scheduler.Run([&](uint16_t tenant, uint64_t /*seq*/, int phase,
                          bool* done) -> Cycles {
    if (tenant == 0) {
      switch (phase) {
        case 0:
          gated = OpenGate(env, gate);
          return 1'000;
        case 1:
          // Long compute inside the open window: overruns the quantum, so
          // the preemption lands while the gate is open.
          return sched_config.quantum * 2;
        default:
          CloseGate(env, gate);
          *done = true;
          return 1'000;
      }
    }
    AttackerReadAt(env, s, result, env.target);
    *done = true;
    return 500;
  });
  if (!gated) {
    Note(s, "preempt race: no racable gate for this technique");
  }
}

void StepMmapFixed(Env& env, const CampaignStep& step, Signals& s,
                   CampaignResult& result, StepBudget& budget) {
  if (!budget.Consume()) {
    return;
  }
  ++result.probes;
  const uint64_t pages = 1 + step.b % 4;
  const VirtAddr hint =
      PageAlignDown(env.target) - (1 + step.a % 4) * kPageSize;
  const uint64_t rv =
      env.victim.kernel().Dispatch(static_cast<uint64_t>(sim::Sysno::kMmap), hint,
                           pages * kPageSize);
  if (sim::IsSysError(rv) && sim::SysErrnoOf(rv) == sim::Errno::kEPERM) {
    s.policy_refused = true;
    Note(s, "fixed mmap near region refused by policy");
  }
}

void StepMmapSpray(Env& env, const CampaignStep& step, CampaignResult& result,
                   StepBudget& budget) {
  const uint64_t count = 1 + step.a % 8;
  const uint64_t pages = 1 + step.b % 4;
  for (uint64_t i = 0; i < count; ++i) {
    if (!budget.Consume()) {
      return;
    }
    ++result.probes;
    (void)env.victim.kernel().Dispatch(static_cast<uint64_t>(sim::Sysno::kMmap), 0,
                                       pages * kPageSize);
  }
}

void StepWxTransition(Env& env, const CampaignStep& step, Signals& s,
                      CampaignResult& result, StepBudget& budget) {
  if (!budget.Consume(2)) {
    return;
  }
  ++result.probes;
  const uint64_t mapped = env.victim.kernel().Dispatch(
      static_cast<uint64_t>(sim::Sysno::kMmap), 0, kPageSize);
  if (sim::IsSysError(mapped)) {
    Note(s, "wx transition: staging mmap refused");
    return;
  }
  // Write the payload through the attacker's own mapping, then try to make
  // it executable — RWX directly or the classic W-then-X flip.
  (void)env.victim.process().Poke64(mapped, 0x90909090c3c3c3c3ULL);
  const uint64_t prot = (step.a % 2 == 0) ? sim::kProtRx : sim::kProtRwx;
  const uint64_t rv = env.victim.kernel().Dispatch(
      static_cast<uint64_t>(sim::Sysno::kMprotect), mapped, prot);
  if (sim::IsSysError(rv)) {
    s.policy_refused = true;
    Note(s, std::string("W^X transition refused: ") +
                sim::ErrnoName(sim::SysErrnoOf(rv)));
    return;
  }
  // Writable-then-executable memory under attacker control models code
  // injection: wrpkru/vmfunc/mprotect are unprivileged, so arbitrary code
  // execution breaks every in-process gate (ERIM's founding observation).
  s.exec_hijack = true;
  Note(s, "attacker gained writable-then-executable page at " + Hex64(mapped));
}

void StepAdjacentOverflow(Env& env, const CampaignStep& step, Signals& s,
                          CampaignResult& result, StepBudget& budget) {
  if (!budget.Consume(2)) {
    return;
  }
  ++result.probes;
  const uint64_t pages = 1 + step.a % 4;
  const VirtAddr hint = PageAlignDown(env.target) - pages * kPageSize;
  const uint64_t rv = env.victim.kernel().Dispatch(
      static_cast<uint64_t>(sim::Sysno::kMmap), hint, pages * kPageSize);
  if (sim::IsSysError(rv)) {
    if (sim::SysErrnoOf(rv) == sim::Errno::kEPERM) {
      s.policy_refused = true;
      Note(s, "adjacent fixed mmap refused by policy");
    }
    return;
  }
  // The linear overflow: writes march up from the staging buffer across the
  // boundary; the landing that matters is the first region page.
  AttackerWriteAt(env, s, result, env.target);
}

void StepGuardTouch(Env& env, const CampaignStep& step, Signals& s,
                    CampaignResult& result, StepBudget& budget) {
  if (!budget.Consume()) {
    return;
  }
  const VirtAddr region_base = env.located ? PageAlignDown(env.target) : env.target;
  const VirtAddr va = (step.a % 2 == 0)
                          ? region_base - kPageSize
                          : PageAlignUp(region_base + env.victim.region()->size);
  AttackerReadAt(env, s, result, va);
}

void StepStaleRead(Env& env, const CampaignStep& step, Signals& s,
                   CampaignResult& result, StepBudget& budget) {
  if (!budget.Consume()) {
    return;
  }
  ++result.probes;
  const uint64_t pages = 1 + step.a % 4;
  const uint64_t rv = env.victim.kernel().Dispatch(
      static_cast<uint64_t>(sim::Sysno::kMmap), 0, pages * kPageSize);
  if (sim::IsSysError(rv)) {
    return;
  }
  // Read before initializing: with poison-on-alloc the value is the policy's
  // poison pattern — recognizably dead, never stale program data.
  auto value = env.victim.process().Peek64(rv);
  if (value.ok() && value.value() == 0xdededededededeULL * 0x100 + 0xde) {
    s.diverted = true;
    Note(s, "poison visible on uninitialized read");
  }
}

void StepCashOut(Env& env, Signals& s, CampaignResult& result,
                 StepBudget& budget) {
  if (!budget.Consume(2)) {
    return;
  }
  AttackerReadAt(env, s, result, env.target);
  AttackerWriteAt(env, s, result, env.target);
  if (!env.located && !s.leaked && !s.corrupted) {
    // The attacker cashed out against a guess: for information hiding the
    // containment result IS that the region was never located — the blind
    // probes landed in unmapped space (or attacker-reachable noise), not in
    // the hidden region.
    s.stayed_hidden = true;
    Note(s, "cash-out fired blind: region never located");
  }
}

CampaignOutcome Classify(const Signals& s, const CampaignResult& result,
                         bool budget_exhausted) {
  if (s.leaked || s.corrupted || s.exec_hijack) {
    return CampaignOutcome::kEscaped;
  }
  if (budget_exhausted) {
    return CampaignOutcome::kTimedOut;
  }
  if (result.repairs > 0 || result.quarantines > 0 || result.downgrades > 0) {
    return CampaignOutcome::kDegraded;
  }
  if (s.fault_observed || s.policy_refused || s.diverted || s.stayed_hidden) {
    return CampaignOutcome::kDetected;
  }
  // No leak — but no containment signal either. Conservatively an escape,
  // as in the fault matrix: every campaign must have an observable
  // containment story.
  return CampaignOutcome::kEscaped;
}

}  // namespace

const char* StepKindName(StepKind kind) {
  const int i = static_cast<int>(kind);
  return (i >= 0 && i < kNumStepKinds) ? kStepNames[i] : "?";
}

std::optional<StepKind> StepKindFromName(const std::string& name) {
  for (int i = 0; i < kNumStepKinds; ++i) {
    if (name == kStepNames[i]) {
      return static_cast<StepKind>(i);
    }
  }
  return std::nullopt;
}

const char* CampaignOutcomeName(CampaignOutcome outcome) {
  const int i = static_cast<int>(outcome);
  return (i >= 0 && i < 4) ? kOutcomeNames[i] : "?";
}

std::optional<CampaignOutcome> CampaignOutcomeFromName(const std::string& name) {
  for (int i = 0; i < 4; ++i) {
    if (name == kOutcomeNames[i]) {
      return static_cast<CampaignOutcome>(i);
    }
  }
  return std::nullopt;
}

uint64_t CampaignSeed(uint64_t suite_seed, core::TechniqueKind kind, uint64_t index) {
  return VictimSeed(suite_seed, kind, "campaign-" + std::to_string(index));
}

CampaignSpec GenerateCampaign(core::TechniqueKind kind, uint64_t seed, uint64_t index) {
  CampaignSpec spec;
  spec.technique = kind;
  spec.seed = seed;
  spec.index = index;

  // The drawable pool: common steps for every technique, plus the
  // technique-specific compositions.
  std::vector<StepKind> pool = {
      StepKind::kProbeSweep,   StepKind::kMmapFixed,       StepKind::kMmapSpray,
      StepKind::kWxTransition, StepKind::kAdjacentOverflow, StepKind::kGuardTouch,
      StepKind::kStaleRead,
  };
  if (kind != core::TechniqueKind::kInfoHide) {
    pool.push_back(StepKind::kFaultThenProbe);
  }
  if (kind == core::TechniqueKind::kMpk || kind == core::TechniqueKind::kMprotect ||
      kind == core::TechniqueKind::kCrypt) {
    pool.push_back(StepKind::kGateRace);
    pool.push_back(StepKind::kPreemptRace);
  }
  if (kind == core::TechniqueKind::kInfoHide) {
    pool.push_back(StepKind::kAllocOracle);
  }

  // ALL randomness happens here: parameters are drawn for every step (even
  // when a runner ignores some), so RunCampaign never touches an RNG and a
  // serialized spec replays bit-for-bit.
  Rng rng(seed);
  const uint64_t count = 2 + rng.Below(6);  // 2..7 drawn steps
  for (uint64_t i = 0; i < count; ++i) {
    CampaignStep step;
    step.kind = pool[rng.Below(pool.size())];
    switch (step.kind) {
      case StepKind::kProbeSweep:
        step.a = rng.Next();
        step.b = 1 + rng.Below(8);
        step.c = 4 + rng.Below(29);
        break;
      case StepKind::kMmapSpray:
        step.a = rng.Next();
        step.b = rng.Next();
        break;
      default:
        step.a = rng.Next();
        step.b = rng.Next();
        step.c = rng.Next();
        break;
    }
    spec.steps.push_back(step);
  }
  // Every generated campaign tries to cash out at the end; shrunk or
  // hand-written specs may omit it.
  spec.steps.push_back(CampaignStep{StepKind::kCashOut, rng.Next(), 0, 0});
  return spec;
}

CampaignResult RunCampaign(const CampaignSpec& spec, const CampaignConfig& config) {
  CampaignResult result;
  Signals signals;
  Env env(spec.technique);
  Status allocated = env.victim.AllocSecrets(config.region_bytes);
  if (!allocated.ok()) {
    result.note = "setup failed (scored as escape): " + allocated.ToString();
    return result;  // outcome stays kEscaped: broken campaigns must be loud
  }

  env.policy = std::make_unique<defenses::MmapPolicy>(
      &env.victim.process(),
      config.mmap_policy ? defenses::MmapPolicyConfig::Strict()
                         : defenses::MmapPolicyConfig::Off(),
      spec.seed ^ 0x4d415047ULL);  // "MAPG"
  env.policy->Attach(&env.victim.kernel());

  Status prepared = env.victim.Prepare();
  if (!prepared.ok()) {
    result.note = "prepare failed (scored as escape): " + prepared.ToString();
    return result;
  }
  result.downgrades = static_cast<int>(env.victim.memsentry().downgrades().size());
  (void)env.policy->InstallGuards();

  // Deterministic techniques do not hide the region (the paper's titular
  // point); information hiding forces the attacker to start from a guess.
  if (spec.technique == core::TechniqueKind::kInfoHide) {
    env.located = false;
    env.target = sim::kStackTop + (spec.seed % (uint64_t{1} << 24)) * kPageSize;
  } else {
    env.located = true;
    env.target = env.victim.region()->base;
  }

  StepBudget budget(config.step_budget);
  for (const CampaignStep& step : spec.steps) {
    if (budget.exhausted()) {
      break;
    }
    ++result.steps_run;
    switch (step.kind) {
      case StepKind::kProbeSweep:
        StepProbeSweep(env, step, signals, result, budget);
        break;
      case StepKind::kAllocOracle:
        StepAllocOracle(env, signals, result, budget);
        break;
      case StepKind::kGateRace:
        StepGateRace(env, config, signals, result, budget);
        break;
      case StepKind::kFaultThenProbe:
        StepFaultThenProbe(env, spec, config, step, signals, result, budget);
        break;
      case StepKind::kPreemptRace:
        StepPreemptRace(env, config, step, signals, result, budget);
        break;
      case StepKind::kMmapFixed:
        StepMmapFixed(env, step, signals, result, budget);
        break;
      case StepKind::kMmapSpray:
        StepMmapSpray(env, step, result, budget);
        break;
      case StepKind::kWxTransition:
        StepWxTransition(env, step, signals, result, budget);
        break;
      case StepKind::kAdjacentOverflow:
        StepAdjacentOverflow(env, step, signals, result, budget);
        break;
      case StepKind::kGuardTouch:
        StepGuardTouch(env, step, signals, result, budget);
        break;
      case StepKind::kStaleRead:
        StepStaleRead(env, step, signals, result, budget);
        break;
      case StepKind::kCashOut:
        StepCashOut(env, signals, result, budget);
        break;
    }
  }

  result.budget_used = budget.used();
  result.leaked = signals.leaked;
  result.corrupted = signals.corrupted;
  result.exec_hijack = signals.exec_hijack;
  result.outcome = Classify(signals, result, budget.exhausted());
  if (!signals.note.empty()) {
    result.note = result.note.empty() ? signals.note : result.note + " | " + signals.note;
  }
  return result;
}

CampaignSpec ShrinkCampaign(const CampaignSpec& spec, const CampaignConfig& config) {
  const CampaignResult original = RunCampaign(spec, config);
  // The reproduction predicate matches the outcome AND the escape signature
  // (leak/corrupt/hijack bits): without the signature a shrink could bottom
  // out in a step list that "escapes" only through the conservative
  // no-signal default — a bogus reproducer.
  auto reproduces = [&](const CampaignSpec& candidate) {
    const CampaignResult r = RunCampaign(candidate, config);
    return r.outcome == original.outcome && r.leaked == original.leaked &&
           r.corrupted == original.corrupted &&
           r.exec_hijack == original.exec_hijack;
  };

  CampaignSpec best = spec;
  // Bisection: keep whichever half still reproduces, until neither does.
  bool progress = true;
  while (progress && best.steps.size() > 1) {
    progress = false;
    const size_t half = best.steps.size() / 2;
    CampaignSpec hi = best;
    hi.steps.assign(best.steps.begin() + static_cast<long>(half), best.steps.end());
    if (reproduces(hi)) {
      best = std::move(hi);
      progress = true;
      continue;
    }
    CampaignSpec lo = best;
    lo.steps.assign(best.steps.begin(), best.steps.begin() + static_cast<long>(half));
    if (reproduces(lo)) {
      best = std::move(lo);
      progress = true;
    }
  }
  // Greedy polish to 1-minimality: no single step can be removed.
  for (size_t i = 0; i < best.steps.size() && best.steps.size() > 1;) {
    CampaignSpec candidate = best;
    candidate.steps.erase(candidate.steps.begin() + static_cast<long>(i));
    if (reproduces(candidate)) {
      best = std::move(candidate);
    } else {
      ++i;
    }
  }
  return best;
}

json::Value CampaignToJson(const CampaignSpec& spec, const CampaignConfig& config,
                           CampaignOutcome expected) {
  json::Value v = json::Value::Object();
  v.Set("kind", "attack_campaign");
  v.Set("technique", core::TechniqueKindName(spec.technique));
  v.Set("seed", Hex64(spec.seed));
  v.Set("index", spec.index);
  json::Value c = json::Value::Object();
  c.Set("region_bytes", config.region_bytes);
  c.Set("mmap_policy", config.mmap_policy);
  c.Set("runtime_audit", config.runtime_audit);
  c.Set("step_budget", config.step_budget);
  v.Set("config", std::move(c));
  json::Value steps = json::Value::Array();
  for (const CampaignStep& step : spec.steps) {
    json::Value s = json::Value::Object();
    s.Set("op", StepKindName(step.kind));
    s.Set("a", Hex64(step.a));
    s.Set("b", Hex64(step.b));
    s.Set("c", Hex64(step.c));
    steps.Append(std::move(s));
  }
  v.Set("steps", std::move(steps));
  v.Set("expected", CampaignOutcomeName(expected));
  return v;
}

StatusOr<ParsedCampaign> CampaignFromJson(const json::Value& value) {
  if (value.StringOr("kind", "") != "attack_campaign") {
    return InvalidArgument("not an attack_campaign replay spec");
  }
  ParsedCampaign parsed;
  const auto technique = TechniqueFromName(value.StringOr("technique", ""));
  if (!technique.has_value()) {
    return InvalidArgument("unknown technique: " + value.StringOr("technique", ""));
  }
  parsed.spec.technique = *technique;
  auto seed = ParseHex64(value.StringOr("seed", ""));
  MEMSENTRY_RETURN_IF_ERROR(seed.status());
  parsed.spec.seed = seed.value();
  parsed.spec.index = static_cast<uint64_t>(value.NumberOr("index", 0));
  if (const json::Value* config = value.Find("config"); config != nullptr) {
    parsed.config.region_bytes =
        static_cast<uint64_t>(config->NumberOr("region_bytes", 4096));
    parsed.config.mmap_policy = config->BoolOr("mmap_policy", true);
    parsed.config.runtime_audit = config->BoolOr("runtime_audit", true);
    parsed.config.step_budget =
        static_cast<uint64_t>(config->NumberOr("step_budget", 96));
  }
  const json::Value* steps = value.Find("steps");
  if (steps == nullptr || !steps->is_array()) {
    return InvalidArgument("replay spec has no steps array");
  }
  for (const json::Value& s : steps->items()) {
    CampaignStep step;
    const auto kind = StepKindFromName(s.StringOr("op", ""));
    if (!kind.has_value()) {
      return InvalidArgument("unknown step op: " + s.StringOr("op", ""));
    }
    step.kind = *kind;
    auto a = ParseHex64(s.StringOr("a", "0x0"));
    auto b = ParseHex64(s.StringOr("b", "0x0"));
    auto c = ParseHex64(s.StringOr("c", "0x0"));
    MEMSENTRY_RETURN_IF_ERROR(a.status());
    MEMSENTRY_RETURN_IF_ERROR(b.status());
    MEMSENTRY_RETURN_IF_ERROR(c.status());
    step.a = a.value();
    step.b = b.value();
    step.c = c.value();
    parsed.spec.steps.push_back(step);
  }
  const auto expected = CampaignOutcomeFromName(value.StringOr("expected", ""));
  if (expected.has_value()) {
    parsed.expected = *expected;
  }
  return parsed;
}

}  // namespace memsentry::attacks
