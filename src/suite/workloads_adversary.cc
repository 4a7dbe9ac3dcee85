// Adversarial workloads: the attack matrix (R/W primitive vs every
// technique plus the per-strategy disclosure cells), the fault-containment
// matrix (one cell per injected fault), the generative campaign suite (one
// cell per technique slice), and the multi-tenant server sweep (one cell
// per (tenants, technique) point).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/attacks/campaign_gen.h"
#include "src/attacks/harness.h"
#include "src/attacks/primitives.h"
#include "src/attacks/strategies.h"
#include "src/base/crash_handler.h"
#include "src/core/safe_region.h"
#include "src/defenses/mmap_policy.h"
#include "src/eval/fault_campaign.h"
#include "src/suite/suite_internal.h"
#include "src/suite/workloads.h"
#include "src/workloads/server.h"

namespace memsentry::suite {
namespace {

using eval::ReportBuilder;
using eval::Workload;
using eval::WorkloadCell;
using eval::WorkloadOptions;

std::string HexString(uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llx", static_cast<unsigned long long>(value));
  return buf;
}

uint64_t HexU64(const json::Value& value, const char* key) {
  return std::strtoull(value.StringOr(key, "0").c_str(), nullptr, 16);
}

// --- attack_matrix ---

json::Value RunAttackMatrixCell(const WorkloadOptions&) {
  json::Value rows = json::Value::Array();
  for (const auto& r : attacks::RunAttackMatrix()) {
    json::Value row = json::Value::Object();
    row.Set("technique", core::TechniqueKindName(r.technique));
    row.Set("located", r.region_located);
    row.Set("locate_probes", static_cast<uint64_t>(r.locate_probes));
    row.Set("read_outcome", static_cast<int>(r.read_outcome));
    row.Set("read_name", attacks::OutcomeName(r.read_outcome));
    row.Set("write_outcome", static_cast<int>(r.write_outcome));
    row.Set("write_name", attacks::OutcomeName(r.write_outcome));
    row.Set("detail", r.detail);
    rows.Append(std::move(row));
  }
  return rows;
}

json::Value StrategyPayload(bool found, uint64_t probes) {
  json::Value payload = json::Value::Object();
  payload.Set("found", found);
  payload.Set("probes", probes);
  return payload;
}

json::Value RunAllocOracleCell(const WorkloadOptions&) {
  // Allocation oracle vs a small hidden region: the headline break.
  sim::Machine machine;
  sim::Process process(&machine);
  core::SafeRegionAllocator allocator(&process, core::TechniqueKind::kInfoHide, /*seed=*/77);
  auto region = allocator.Alloc("hidden", 8 * kPageSize);
  auto located = attacks::AllocationOracleAttack(process, 8);
  return StrategyPayload(region.ok() && located.found, located.probes);
}

json::Value RunAllocOracleGuardedCell(const WorkloadOptions&) {
  // The same oracle with MapGuard guard pages flanking the region.
  sim::Machine machine;
  sim::Process process(&machine);
  core::SafeRegionAllocator allocator(&process, core::TechniqueKind::kInfoHide, /*seed=*/77);
  auto region = allocator.Alloc("hidden", 8 * kPageSize);
  defenses::MmapPolicy policy(&process, defenses::MmapPolicyConfig::Strict(), /*seed=*/77);
  (void)policy.InstallGuards();
  auto located = attacks::AllocationOracleAttack(process, 8);
  return StrategyPayload(region.ok() && located.found, located.probes);
}

json::Value RunCrashScanCell(const WorkloadOptions&) {
  // Crash-resistant scan vs a CPI-style 4 GiB reservation: tractable.
  sim::Machine machine;
  sim::Process process(&machine);
  core::SafeRegionAllocator allocator(&process, core::TechniqueKind::kInfoHide, /*seed=*/5);
  auto region = allocator.Alloc("cpi-region", uint64_t{4} << 30);
  auto technique = core::CreateTechnique(core::TechniqueKind::kInfoHide);
  attacks::ArbitraryRw rw(&process, technique.get());
  auto located = attacks::CrashResistantScan(rw, sim::kStackTop, kAddressSpaceEnd,
                                             /*stride=*/uint64_t{1} << 30,
                                             /*probe_budget=*/1 << 20);
  return StrategyPayload(region.ok() && located.found, located.probes);
}

json::Value RunThreadSprayCell(const WorkloadOptions&) {
  // Thread spraying vs a 256 KiB region: density makes scanning work.
  sim::Machine machine;
  sim::Process process(&machine);
  core::SafeRegionAllocator allocator(&process, core::TechniqueKind::kInfoHide, /*seed=*/9);
  const uint64_t kRegionBytes = 256 * 1024;
  auto region = allocator.Alloc("original", kRegionBytes);
  auto technique = core::CreateTechnique(core::TechniqueKind::kInfoHide);
  attacks::ArbitraryRw rw(&process, technique.get());
  auto located = attacks::ThreadSprayingAttack(process, rw, allocator, kRegionBytes,
                                               /*spray_count=*/512,
                                               /*probe_budget=*/3'000'000);
  return StrategyPayload(region.ok() && located.found, located.probes);
}

constexpr const char* kStrategyNames[] = {"alloc-oracle", "alloc-oracle-guarded",
                                          "crash-scan-4g", "thread-spray"};

int AssembleAttackMatrix(const WorkloadOptions& options, const std::vector<json::Value>& payloads,
                         ReportBuilder& report) {
  const bool print = options.print;
  if (print) {
    std::printf("\n================================================================\n");
    std::printf("Attack matrix — arbitrary R/W primitive vs every technique\n");
    std::printf("================================================================\n");
    std::printf("%-12s %-9s %-13s %-12s %-12s %s\n", "technique", "located", "oracle probes",
                "read", "write", "notes");
  }
  for (const json::Value& r : payloads[0].items()) {
    const std::string technique = r.StringOr("technique", "");
    const bool located = r.BoolOr("located", false);
    if (print) {
      std::printf("%-12s %-9s %-13llu %-12s %-12s %s\n", technique.c_str(),
                  located ? "yes" : "no",
                  static_cast<unsigned long long>(r.NumberOr("locate_probes", 0)),
                  r.StringOr("read_name", "").c_str(), r.StringOr("write_name", "").c_str(),
                  r.StringOr("detail", "").c_str());
    }
    // The security results are the paper's headline claim; any change in an
    // outcome (e.g. a technique suddenly leaking) is a hard fidelity break.
    const std::string prefix = "attack/" + technique;
    report.AddFidelity(prefix + "/located", located ? 1 : 0, 0.0);
    report.AddFidelity(prefix + "/read_outcome", r.NumberOr("read_outcome", -1), 0.0, NAN,
                       r.StringOr("read_name", ""));
    report.AddFidelity(prefix + "/write_outcome", r.NumberOr("write_outcome", -1), 0.0, NAN,
                       r.StringOr("write_name", ""));
    report.AddPerf(prefix + "/locate_probes", r.NumberOr("locate_probes", 0), 0.5);
  }
  if (print) {
    std::printf("\nDeterministic techniques hand the attacker the region's address and still\n");
    std::printf("hold; the information-hiding baseline is located in a few dozen probes and\n");
    std::printf("fully compromised — no need to hide.\n");
    std::printf("\n%-22s %-7s %s\n", "locate strategy", "found", "probes");
  }
  for (size_t s = 0; s < 4; ++s) {
    const json::Value& row = payloads[1 + s];
    const bool found = row.BoolOr("found", false);
    const double probes = row.NumberOr("probes", 0);
    if (print) {
      std::printf("%-22s %-7s %llu\n", kStrategyNames[s], found ? "yes" : "no",
                  static_cast<unsigned long long>(probes));
    }
    const std::string prefix = std::string("attack/strategy/") + kStrategyNames[s];
    report.AddFidelity(prefix + "/found", found ? 1 : 0, 0.0);
    report.AddFidelity(prefix + "/probes", probes, 0.0);
  }
  if (print) {
    std::printf("\nMapGuard's guard pages skew the oracle's hole measurement: the guarded\n");
    std::printf("victim stays hidden while the unguarded one falls in the same probe budget.\n");
  }
  return 0;
}

// --- fault_matrix ---

eval::FaultCampaignOptions FaultOptionsFromExtra(const WorkloadOptions& options) {
  eval::FaultCampaignOptions fault;
  if (HasExtra(options, "seed")) {
    fault.seed = ExtraU64(options, "seed", fault.seed);
  }
  fault.force_crash = ExtraString(options, "force_crash");
  return fault;
}

// The machine-readable replay spec memsentry_cli consumes. `expected` is
// empty for crashes (replay reproduces the abort) and the containment name
// for escape bundles (replay compares outcomes).
std::string ReplaySpec(const eval::FaultCampaignOptions& options, const char* technique,
                       const char* site, const char* expected) {
  json::Value spec = json::Value::Object();
  spec.Set("kind", "fault_cell");
  spec.Set("technique", technique);
  spec.Set("site", site);
  spec.Set("seed", options.seed);
  if (!options.force_crash.empty()) {
    spec.Set("force_crash", options.force_crash);
  }
  if (expected[0] != '\0') {
    spec.Set("expected", expected);
  }
  return spec.Dump(0);
}

json::Value RunFaultMatrixCell(const WorkloadOptions& wo, core::TechniqueKind kind,
                               sim::FaultSite site) {
  const eval::FaultCampaignOptions options = FaultOptionsFromExtra(wo);
  const char* technique_name = core::TechniqueKindName(kind);
  const char* site_name = sim::FaultSiteName(site);

  // Stage this cell's crash context on the worker thread running it (a
  // no-op unless the process installed the crash handler).
  base::CrashContext context;
  context.binary = "fault_matrix";
  context.cell = std::string(technique_name) + "/" + site_name;
  context.seed = options.seed;
  context.config_json = ExtraString(wo, "config_json");
  context.replay_json = ReplaySpec(options, technique_name, site_name, "");
  base::SetCrashContext(context);

  eval::FaultCellResult cell = eval::RunFaultCell(kind, site, options);

  if (cell.outcome == eval::Containment::kEscaped) {
    // The process survives an escape, so trap-style bundles never fire;
    // write one programmatically with the outcome pinned for replay.
    context.replay_json = ReplaySpec(options, technique_name, site_name, "ESCAPED");
    base::SetCrashContext(context);
    const std::string bundle = base::WriteCrashBundle("fault-matrix-escape");
    if (!bundle.empty()) {
      std::fprintf(stderr, "fault_matrix: escape bundle at %s\n", bundle.c_str());
    }
  }
  base::ClearCrashCell();

  json::Value payload = json::Value::Object();
  payload.Set("technique", technique_name);
  payload.Set("site", site_name);
  payload.Set("outcome", static_cast<int>(cell.outcome));
  payload.Set("outcome_name", eval::ContainmentName(cell.outcome));
  payload.Set("repairs", cell.repairs);
  payload.Set("quarantines", cell.quarantines);
  payload.Set("downgrades", cell.downgrades);
  payload.Set("detail", cell.detail);
  return payload;
}

int AssembleFaultMatrix(const WorkloadOptions& options, const std::vector<json::Value>& payloads,
                        ReportBuilder& report) {
  const eval::FaultCampaignOptions fault = FaultOptionsFromExtra(options);
  if (options.print) {
    PrintHeader("Fault matrix — injected faults vs every technique");
    std::printf("campaign seed: 0x%llx\n", static_cast<unsigned long long>(fault.seed));
    std::printf("%-10s %-26s %-9s %7s %11s %10s  %s\n", "technique", "fault site", "outcome",
                "repairs", "quarantines", "downgrades", "detail");
  }
  int detected = 0, degraded = 0, escaped = 0, repairs = 0, downgrades = 0;
  for (const json::Value& cell : payloads) {
    const int outcome = static_cast<int>(cell.NumberOr("outcome", 2));
    const int cell_repairs = static_cast<int>(cell.NumberOr("repairs", 0));
    const int cell_downgrades = static_cast<int>(cell.NumberOr("downgrades", 0));
    switch (static_cast<eval::Containment>(outcome)) {
      case eval::Containment::kDetected:
        ++detected;
        break;
      case eval::Containment::kDegraded:
        ++degraded;
        break;
      case eval::Containment::kEscaped:
        ++escaped;
        break;
    }
    repairs += cell_repairs;
    downgrades += cell_downgrades;
    if (options.print) {
      std::printf("%-10s %-26s %-9s %7d %11d %10d  %s\n", cell.StringOr("technique", "").c_str(),
                  cell.StringOr("site", "").c_str(), cell.StringOr("outcome_name", "").c_str(),
                  cell_repairs, static_cast<int>(cell.NumberOr("quarantines", 0)),
                  cell_downgrades, cell.StringOr("detail", "").c_str());
    }
    const std::string prefix = "fault/" + cell.StringOr("technique", "") + "/" +
                               cell.StringOr("site", "");
    // Zero tolerance: an outcome shift in any cell (detected->degraded, or
    // worse, anything->escaped) is a containment regression.
    report.AddFidelity(prefix + "/outcome", outcome, 0.0, NAN,
                       cell.StringOr("outcome_name", ""));
    report.AddInfo(prefix + "/repairs", cell_repairs);
    report.AddInfo(prefix + "/downgrades", cell_downgrades);
  }

  report.AddFidelity("fault/escaped_total", escaped, 0.0, NAN,
                     "silent-corruption escapes across the whole matrix");
  report.AddInfo("fault/detected_total", detected);
  report.AddInfo("fault/degraded_total", degraded);
  report.AddInfo("fault/repairs_total", repairs);
  report.AddInfo("fault/downgrades_total", downgrades);
  report.AddInfo("fault/seed", static_cast<double>(fault.seed));

  if (options.print) {
    std::printf("\n%d detected, %d degraded, %d ESCAPED (of %zu cells)\n", detected, degraded,
                escaped, payloads.size());
    std::printf("detected = correct architectural fault or clean errno refusal;\n");
    std::printf("degraded = containment audit repaired/quarantined state or the technique\n");
    std::printf("fell back along its configured chain; any escape is a test failure.\n");
  }
  return escaped > 0 ? 1 : 0;
}

// --- attack_campaigns ---

struct CampaignRun {
  attacks::CampaignSuiteOptions options;
  bool allow_escapes = false;
};

CampaignRun CampaignOptionsFromExtra(const WorkloadOptions& wo) {
  CampaignRun run;
  if (HasExtra(wo, "seed")) {
    run.options.seed = ExtraU64(wo, "seed", run.options.seed);
  }
  if (HasExtra(wo, "campaigns")) {
    // Total across techniques, rounded up to a per-technique count.
    const uint64_t total = ExtraU64(wo, "campaigns", 0);
    run.options.campaigns_per_technique =
        (total + core::kNumTechniques - 1) / core::kNumTechniques;
  }
  if (ExtraString(wo, "policy") == "off") {
    run.options.config.mmap_policy = false;
  }
  if (HasExtra(wo, "skip_audit")) {
    run.options.config.runtime_audit = false;
  }
  if (HasExtra(wo, "step_budget")) {
    run.options.config.step_budget = ExtraU64(wo, "step_budget", run.options.config.step_budget);
  }
  run.allow_escapes = HasExtra(wo, "allow_escapes");
  return run;
}

// One technique's campaigns, in index order: each is a pure function of
// (suite seed, technique, index), so the eight cells are independent.
json::Value RunCampaignTechniqueCell(const WorkloadOptions& wo, int technique) {
  const CampaignRun run = CampaignOptionsFromExtra(wo);
  const auto kind = static_cast<core::TechniqueKind>(technique);
  attacks::CampaignTally tally;
  json::Value anomalies = json::Value::Array();
  for (uint64_t index = 0; index < run.options.campaigns_per_technique; ++index) {
    const uint64_t seed = attacks::CampaignSeed(run.options.seed, kind, index);
    attacks::CampaignSpec spec = attacks::GenerateCampaign(kind, seed, index);
    const attacks::CampaignResult result = attacks::RunCampaign(spec, run.options.config);
    switch (result.outcome) {
      case attacks::CampaignOutcome::kDetected:
        ++tally.detected;
        break;
      case attacks::CampaignOutcome::kDegraded:
        ++tally.degraded;
        break;
      case attacks::CampaignOutcome::kEscaped:
        ++tally.escaped;
        break;
      case attacks::CampaignOutcome::kTimedOut:
        ++tally.timed_out;
        break;
    }
    tally.steps_run += result.steps_run;
    tally.probes += result.probes;
    if (result.outcome == attacks::CampaignOutcome::kEscaped ||
        result.outcome == attacks::CampaignOutcome::kTimedOut) {
      const attacks::CampaignSpec shrunk =
          run.options.shrink_anomalies ? attacks::ShrinkCampaign(spec, run.options.config)
                                       : spec;
      json::Value replay = attacks::CampaignToJson(shrunk, run.options.config, result.outcome);
      replay.Set("original_steps", static_cast<double>(spec.steps.size()));
      json::Value anomaly = json::Value::Object();
      anomaly.Set("replay", std::move(replay));
      anomaly.Set("outcome", static_cast<int>(result.outcome));
      anomaly.Set("outcome_name", attacks::CampaignOutcomeName(result.outcome));
      anomaly.Set("note", result.note);
      anomaly.Set("index", index);
      anomaly.Set("seed_hex", HexString(spec.seed));
      anomaly.Set("orig_steps", static_cast<uint64_t>(spec.steps.size()));
      anomaly.Set("shrunk_steps", static_cast<uint64_t>(shrunk.steps.size()));
      anomalies.Append(std::move(anomaly));
    }
  }
  json::Value payload = json::Value::Object();
  payload.Set("detected", tally.detected);
  payload.Set("degraded", tally.degraded);
  payload.Set("escaped", tally.escaped);
  payload.Set("timed_out", tally.timed_out);
  payload.Set("steps_run", tally.steps_run);
  payload.Set("probes", tally.probes);
  payload.Set("anomalies", std::move(anomalies));
  return payload;
}

int AssembleCampaigns(const WorkloadOptions& options, const std::vector<json::Value>& payloads,
                      ReportBuilder& report) {
  const CampaignRun run = CampaignOptionsFromExtra(options);
  const uint64_t total_campaigns =
      run.options.campaigns_per_technique * core::kNumTechniques;
  if (options.print) {
    PrintHeader("Attack campaigns — seeded generative adversary vs every technique");
    std::printf("suite seed: 0x%llx   campaigns: %llu (%llu per technique)\n",
                static_cast<unsigned long long>(run.options.seed),
                static_cast<unsigned long long>(total_campaigns),
                static_cast<unsigned long long>(run.options.campaigns_per_technique));
    std::printf("mmap policy: %s   runtime audit: %s   step budget: %llu\n",
                run.options.config.mmap_policy ? "strict (MapGuard)" : "OFF",
                run.options.config.runtime_audit ? "on" : "OFF",
                static_cast<unsigned long long>(run.options.config.step_budget));
    std::printf("\n%-10s %9s %9s %9s %10s %10s %10s\n", "technique", "detected", "degraded",
                "ESCAPED", "timed-out", "steps", "probes");
  }
  uint64_t total_detected = 0, total_degraded = 0, total_escaped = 0, total_timed_out = 0;
  for (int k = 0; k < core::kNumTechniques; ++k) {
    const auto kind = static_cast<core::TechniqueKind>(k);
    const json::Value& t = payloads[static_cast<size_t>(k)];
    const double detected = t.NumberOr("detected", 0);
    const double degraded = t.NumberOr("degraded", 0);
    const double escaped = t.NumberOr("escaped", 0);
    const double timed_out = t.NumberOr("timed_out", 0);
    total_detected += static_cast<uint64_t>(detected);
    total_degraded += static_cast<uint64_t>(degraded);
    total_escaped += static_cast<uint64_t>(escaped);
    total_timed_out += static_cast<uint64_t>(timed_out);
    if (options.print) {
      std::printf("%-10s %9llu %9llu %9llu %10llu %10llu %10llu\n",
                  core::TechniqueKindName(kind), static_cast<unsigned long long>(detected),
                  static_cast<unsigned long long>(degraded),
                  static_cast<unsigned long long>(escaped),
                  static_cast<unsigned long long>(timed_out),
                  static_cast<unsigned long long>(t.NumberOr("steps_run", 0)),
                  static_cast<unsigned long long>(t.NumberOr("probes", 0)));
    }
    const std::string prefix = std::string("campaign/") + core::TechniqueKindName(kind);
    // Zero tolerance: any drift in the outcome distribution — one campaign
    // flipping detected->degraded, or worse, anything->escaped — is a
    // containment regression against the committed baseline.
    report.AddFidelity(prefix + "/detected", detected, 0.0);
    report.AddFidelity(prefix + "/degraded", degraded, 0.0);
    report.AddFidelity(prefix + "/escaped", escaped, 0.0, NAN,
                       "silent escapes; pinned at zero under the default config");
    report.AddFidelity(prefix + "/timed_out", timed_out, 0.0);
    report.AddFidelity(prefix + "/steps_run", t.NumberOr("steps_run", 0), 0.0);
    report.AddInfo(prefix + "/probes", t.NumberOr("probes", 0));
  }
  report.AddFidelity("campaign/escaped_total", static_cast<double>(total_escaped), 0.0, NAN,
                     "escapes across all generated campaigns");
  report.AddFidelity("campaign/timed_out_total", static_cast<double>(total_timed_out), 0.0);
  report.AddInfo("campaign/seed", static_cast<double>(run.options.seed));
  report.AddInfo("campaign/total", static_cast<double>(total_campaigns));

  // Every anomaly becomes a crash bundle: the shrunk (1-minimal) spec is the
  // replay payload, the original spec rides along for forensics.
  for (int k = 0; k < core::kNumTechniques; ++k) {
    const auto kind = static_cast<core::TechniqueKind>(k);
    const json::Value* anomalies = payloads[static_cast<size_t>(k)].Find("anomalies");
    if (anomalies == nullptr) {
      continue;
    }
    for (const json::Value& anomaly : anomalies->items()) {
      const std::string label =
          std::string(core::TechniqueKindName(kind)) + "/campaign-" +
          std::to_string(static_cast<uint64_t>(anomaly.NumberOr("index", 0)));
      base::CrashContext context;
      context.binary = "attack_campaigns";
      context.cell = label;
      context.seed = HexU64(anomaly, "seed_hex");
      context.config_json = ExtraString(options, "config_json");
      const json::Value* replay = anomaly.Find("replay");
      context.replay_json = replay != nullptr ? replay->Dump(0) : "";
      base::SetCrashContext(context);
      const std::string bundle = base::WriteCrashBundle(
          static_cast<attacks::CampaignOutcome>(static_cast<int>(
              anomaly.NumberOr("outcome", 0))) == attacks::CampaignOutcome::kEscaped
              ? "attack-campaign-escape"
              : "attack-campaign-timeout");
      base::ClearCrashCell();
      if (options.print) {
        std::printf("%s: %s %s (%zu steps, shrunk to %zu) — %s\n",
                    anomaly.StringOr("outcome_name", "").c_str(), label.c_str(),
                    bundle.empty() ? "(bundle write failed)" : bundle.c_str(),
                    static_cast<size_t>(anomaly.NumberOr("orig_steps", 0)),
                    static_cast<size_t>(anomaly.NumberOr("shrunk_steps", 0)),
                    anomaly.StringOr("note", "").c_str());
      }
    }
  }

  if (options.print) {
    std::printf("\n%llu detected, %llu degraded, %llu ESCAPED, %llu timed out (of %llu)\n",
                static_cast<unsigned long long>(total_detected),
                static_cast<unsigned long long>(total_degraded),
                static_cast<unsigned long long>(total_escaped),
                static_cast<unsigned long long>(total_timed_out),
                static_cast<unsigned long long>(total_campaigns));
    std::printf("detected = faulted/refused/diverted; degraded = audit repaired state;\n");
    std::printf("any escape under the default configuration is a test failure and is\n");
    std::printf("written as a replayable crash bundle (memsentry_cli replay-campaign).\n");
  }
  if (total_escaped > 0 && !run.allow_escapes) {
    return 1;
  }
  return 0;
}

// --- server_workload ---

std::vector<int> ServerTenantCounts(bool quick) {
  std::vector<int> tenant_counts = {1, 10, 100, 1000};
  if (!quick) {
    tenant_counts.push_back(10000);
  }
  return tenant_counts;
}

json::Value RunServerCell(int tenants, workloads::ServerTechnique technique) {
  workloads::ServerConfig config;
  config.tenants = tenants;
  config.technique = technique;
  const workloads::ServerResult r = workloads::RunServerWorkload(config);
  json::Value payload = json::Value::Object();
  payload.Set("requests", r.requests);
  payload.Set("faults", r.faults);
  payload.Set("total_cycles", static_cast<double>(r.total_cycles));
  payload.Set("requests_per_sec", r.requests_per_sec);
  payload.Set("p50_latency", static_cast<double>(r.p50_latency));
  payload.Set("p99_latency", static_cast<double>(r.p99_latency));
  payload.Set("p999_latency", static_cast<double>(r.p999_latency));
  payload.Set("tlb_hit_rate", r.tlb_hit_rate);
  payload.Set("grant_hit_rate", r.grant_hit_rate);
  payload.Set("context_switches", r.context_switches);
  payload.Set("preemptions", r.preemptions);
  payload.Set("syscalls", r.syscalls);
  payload.Set("resident_vpids", r.resident_vpids);
  payload.Set("digest_hex", HexString(r.digest));
  return payload;
}

int AssembleServer(const WorkloadOptions& options, const std::vector<json::Value>& payloads,
                   ReportBuilder& report) {
  const workloads::ServerConfig base;
  const std::vector<int> tenant_counts = ServerTenantCounts(options.quick);
  const auto techniques = workloads::AllServerTechniques();
  if (options.print) {
    PrintHeader("multi-tenant server workload (open-loop, per-technique scaling)");
    std::printf("%-10s %8s %14s %12s %12s %12s %8s %8s\n", "technique", "tenants", "req/s",
                "p50 cyc", "p99 cyc", "p999 cyc", "tlb-hit", "switches");
  }
  size_t i = 0;
  for (int tenants : tenant_counts) {
    for (workloads::ServerTechnique technique : techniques) {
      const json::Value& r = payloads[i++];
      const std::string prefix = std::string("server/") +
                                 workloads::ServerTechniqueName(technique) + "/t" +
                                 std::to_string(tenants);
      // Everything here is modeled (deterministic) cycles, so throughput and
      // tail latency are fidelity-kind: a perturbation is a real behavioral
      // change, not host noise — exactly what the CI gate must catch.
      report.AddFidelity(prefix + "/requests_per_sec", r.NumberOr("requests_per_sec", 0),
                         eval::kGeomeanTol);
      report.AddFidelity(prefix + "/p50_cycles", r.NumberOr("p50_latency", 0), eval::kGeomeanTol);
      report.AddFidelity(prefix + "/p99_cycles", r.NumberOr("p99_latency", 0), eval::kGeomeanTol);
      report.AddFidelity(prefix + "/p999_cycles", r.NumberOr("p999_latency", 0),
                         eval::kGeomeanTol);
      report.AddFidelity(prefix + "/faults", r.NumberOr("faults", 0), 0.0);
      report.AddPerf(prefix + "/total_cycles", r.NumberOr("total_cycles", 0));
      report.AddInfo(prefix + "/tlb_hit_rate", r.NumberOr("tlb_hit_rate", 0));
      report.AddInfo(prefix + "/grant_hit_rate", r.NumberOr("grant_hit_rate", 0));
      report.AddInfo(prefix + "/context_switches", r.NumberOr("context_switches", 0));
      report.AddInfo(prefix + "/preemptions", r.NumberOr("preemptions", 0));
      report.AddInfo(prefix + "/resident_vpids", r.NumberOr("resident_vpids", 0));
      // Low 53 bits of the per-tenant digest (exactly representable in a
      // double). Info-kind: run-to-run bit-identity is enforced by the
      // determinism tests, not by the baseline gate.
      report.AddInfo(prefix + "/digest53",
                     static_cast<double>(HexU64(r, "digest_hex") & ((uint64_t{1} << 53) - 1)));
      if (options.print) {
        std::printf("%-10s %8d %14.0f %12.0f %12.0f %12.0f %7.1f%% %8llu\n",
                    workloads::ServerTechniqueName(technique), tenants,
                    r.NumberOr("requests_per_sec", 0), r.NumberOr("p50_latency", 0),
                    r.NumberOr("p99_latency", 0), r.NumberOr("p999_latency", 0),
                    100.0 * r.NumberOr("tlb_hit_rate", 0),
                    static_cast<unsigned long long>(r.NumberOr("context_switches", 0)));
      }
    }
  }
  if (options.print) {
    std::printf("(modeled cycles at the calibrated 4 GHz clock; open-loop load %.0f%%;\n"
                " VMFUNC omitted: one EPT per tenant exceeds the 512-entry EPTP list)\n",
                100.0 * base.offered_load);
  }
  return 0;
}

}  // namespace

void RegisterAdversaryWorkloads(eval::WorkloadRegistry& registry) {
  {
    Workload w;
    w.name = "attack_matrix";
    w.cells = [](const WorkloadOptions&) {
      return std::vector<WorkloadCell>{
          {"matrix", RunAttackMatrixCell},
          {"alloc-oracle", RunAllocOracleCell},
          {"alloc-oracle-guarded", RunAllocOracleGuardedCell},
          {"crash-scan-4g", RunCrashScanCell},
          {"thread-spray", RunThreadSprayCell},
      };
    };
    w.assemble = AssembleAttackMatrix;
    registry.Register(std::move(w));
  }
  {
    Workload w;
    w.name = "fault_matrix";
    w.cells = [](const WorkloadOptions&) {
      std::vector<WorkloadCell> cells;
      for (const auto& [kind, site] : eval::FaultMatrixCells()) {
        const std::string name =
            std::string(core::TechniqueKindName(kind)) + "/" + sim::FaultSiteName(site);
        cells.push_back({name, [kind = kind, site = site](const WorkloadOptions& wo) {
                           return RunFaultMatrixCell(wo, kind, site);
                         }});
      }
      return cells;
    };
    w.assemble = AssembleFaultMatrix;
    registry.Register(std::move(w));
  }
  {
    Workload w;
    w.name = "attack_campaigns";
    w.cells = [](const WorkloadOptions&) {
      std::vector<WorkloadCell> cells;
      for (int k = 0; k < core::kNumTechniques; ++k) {
        cells.push_back({core::TechniqueKindName(static_cast<core::TechniqueKind>(k)),
                         [k](const WorkloadOptions& wo) {
                           return RunCampaignTechniqueCell(wo, k);
                         }});
      }
      return cells;
    };
    w.assemble = AssembleCampaigns;
    registry.Register(std::move(w));
  }
  {
    Workload w;
    w.name = "server_workload";
    w.cells = [](const WorkloadOptions& options) {
      std::vector<WorkloadCell> cells;
      for (int tenants : ServerTenantCounts(options.quick)) {
        for (workloads::ServerTechnique technique : workloads::AllServerTechniques()) {
          const std::string name = std::string(workloads::ServerTechniqueName(technique)) +
                                   "/t" + std::to_string(tenants);
          cells.push_back({name, [tenants, technique](const WorkloadOptions&) {
                             return RunServerCell(tenants, technique);
                           }});
        }
      }
      return cells;
    };
    w.assemble = AssembleServer;
    registry.Register(std::move(w));
  }
}

}  // namespace memsentry::suite
