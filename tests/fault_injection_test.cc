// Tests for the deterministic fault-injection campaign: the injector's
// determinism and applicability checks, the containment audit's repairs, the
// fallback chain's downgrade path, the zero-escape property of the standard
// matrix, bit-for-bit replay, and the end-to-end claim that a deliberately
// injected escape (the skip-audit test hook) fails the regression gate.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/json.h"
#include "src/core/advisor.h"
#include "src/core/memsentry.h"
#include "src/eval/fault_campaign.h"
#include "src/eval/regression_gate.h"
#include "src/sim/fault_injector.h"
#include "src/sim/kernel.h"

namespace memsentry {
namespace {

using eval::Containment;
using eval::FaultCampaignOptions;
using eval::FaultCampaignResult;
using eval::FaultCellResult;
using sim::FaultSite;

constexpr uint64_t kSecret = 0x5ec4e7c0de5ec4e7ULL;

// A minimal victim: one technique, one secret-bearing safe region, prepared.
struct Victim {
  sim::Machine machine;
  sim::Process process{&machine};
  std::unique_ptr<core::MemSentry> memsentry;
  VirtAddr base = 0;

  explicit Victim(core::TechniqueKind kind) { Init(kind); }

 private:
  // ASSERT_* must live in a void function, not a constructor.
  void Init(core::TechniqueKind kind) {
    if (kind == core::TechniqueKind::kVmfunc) {
      ASSERT_TRUE(process.EnableDune().ok());
    }
    ASSERT_TRUE(process.SetupStack().ok());
    core::MemSentryConfig config;
    config.technique = kind;
    memsentry = std::make_unique<core::MemSentry>(&process, config);
    auto region = memsentry->allocator().Alloc("secret", 4096);
    ASSERT_TRUE(region.ok());
    base = region.value()->base;
    ASSERT_TRUE(process.Poke64(base, kSecret).ok());
    ASSERT_TRUE(memsentry->PrepareRuntime().ok());
  }
};

// ---------------------------------------------------------------- injector --

TEST(FaultInjector, InjectionsAreSeedDeterministic) {
  auto run = [](uint64_t seed) {
    Victim victim(core::TechniqueKind::kMpk);
    sim::FaultInjector injector(&victim.process, seed);
    auto injected = injector.Inject(FaultSite::kPtePkeyFlip);
    EXPECT_TRUE(injected.ok());
    return injected.ok() ? injected.value() : sim::Injection{};
  };
  const sim::Injection a = run(42);
  const sim::Injection b = run(42);
  EXPECT_EQ(a.address, b.address);
  EXPECT_EQ(a.before, b.before);
  EXPECT_EQ(a.after, b.after);
  EXPECT_EQ(a.detail, b.detail);
  // A different seed is allowed to (and here does) pick a different key.
  const sim::Injection c = run(43);
  EXPECT_EQ(a.address, c.address);  // one region, one page: same victim page
}

TEST(FaultInjector, RejectsInapplicableSites) {
  Victim victim(core::TechniqueKind::kMpk);
  sim::FaultInjector injector(&victim.process, 1);
  // No Dune, no encrypted region, no kernel hooked up.
  EXPECT_EQ(injector.Inject(FaultSite::kEptMappingDrop).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(injector.Inject(FaultSite::kAesRoundKeyClobber).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(injector.Inject(FaultSite::kSyscallMmapEnomem).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(injector.injections().empty());
}

TEST(FaultInjector, PkeyFlipNeverPicksTheOriginalKey) {
  // The flip must change the key (a no-op injection would silently pass
  // every audit); exercised across many seeds.
  for (uint64_t seed = 0; seed < 32; ++seed) {
    Victim victim(core::TechniqueKind::kMpk);
    sim::FaultInjector injector(&victim.process, seed);
    auto injected = injector.Inject(FaultSite::kPtePkeyFlip);
    ASSERT_TRUE(injected.ok());
    EXPECT_NE(injected.value().before, injected.value().after) << "seed " << seed;
  }
}

// ------------------------------------------------------------------- audit --

TEST(ContainmentAudit, RepairsPkruDesync) {
  Victim victim(core::TechniqueKind::kMpk);
  sim::FaultInjector injector(&victim.process, 7);
  ASSERT_TRUE(injector.Inject(FaultSite::kPkruDesync).ok());
  // Desynced: the attacker's ordinary read would now succeed.
  auto leaked = victim.memsentry->technique().AttackerRead(victim.process, victim.base);
  ASSERT_TRUE(leaked.ok());
  EXPECT_EQ(leaked.value(), kSecret);

  const auto issues = victim.memsentry->technique().AuditProtection(victim.process);
  ASSERT_FALSE(issues.empty());
  EXPECT_TRUE(issues[0].repaired);
  auto after = victim.memsentry->technique().AttackerRead(victim.process, victim.base);
  EXPECT_FALSE(after.ok());
}

TEST(ContainmentAudit, InvalidatesStaleTlbEntries) {
  Victim victim(core::TechniqueKind::kMprotect);
  sim::FaultInjector injector(&victim.process, 7);
  ASSERT_TRUE(injector.Inject(FaultSite::kTlbStaleEntry).ok());
  auto leaked = victim.memsentry->technique().AttackerRead(victim.process, victim.base);
  ASSERT_TRUE(leaked.ok());
  EXPECT_EQ(leaked.value(), kSecret);

  const auto issues = victim.memsentry->technique().AuditProtection(victim.process);
  ASSERT_FALSE(issues.empty());
  EXPECT_TRUE(issues[0].repaired);
  auto after = victim.memsentry->technique().AttackerRead(victim.process, victim.base);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.fault().type, machine::FaultType::kUserSupervisor);
}

TEST(ContainmentAudit, QuarantinesClobberedRoundKeys) {
  Victim victim(core::TechniqueKind::kCrypt);
  sim::FaultInjector injector(&victim.process, 7);
  ASSERT_TRUE(injector.Inject(FaultSite::kAesRoundKeyClobber).ok());
  const auto issues = victim.memsentry->technique().AuditProtection(victim.process);
  ASSERT_FALSE(issues.empty());
  // Clobbered key material cannot be repaired — only contained.
  EXPECT_FALSE(issues[0].repaired);
}

TEST(ContainmentAudit, CleanProcessAuditsClean) {
  for (const auto kind : {core::TechniqueKind::kMpk, core::TechniqueKind::kMpx,
                          core::TechniqueKind::kCrypt, core::TechniqueKind::kMprotect}) {
    Victim victim(kind);
    EXPECT_TRUE(victim.memsentry->technique().AuditProtection(victim.process).empty())
        << core::TechniqueKindName(kind);
  }
}

// ---------------------------------------------------------------- fallback --

TEST(FallbackChain, MpkExhaustionDegradesToSfi) {
  sim::Machine machine;
  sim::Process process(&machine);
  ASSERT_TRUE(process.SetupStack().ok());
  core::MemSentryConfig config;
  config.technique = core::TechniqueKind::kMpk;
  config.fallbacks = core::DefaultFallbackChain(core::TechniqueKind::kMpk);
  core::MemSentry memsentry(&process, config);
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(memsentry.allocator().Alloc("r" + std::to_string(i), 4096).ok());
  }
  ASSERT_TRUE(memsentry.PrepareRuntime().ok());
  EXPECT_EQ(memsentry.active_technique(), core::TechniqueKind::kSfi);
  ASSERT_EQ(memsentry.downgrades().size(), 1u);
  EXPECT_EQ(memsentry.downgrades()[0].from, core::TechniqueKind::kMpk);
  EXPECT_EQ(memsentry.downgrades()[0].to, core::TechniqueKind::kSfi);
}

TEST(FallbackChain, StrictConfigStillFailsClosed) {
  sim::Machine machine;
  sim::Process process(&machine);
  ASSERT_TRUE(process.SetupStack().ok());
  core::MemSentry memsentry(&process, {.technique = core::TechniqueKind::kMpk});
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(memsentry.allocator().Alloc("r" + std::to_string(i), 4096).ok());
  }
  EXPECT_EQ(memsentry.PrepareRuntime().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(memsentry.downgrades().empty());
}

TEST(FallbackChain, MissingDuneDegradesVmfuncToMpk) {
  sim::Machine machine;
  sim::Process process(&machine);  // Dune never enabled
  ASSERT_TRUE(process.SetupStack().ok());
  core::MemSentryConfig config;
  config.technique = core::TechniqueKind::kVmfunc;
  config.fallbacks = core::DefaultFallbackChain(core::TechniqueKind::kVmfunc);
  core::MemSentry memsentry(&process, config);
  ASSERT_TRUE(memsentry.allocator().Alloc("secret", 4096).ok());
  ASSERT_TRUE(memsentry.PrepareRuntime().ok());
  EXPECT_EQ(memsentry.active_technique(), core::TechniqueKind::kMpk);
  ASSERT_EQ(memsentry.downgrades().size(), 1u);
}

// ---------------------------------------------------------------- campaign --

TEST(FaultCampaign, StandardMatrixHasZeroEscapes) {
  const FaultCampaignResult campaign = eval::RunFaultCampaign({});
  EXPECT_EQ(campaign.cells.size(), eval::FaultMatrixCells().size());
  EXPECT_EQ(campaign.escaped, 0);
  for (const auto& cell : campaign.cells) {
    EXPECT_NE(cell.outcome, Containment::kEscaped)
        << core::TechniqueKindName(cell.technique) << "/" << sim::FaultSiteName(cell.site)
        << ": " << cell.detail;
  }
  EXPECT_EQ(campaign.detected + campaign.degraded,
            static_cast<int>(campaign.cells.size()));
  // The audit and the fallback chain both earn their keep somewhere.
  EXPECT_GT(campaign.repairs, 0);
  EXPECT_GT(campaign.downgrades, 0);
}

TEST(FaultCampaign, ReplaysBitForBit) {
  const FaultCampaignResult a = eval::RunFaultCampaign({});
  const FaultCampaignResult b = eval::RunFaultCampaign({});
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].outcome, b.cells[i].outcome);
    EXPECT_EQ(a.cells[i].cell_seed, b.cells[i].cell_seed);
    EXPECT_EQ(a.cells[i].repairs, b.cells[i].repairs);
    EXPECT_EQ(a.cells[i].quarantines, b.cells[i].quarantines);
    EXPECT_EQ(a.cells[i].downgrades, b.cells[i].downgrades);
    EXPECT_EQ(a.cells[i].detail, b.cells[i].detail);
  }
}

TEST(FaultCampaign, CellsAreOrderIndependent) {
  // A cell run standalone replays exactly its in-matrix result: per-cell
  // seeds derive from names, not from execution order.
  const FaultCampaignOptions options;
  const FaultCampaignResult campaign = eval::RunFaultCampaign(options);
  for (const size_t i : {size_t{0}, campaign.cells.size() / 2, campaign.cells.size() - 1}) {
    const FaultCellResult& in_matrix = campaign.cells[i];
    const FaultCellResult alone =
        eval::RunFaultCell(in_matrix.technique, in_matrix.site, options);
    EXPECT_EQ(alone.outcome, in_matrix.outcome);
    EXPECT_EQ(alone.cell_seed, in_matrix.cell_seed);
    EXPECT_EQ(alone.detail, in_matrix.detail);
  }
}

TEST(FaultCampaign, SkippedAuditLetsDesyncFaultsEscape) {
  // The test-only escape hook: without the containment audit, the desync
  // sites (stale TLB, PKRU, widened bounds, clobbered keys) leak or corrupt.
  FaultCampaignOptions options;
  options.skip_containment_audit = true;
  const FaultCampaignResult campaign = eval::RunFaultCampaign(options);
  EXPECT_GT(campaign.escaped, 0);
  bool pkru_escaped = false;
  for (const auto& cell : campaign.cells) {
    if (cell.technique == core::TechniqueKind::kMpk && cell.site == FaultSite::kPkruDesync) {
      pkru_escaped = cell.outcome == Containment::kEscaped;
    }
  }
  EXPECT_TRUE(pkru_escaped) << "unaudited PKRU desync must leak";
}

// ------------------------------------------------------------------- gate --

json::Value CampaignMetricsDoc(const FaultCampaignResult& campaign) {
  // Mirrors the fault_matrix workload's metric naming and kinds.
  json::Value metrics = json::Value::Object();
  const auto add = [&metrics](const std::string& name, double value) {
    json::Value entry = json::Value::Object();
    entry.Set("value", value);
    entry.Set("kind", "fidelity");
    entry.Set("tol", 0.0);
    metrics.Set(name, std::move(entry));
  };
  for (const auto& cell : campaign.cells) {
    add(std::string("fault/") + core::TechniqueKindName(cell.technique) + "/" +
            sim::FaultSiteName(cell.site) + "/outcome",
        static_cast<double>(static_cast<int>(cell.outcome)));
  }
  add("fault/escaped_total", campaign.escaped);
  json::Value doc = json::Value::Object();
  doc.Set("metrics", std::move(metrics));
  return doc;
}

TEST(FaultCampaign, InjectedEscapeFailsTheRegressionGate) {
  const json::Value baseline = CampaignMetricsDoc(eval::RunFaultCampaign({}));
  // Clean run vs clean baseline: the gate passes.
  EXPECT_TRUE(eval::CompareAgainstBaseline(baseline, baseline).ok());

  FaultCampaignOptions options;
  options.skip_containment_audit = true;
  const json::Value escaped = CampaignMetricsDoc(eval::RunFaultCampaign(options));
  const eval::GateReport report = eval::CompareAgainstBaseline(escaped, baseline);
  EXPECT_FALSE(report.ok());
  bool total_flagged = false;
  for (const auto& issue : report.issues) {
    total_flagged = total_flagged || (issue.metric == "fault/escaped_total" &&
                                      issue.severity == eval::Severity::kFailure);
  }
  EXPECT_TRUE(total_flagged) << "escape count must be a gated fidelity failure";
}

}  // namespace
}  // namespace memsentry
