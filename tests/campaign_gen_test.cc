// The generative campaign engine (src/attacks/campaign_gen.h): determinism
// of generation and execution, zero escapes through the registered
// workload, shrinker minimality, replay round-trips through the serialized
// spec, and the outcome classification's edges (timeouts, audit-off
// escapes, and the conservative no-signal default).
#include "src/attacks/campaign_gen.h"

#include <gtest/gtest.h>

#include <string>

#include "src/base/json.h"
#include "src/eval/campaign_engine.h"
#include "src/suite/workloads.h"

namespace memsentry::attacks {
namespace {

TEST(CampaignSeedTest, MixesTechniqueAndIndexOrderIndependently) {
  const uint64_t suite = 0xca3a16e5ULL;
  EXPECT_EQ(CampaignSeed(suite, core::TechniqueKind::kMpk, 3),
            CampaignSeed(suite, core::TechniqueKind::kMpk, 3));
  EXPECT_NE(CampaignSeed(suite, core::TechniqueKind::kMpk, 3),
            CampaignSeed(suite, core::TechniqueKind::kMpk, 4));
  EXPECT_NE(CampaignSeed(suite, core::TechniqueKind::kMpk, 3),
            CampaignSeed(suite, core::TechniqueKind::kSfi, 3));
  EXPECT_NE(CampaignSeed(suite, core::TechniqueKind::kMpk, 3),
            CampaignSeed(suite ^ 1, core::TechniqueKind::kMpk, 3));
}

TEST(CampaignGenTest, GenerationIsAPureFunctionOfSeed) {
  for (int k = 0; k < core::kNumTechniques; ++k) {
    const auto kind = static_cast<core::TechniqueKind>(k);
    const uint64_t seed = CampaignSeed(7, kind, 11);
    const CampaignSpec a = GenerateCampaign(kind, seed, 11);
    const CampaignSpec b = GenerateCampaign(kind, seed, 11);
    EXPECT_EQ(a, b) << core::TechniqueKindName(kind);
    ASSERT_GE(a.steps.size(), 3u);  // 2..7 drawn steps + the cash-out
    EXPECT_EQ(a.steps.back().kind, StepKind::kCashOut);
  }
}

TEST(CampaignGenTest, ExecutionIsDeterministicForAFixedSpec) {
  for (int k = 0; k < core::kNumTechniques; ++k) {
    const auto kind = static_cast<core::TechniqueKind>(k);
    const CampaignSpec spec = GenerateCampaign(kind, CampaignSeed(3, kind, 0), 0);
    const CampaignConfig config;
    const CampaignResult a = RunCampaign(spec, config);
    const CampaignResult b = RunCampaign(spec, config);
    EXPECT_EQ(a.outcome, b.outcome) << core::TechniqueKindName(kind);
    EXPECT_EQ(a.steps_run, b.steps_run);
    EXPECT_EQ(a.budget_used, b.budget_used);
    EXPECT_EQ(a.probes, b.probes);
    EXPECT_EQ(a.repairs, b.repairs);
    EXPECT_EQ(a.note, b.note);
  }
}

// The registered attack_campaigns workload's cells under the default
// configuration: six campaigns per technique, and not one escapes.
TEST(CampaignSuiteTest, DefaultConfigurationHasZeroEscapes) {
  const eval::Workload* workload = suite::FindSuiteWorkload("attack_campaigns");
  ASSERT_NE(workload, nullptr);
  eval::WorkloadOptions options;
  options.extra["campaigns"] = std::to_string(6 * core::kNumTechniques);
  double campaigns = 0;
  double escaped = 0;
  for (const eval::WorkloadCell& cell : workload->cells(options)) {
    const json::Value payload = cell.run(options);
    for (const char* outcome : {"detected", "degraded", "escaped", "timed_out"}) {
      campaigns += payload.NumberOr(outcome, 0);
    }
    escaped += payload.NumberOr("escaped", -1);
  }
  EXPECT_EQ(campaigns, 6 * core::kNumTechniques);
  EXPECT_EQ(escaped, 0);
}

// Runs one technique's cell of the registered attack_campaigns workload.
json::Value RunTechniqueCell(const eval::WorkloadOptions& options, core::TechniqueKind kind) {
  const eval::Workload* workload = suite::FindSuiteWorkload("attack_campaigns");
  EXPECT_NE(workload, nullptr);
  for (const eval::WorkloadCell& cell : workload->cells(options)) {
    if (cell.name == core::TechniqueKindName(kind)) {
      return cell.run(options);
    }
  }
  ADD_FAILURE() << "no cell for " << core::TechniqueKindName(kind);
  return json::Value::Object();
}

// Information hiding's step-budget timeouts are the expected result of a
// blind search: the default-size suite counts all 25, but lists none as an
// anomaly, so none is shrunk or written as a crash bundle.
TEST(CampaignSuiteTest, InfoHidingTimeoutsAreCountedNotAnomalies) {
  const json::Value payload = RunTechniqueCell({}, core::TechniqueKind::kInfoHide);
  EXPECT_EQ(payload.NumberOr("timed_out", -1), 25);
  EXPECT_EQ(payload.NumberOr("escaped", -1), 0);
  const json::Value* anomalies = payload.Find("anomalies");
  ASSERT_NE(anomalies, nullptr);
  EXPECT_TRUE(anomalies->items().empty());
}

// With the mmap policy and the audit off, escapes are still listed as
// anomalies, each with its shrunk replay spec.
TEST(CampaignSuiteTest, WeakenedEscapesAreStillAnomalies) {
  eval::WorkloadOptions options;
  options.extra["campaigns"] = std::to_string(10 * core::kNumTechniques);
  options.extra["policy"] = "off";
  options.extra["skip_audit"] = "1";
  double escaped = 0;
  size_t listed = 0;
  for (int k = 0; k < core::kNumTechniques; ++k) {
    const json::Value payload = RunTechniqueCell(options, static_cast<core::TechniqueKind>(k));
    escaped += payload.NumberOr("escaped", 0);
    const json::Value* anomalies = payload.Find("anomalies");
    ASSERT_NE(anomalies, nullptr);
    for (const json::Value& anomaly : anomalies->items()) {
      EXPECT_EQ(anomaly.StringOr("outcome_name", ""), "ESCAPED");
      EXPECT_NE(anomaly.Find("replay"), nullptr);
      ++listed;
    }
  }
  EXPECT_GT(escaped, 0);
  EXPECT_EQ(static_cast<double>(listed), escaped);
}

// Finds one escaping generated campaign under a weakened config. The
// audit-off configuration reliably leaks through gate races within the first
// few MPK campaigns.
CampaignSpec FindEscape(const CampaignConfig& config) {
  for (uint64_t index = 0; index < 64; ++index) {
    const uint64_t seed = CampaignSeed(0xca3a16e5ULL, core::TechniqueKind::kMpk, index);
    CampaignSpec spec = GenerateCampaign(core::TechniqueKind::kMpk, seed, index);
    if (RunCampaign(spec, config).outcome == CampaignOutcome::kEscaped) {
      return spec;
    }
  }
  return CampaignSpec{};
}

TEST(CampaignShrinkTest, ProducesMinimalStillEscapingReproducer) {
  CampaignConfig weakened;
  weakened.runtime_audit = false;
  const CampaignSpec spec = FindEscape(weakened);
  ASSERT_FALSE(spec.steps.empty()) << "no escaping campaign found under audit-off";

  const CampaignResult original = RunCampaign(spec, weakened);
  const CampaignSpec shrunk = ShrinkCampaign(spec, weakened);
  ASSERT_FALSE(shrunk.steps.empty());
  EXPECT_LE(shrunk.steps.size(), spec.steps.size());

  // The shrunk spec still reproduces the exact escape signature...
  const CampaignResult replay = RunCampaign(shrunk, weakened);
  EXPECT_EQ(replay.outcome, original.outcome);
  EXPECT_EQ(replay.leaked, original.leaked);
  EXPECT_EQ(replay.corrupted, original.corrupted);
  EXPECT_EQ(replay.exec_hijack, original.exec_hijack);

  // ...and is 1-minimal: removing any single remaining step changes it.
  for (size_t i = 0; i < shrunk.steps.size() && shrunk.steps.size() > 1; ++i) {
    CampaignSpec candidate = shrunk;
    candidate.steps.erase(candidate.steps.begin() + static_cast<long>(i));
    const CampaignResult r = RunCampaign(candidate, weakened);
    EXPECT_FALSE(r.outcome == original.outcome && r.leaked == original.leaked &&
                 r.corrupted == original.corrupted &&
                 r.exec_hijack == original.exec_hijack)
        << "step " << i << " was removable";
  }
}

TEST(CampaignReplayTest, JsonRoundTripReproducesTheOutcome) {
  CampaignConfig weakened;
  weakened.runtime_audit = false;
  const CampaignSpec spec = FindEscape(weakened);
  ASSERT_FALSE(spec.steps.empty());
  const CampaignResult original = RunCampaign(spec, weakened);

  const json::Value doc = CampaignToJson(spec, weakened, original.outcome);
  auto parsed_json = json::Parse(doc.Dump(0));
  ASSERT_TRUE(parsed_json.ok()) << parsed_json.status().ToString();
  auto parsed = CampaignFromJson(*parsed_json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  EXPECT_EQ(parsed->spec, spec);  // bit-for-bit through the hex encoding
  EXPECT_EQ(parsed->config.mmap_policy, weakened.mmap_policy);
  EXPECT_EQ(parsed->config.runtime_audit, weakened.runtime_audit);
  EXPECT_EQ(parsed->config.step_budget, weakened.step_budget);
  EXPECT_EQ(parsed->expected, original.outcome);
  EXPECT_EQ(RunCampaign(parsed->spec, parsed->config).outcome, original.outcome);
}

TEST(CampaignReplayTest, RejectsForeignOrMangledSpecs) {
  json::Value not_campaign = json::Value::Object();
  not_campaign.Set("kind", "fault_cell");
  EXPECT_FALSE(CampaignFromJson(not_campaign).ok());

  json::Value bad_step = CampaignToJson(
      GenerateCampaign(core::TechniqueKind::kSfi, 1, 0), CampaignConfig{},
      CampaignOutcome::kDetected);
  bad_step.Find("steps")->items()[0].Set("op", "warp-drive");
  EXPECT_FALSE(CampaignFromJson(bad_step).ok());
}

TEST(CampaignOutcomeTest, ExhaustedBudgetClassifiesAsTimeout) {
  CampaignSpec spec;
  spec.technique = core::TechniqueKind::kSfi;
  spec.seed = 5;
  // A sweep far larger than the budget, with no escape signal available.
  spec.steps = {CampaignStep{StepKind::kProbeSweep, /*a=*/1, /*b=*/1, /*c=*/64}};
  CampaignConfig config;
  config.step_budget = 8;
  const CampaignResult result = RunCampaign(spec, config);
  EXPECT_EQ(result.outcome, CampaignOutcome::kTimedOut);
  EXPECT_GT(result.budget_used, config.step_budget);
}

TEST(CampaignOutcomeTest, GateRaceEscapesOnlyWithoutTheAudit) {
  CampaignSpec spec;
  spec.technique = core::TechniqueKind::kMpk;
  spec.seed = 9;
  spec.steps = {CampaignStep{StepKind::kGateRace, 0, 0, 0}};

  CampaignConfig audited;
  const CampaignResult held = RunCampaign(spec, audited);
  EXPECT_EQ(held.outcome, CampaignOutcome::kDegraded);  // audit repaired the window
  EXPECT_GT(held.repairs, 0);
  EXPECT_FALSE(held.leaked);

  CampaignConfig weakened;
  weakened.runtime_audit = false;
  const CampaignResult escaped = RunCampaign(spec, weakened);
  EXPECT_EQ(escaped.outcome, CampaignOutcome::kEscaped);
  EXPECT_TRUE(escaped.leaked);
}

TEST(CampaignOutcomeTest, NoSignalClassifiesAsConservativeEscape) {
  // An empty campaign produces no containment signal at all; the classifier
  // must refuse to call that a success for the defense.
  CampaignSpec spec;
  spec.technique = core::TechniqueKind::kSfi;
  spec.seed = 1;
  const CampaignResult result = RunCampaign(spec, CampaignConfig{});
  EXPECT_EQ(result.outcome, CampaignOutcome::kEscaped);
  EXPECT_FALSE(result.leaked);
  EXPECT_FALSE(result.corrupted);
  EXPECT_FALSE(result.exec_hijack);
}

TEST(CampaignNamesTest, RoundTripEveryEnum) {
  for (int i = 0; i < kNumStepKinds; ++i) {
    const auto kind = static_cast<StepKind>(i);
    const auto back = StepKindFromName(StepKindName(kind));
    ASSERT_TRUE(back.has_value()) << StepKindName(kind);
    EXPECT_EQ(*back, kind);
  }
  for (int i = 0; i < 4; ++i) {
    const auto outcome = static_cast<CampaignOutcome>(i);
    const auto back = CampaignOutcomeFromName(CampaignOutcomeName(outcome));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, outcome);
  }
}

}  // namespace
}  // namespace memsentry::attacks
