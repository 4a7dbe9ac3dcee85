// The benchmark suite as registered campaign-engine workloads. Every bench
// binary's body lives here as an eval::Workload — quick/full cell
// enumeration plus an assembly pass that emits the binary's exact metric
// stream and (in print mode) its exact stdout tables — so one warm process
// can run the whole suite through eval::CampaignEngine, and the thin
// standalone binaries (bench/*.cc + bench/suite_main.h) emit the same
// metric stream bit for bit.
#ifndef MEMSENTRY_SRC_SUITE_WORKLOADS_H_
#define MEMSENTRY_SRC_SUITE_WORKLOADS_H_

#include <string_view>

#include "src/eval/campaign_engine.h"

namespace memsentry::suite {

// Per-family registration, in suite order (tables, figures, adversary).
void RegisterFigureWorkloads(eval::WorkloadRegistry& registry);
void RegisterTableWorkloads(eval::WorkloadRegistry& registry);
void RegisterAblationWorkloads(eval::WorkloadRegistry& registry);
void RegisterAdversaryWorkloads(eval::WorkloadRegistry& registry);

// The process-wide registry with every suite workload registered once.
const eval::WorkloadRegistry& SuiteRegistry();

// nullptr when `name` is not a registered suite workload (bench_substrate
// is not one: it measures host time through google-benchmark and runs as
// its own binary, outside bench_runner).
const eval::Workload* FindSuiteWorkload(std::string_view name);

}  // namespace memsentry::suite

#endif  // MEMSENTRY_SRC_SUITE_WORKLOADS_H_
