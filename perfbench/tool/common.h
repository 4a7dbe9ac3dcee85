// Shared pieces of the benchmark tool: the suite's workload list and the
// options each workload runs with (mirroring tools/bench_runner), the
// payload file format the Python runner compares byte for byte, and the
// report checks (paper error, baseline gate) applied to assembled reports.
#ifndef PERFBENCH_TOOL_COMMON_H_
#define PERFBENCH_TOOL_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/json.h"
#include "src/eval/campaign_engine.h"

namespace perfbench {

using memsentry::eval::Workload;
using memsentry::eval::WorkloadOptions;
namespace json = memsentry::json;

// One registered suite workload with the options a pass runs it with.
struct SuiteWorkload {
  const Workload* workload = nullptr;
  WorkloadOptions options;
};

// Every registered workload in bench_runner's suite order (bench_substrate
// excluded: it is a google-benchmark binary, not a registered workload),
// with --quick or full options for `seed`. Fails loudly when the registry
// and the list disagree, so a new workload cannot silently drop out.
std::vector<SuiteWorkload> SuiteWorkloads(bool quick, uint64_t seed);

// The exact run_cell request the shard coordinator sends for one cell.
json::Value RunCellRequest(const SuiteWorkload& entry, const std::string& cell);

// Payload files hold one line per cell in enumeration order:
// "<workload>\t<cell>\t<compact payload JSON>" (empty payload = no payload).
struct PayloadLine {
  std::string workload;
  std::string cell;
  std::string payload;
};
bool ReadPayloadFile(const std::string& path, std::vector<PayloadLine>* lines);
bool WritePayloadFile(const std::string& path, const std::vector<PayloadLine>& lines);

// Checks over one merged report ({"metrics": {...}}), printed as JSON.
struct ReportCheck {
  double paper_err_pct = 0;  // mean |value - paper| / paper over the figure geomeans
  int paper_count = 0;       // how many geomeans carried a paper value
  bool gate_ran = false;
  bool gate_ok = true;
  std::string gate_summary;
  std::vector<std::string> gate_failures;
};
ReportCheck CheckReport(const json::Value& merged, uint64_t seed, const std::string& baseline);
json::Value ReportCheckJson(const ReportCheck& check);

// The seed every committed baseline was recorded at.
uint64_t DefaultSeed();

double Now();  // steady clock, seconds

}  // namespace perfbench

#endif  // PERFBENCH_TOOL_COMMON_H_
