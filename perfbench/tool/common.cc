#include "perfbench/tool/common.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>

#include "src/eval/figures.h"
#include "src/eval/regression_gate.h"
#include "src/suite/workloads.h"

namespace perfbench {
namespace {

namespace eval = memsentry::eval;

struct SuiteEntry {
  const char* name;
  const char* quick_extra;  // the argv token bench_runner adds in --quick mode
};

// tools/bench_runner's kSuite, minus bench_substrate.
const SuiteEntry kSuite[] = {
    {"table1_defenses", ""},
    {"table2_applicability", ""},
    {"table3_limits", ""},
    {"table4_micro", ""},
    {"fig3_address", ""},
    {"fig4_callret", ""},
    {"fig5_indirect", ""},
    {"fig6_syscall", ""},
    {"mprotect_baseline", ""},
    {"crypt_size_sweep", ""},
    {"safestack_casestudy", ""},
    {"attack_matrix", ""},
    {"attack_campaigns", "--campaigns=160"},
    {"fault_matrix", ""},
    {"ablations", ""},
    {"server_workload", "--quick"},
    {"microarch_stats", ""},
};

constexpr uint64_t kQuickInstructions = 100'000;
constexpr uint64_t kFullInstructions = 400'000;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench_tool: %s\n", message.c_str());
  std::exit(2);
}

}  // namespace

uint64_t DefaultSeed() { return eval::ExperimentOptions{}.seed; }

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<SuiteWorkload> SuiteWorkloads(bool quick, uint64_t seed) {
  const eval::WorkloadRegistry& registry = memsentry::suite::SuiteRegistry();
  std::set<std::string> listed;
  std::vector<SuiteWorkload> out;
  for (const SuiteEntry& entry : kSuite) {
    const Workload* workload = registry.Find(entry.name);
    if (workload == nullptr) {
      Die(std::string("workload not registered: ") + entry.name);
    }
    SuiteWorkload sw;
    sw.workload = workload;
    sw.options.experiment.target_instructions = quick ? kQuickInstructions : kFullInstructions;
    sw.options.experiment.seed = seed;
    if (quick && entry.quick_extra[0] != '\0') {
      const char* argv[] = {"perfbench_tool", entry.quick_extra};
      eval::ParseWorkloadArgs(2, const_cast<char**>(argv), sw.options);
    }
    listed.insert(entry.name);
    out.push_back(std::move(sw));
  }
  for (const Workload& workload : registry.workloads()) {
    if (listed.count(workload.name) == 0) {
      Die("registered workload missing from the benchmark's suite list: " + workload.name);
    }
  }
  return out;
}

json::Value RunCellRequest(const SuiteWorkload& entry, const std::string& cell) {
  // Field for field what ShardCoordinator sends a worker.
  json::Value request = json::Value::Object();
  request.Set("cmd", "run_cell");
  request.Set("workload", entry.workload->name);
  request.Set("cell", cell);
  request.Set("quick", entry.options.quick);
  request.Set("instructions",
              static_cast<double>(entry.options.experiment.target_instructions));
  request.Set("seed", static_cast<double>(entry.options.experiment.seed));
  json::Value extra = json::Value::Object();
  for (const auto& [key, value] : entry.options.extra) {
    extra.Set(key, value);
  }
  request.Set("extra", std::move(extra));
  request.Set("attempt", static_cast<uint64_t>(1));
  return request;
}

bool ReadPayloadFile(const std::string& path, std::vector<PayloadLine>* lines) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    const size_t a = line.find('\t');
    const size_t b = a == std::string::npos ? a : line.find('\t', a + 1);
    if (b == std::string::npos) {
      return false;
    }
    lines->push_back({line.substr(0, a), line.substr(a + 1, b - a - 1), line.substr(b + 1)});
  }
  return true;
}

bool WritePayloadFile(const std::string& path, const std::vector<PayloadLine>& lines) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  for (const PayloadLine& line : lines) {
    out << line.workload << '\t' << line.cell << '\t' << line.payload << '\n';
  }
  out.flush();
  return static_cast<bool>(out);
}

ReportCheck CheckReport(const json::Value& merged, uint64_t seed, const std::string& baseline) {
  ReportCheck check;
  const json::Value* metrics = merged.Find("metrics");
  double err_sum = 0;
  if (metrics != nullptr) {
    for (const auto& [name, entry] : metrics->members()) {
      // fig3..fig6 "<prefix>/geomean/<config>" fidelity metrics carry the
      // paper's reported geomean.
      const bool figure_geomean = name.size() > 13 && name.compare(0, 3, "fig") == 0 &&
                                  name.compare(4, 9, "/geomean/") == 0 && name[3] >= '3' &&
                                  name[3] <= '6';
      const json::Value* paper = entry.Find("paper");
      if (!figure_geomean || paper == nullptr || !paper->is_number()) {
        continue;
      }
      const double value = entry.NumberOr("value", NAN);
      err_sum += std::fabs(value - paper->number_value()) / std::fabs(paper->number_value());
      ++check.paper_count;
    }
  }
  check.paper_err_pct = check.paper_count == 0 ? NAN : 100.0 * err_sum / check.paper_count;

  if (seed != DefaultSeed() || baseline.empty()) {
    return check;
  }
  check.gate_ran = true;
  auto base = json::ParseFile(baseline);
  if (!base.ok()) {
    check.gate_ok = false;
    check.gate_summary = "no baseline: " + base.status().ToString();
    return check;
  }
  // bench_runner's rule: perf metrics gate once a second snapshot for this
  // mode exists next to the baseline.
  const std::filesystem::path path(baseline);
  const bool quick = path.filename().string().find("-quick") != std::string::npos;
  int snapshots = 0;
  std::error_code ec;
  for (const auto& dirent : std::filesystem::directory_iterator(path.parent_path(), ec)) {
    const std::string file = dirent.path().filename().string();
    if (dirent.path().extension() == ".json" &&
        (file.find("-quick") != std::string::npos) == quick) {
      ++snapshots;
    }
  }
  eval::GateOptions options;
  options.gate_perf = snapshots >= 2;
  const eval::GateReport report = eval::CompareAgainstBaseline(merged, *base, options);
  check.gate_ok = report.ok();
  check.gate_summary = report.Summary();
  for (const eval::GateIssue& issue : report.issues) {
    if (issue.severity == eval::Severity::kFailure) {
      check.gate_failures.push_back(issue.metric + ": " + issue.message);
    }
  }
  return check;
}

json::Value ReportCheckJson(const ReportCheck& check) {
  json::Value out = json::Value::Object();
  out.Set("paper_err_pct", check.paper_err_pct);
  out.Set("paper_count", check.paper_count);
  out.Set("gate_ran", check.gate_ran);
  out.Set("gate_ok", check.gate_ok);
  out.Set("gate_summary", check.gate_summary);
  json::Value failures = json::Value::Array();
  for (const std::string& failure : check.gate_failures) {
    failures.Append(failure);
  }
  out.Set("gate_failures", std::move(failures));
  return out;
}

}  // namespace perfbench
