// perfbench_tool — the compiled half of the MemSentry benchmark. The Python
// runner (perfbench/run.py) spawns it once per measured pass, so every pass
// starts with an empty decode cache, synthesis cache and run memo.
//
//   perfbench_tool pass --mode quick|full --seed N --payloads FILE [--baseline FILE]
//       One suite pass through a fresh eval::CampaignEngine (jobs=1): every
//       registered workload submitted in suite order. Prints "ready" once
//       the engine is up, then one JSON result line; writes every cell's
//       payload to FILE in enumeration order. Run under
//       MEMSENTRY_FASTPATH=check this is the output oracle.
//   perfbench_tool assemble --mode quick|full --seed N --payloads FILE [--baseline FILE]
//       Assembles recorded payloads (e.g. from serve run_cell replies) into
//       the suite report and checks it like `pass` does.
//   perfbench_tool cells --mode quick|full --seed N
//       Prints the run_cell request for every cell, in enumeration order.
//   perfbench_tool replay --mode quick|full --seed N --oracle FILE --spans 0|1
//                         [--warm] [--trace-out FILE]
//       The traced layer replay (replay.cc).
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/tool/common.h"
#include "perfbench/tool/replay.h"
#include "src/eval/campaign_engine.h"
#include "src/eval/report_builder.h"
#include "src/suite/workloads.h"

namespace perfbench {
namespace {

namespace eval = memsentry::eval;

struct Args {
  std::string command;
  bool quick = true;
  uint64_t seed = 0;
  std::string payloads;
  std::string baseline;
  std::string oracle;
  std::string trace_out;
  bool spans = false;
  bool warm = false;
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_tool pass|assemble|cells|replay --mode quick|full --seed N\n"
               "       [--payloads FILE] [--baseline FILE] [--oracle FILE] [--spans 0|1]\n"
               "       [--warm] [--trace-out FILE]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) {
    return false;
  }
  args->command = argv[1];
  bool have_seed = false;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--warm") {
      args->warm = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--mode") {
      if (value != "quick" && value != "full") {
        return false;
      }
      args->quick = value == "quick";
    } else if (flag == "--seed") {
      char* end = nullptr;
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !value.empty();
    } else if (flag == "--payloads") {
      args->payloads = value;
    } else if (flag == "--baseline") {
      args->baseline = value;
    } else if (flag == "--oracle") {
      args->oracle = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else if (flag == "--spans") {
      args->spans = value == "1";
    } else {
      return false;
    }
  }
  return have_seed;
}

void PrintLine(const json::Value& value) {
  std::printf("%s\n", value.Dump().c_str());
  std::fflush(stdout);
}

// Merges per-workload reports the way bench_runner merges engine jobs
// (metric names are unique across the suite).
void MergeMetrics(const json::Value& metrics, json::Value& merged) {
  for (const auto& [name, metric] : metrics.members()) {
    merged["metrics"].Set(name, metric);
  }
}

int RunPass(const Args& args) {
  const std::vector<SuiteWorkload> suite = SuiteWorkloads(args.quick, args.seed);
  std::mutex payload_mutex;
  std::map<std::pair<std::string, std::string>, json::Value> payloads;
  eval::EngineOptions options;
  options.jobs = 1;
  options.on_cell_done = [&](const std::string& workload, const std::string& cell,
                             const json::Value& payload) {
    std::lock_guard<std::mutex> lock(payload_mutex);
    payloads[{workload, cell}] = payload;
  };
  eval::CampaignEngine engine(&memsentry::suite::SuiteRegistry(), options);
  std::printf("ready\n");
  std::fflush(stdout);

  const double start = Now();
  std::vector<uint64_t> ids;
  for (const SuiteWorkload& entry : suite) {
    ids.push_back(engine.Submit(entry.workload->name, entry.options));
  }
  std::vector<const eval::JobReport*> reports;
  for (const uint64_t id : ids) {
    reports.push_back(engine.Wait(id));
  }
  const double pass_seconds = Now() - start;

  std::vector<PayloadLine> lines;
  json::Value cells = json::Value::Array();
  json::Value failed_jobs = json::Value::Array();
  json::Value merged = json::Value::Object();
  merged.Set("metrics", json::Value::Object());
  double sim_instructions = 0;
  for (const eval::JobReport* report : reports) {
    if (report == nullptr) {
      continue;
    }
    if (report->state != eval::JobState::kDone || report->status != 0) {
      failed_jobs.Append(report->workload);
    }
    for (size_t c = 0; c < report->cell_names.size(); ++c) {
      const auto it = payloads.find({report->workload, report->cell_names[c]});
      lines.push_back({report->workload, report->cell_names[c],
                       it == payloads.end() ? std::string() : it->second.Dump()});
      cells.Append(report->cell_seconds[c]);
    }
    MergeMetrics(report->report.metrics(), merged);
    sim_instructions += report->report.sim_instructions();
  }
  const bool written = WritePayloadFile(args.payloads, lines);

  json::Value result = json::Value::Object();
  result.Set("pass_s", pass_seconds);
  result.Set("cells", static_cast<uint64_t>(lines.size()));
  result.Set("cell_s", std::move(cells));
  result.Set("failed_jobs", std::move(failed_jobs));
  result.Set("payloads_written", written);
  result.Set("sim_instructions", sim_instructions);
  result.Set("check", ReportCheckJson(CheckReport(merged, args.seed, args.baseline)));
  PrintLine(result);
  return 0;
}

int RunAssemble(const Args& args) {
  const std::vector<SuiteWorkload> suite = SuiteWorkloads(args.quick, args.seed);
  std::vector<PayloadLine> lines;
  if (!ReadPayloadFile(args.payloads, &lines)) {
    std::fprintf(stderr, "perfbench_tool: cannot read %s\n", args.payloads.c_str());
    return 1;
  }
  json::Value merged = json::Value::Object();
  merged.Set("metrics", json::Value::Object());
  double sim_instructions = 0;
  json::Value failed_jobs = json::Value::Array();
  size_t next = 0;
  for (const SuiteWorkload& entry : suite) {
    WorkloadOptions options = entry.options;
    options.experiment.jobs = 1;
    std::vector<json::Value> payloads;
    bool complete = true;
    for (const eval::WorkloadCell& cell : entry.workload->cells(options)) {
      if (next >= lines.size() || lines[next].workload != entry.workload->name ||
          lines[next].cell != cell.name) {
        complete = false;
        break;
      }
      auto parsed = json::Parse(lines[next++].payload);
      if (!parsed.ok()) {
        complete = false;
        break;
      }
      payloads.push_back(std::move(*parsed));
    }
    eval::ReportBuilder report;
    if (!complete || entry.workload->assemble(options, payloads, report) != 0) {
      failed_jobs.Append(entry.workload->name);
      if (!complete) {
        break;
      }
    }
    MergeMetrics(report.metrics(), merged);
    sim_instructions += report.sim_instructions();
  }
  json::Value result = json::Value::Object();
  result.Set("failed_jobs", std::move(failed_jobs));
  result.Set("sim_instructions", sim_instructions);
  result.Set("check", ReportCheckJson(CheckReport(merged, args.seed, args.baseline)));
  PrintLine(result);
  return 0;
}

int RunCells(const Args& args) {
  for (const SuiteWorkload& entry : SuiteWorkloads(args.quick, args.seed)) {
    WorkloadOptions options = entry.options;
    options.experiment.jobs = 1;
    for (const eval::WorkloadCell& cell : entry.workload->cells(options)) {
      PrintLine(RunCellRequest(entry, cell.name));
    }
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    return perfbench::Usage();
  }
  if (args.command == "pass" && !args.payloads.empty()) {
    return perfbench::RunPass(args);
  }
  if (args.command == "assemble" && !args.payloads.empty()) {
    return perfbench::RunAssemble(args);
  }
  if (args.command == "cells") {
    return perfbench::RunCells(args);
  }
  if (args.command == "replay" && !args.oracle.empty()) {
    perfbench::ReplayOptions options;
    options.quick = args.quick;
    options.seed = args.seed;
    options.oracle = args.oracle;
    options.spans = args.spans;
    options.warm = args.warm;
    options.trace_out = args.trace_out;
    return perfbench::RunReplay(options);
  }
  return perfbench::Usage();
}
