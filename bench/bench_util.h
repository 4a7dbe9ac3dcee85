// Shared helpers for the per-figure benchmark binaries. Every binary prints
// the paper's reference values next to the reproduced ones so the comparison
// is one `diff`-shaped read — and, through bench::Reporter, emits the same
// numbers as a machine-readable JSON report (`--json=<path>`) whose gated
// metrics equal the ones tools/bench_runner merges into BENCH_RESULTS.json
// and gates against bench/baselines/.
#ifndef MEMSENTRY_BENCH_BENCH_UTIL_H_
#define MEMSENTRY_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

#include "src/base/crash_handler.h"
#include "src/base/fastpath.h"
#include "src/base/json.h"
#include "src/eval/figures.h"
#include "src/eval/regression_gate.h"
#include "src/eval/report_builder.h"
#include "src/workloads/spec_profiles.h"

namespace memsentry::bench {

inline void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

// Prints one figure as rows of benchmarks x configuration columns.
inline void PrintFigure(const std::vector<eval::FigureSeries>& series,
                        const std::vector<double>& paper_geomeans) {
  std::printf("%-16s", "benchmark");
  for (const auto& s : series) {
    std::printf("%10s", s.config.c_str());
  }
  std::printf("\n");
  const auto profiles = workloads::SpecCpu2006();
  for (size_t b = 0; b < profiles.size(); ++b) {
    std::printf("%-16s", profiles[b].name.c_str());
    for (const auto& s : series) {
      std::printf("%10.2f", s.normalized[b]);
    }
    std::printf("\n");
  }
  std::printf("%-16s", "geomean");
  for (const auto& s : series) {
    std::printf("%10.3f", s.geomean);
  }
  std::printf("\n%-16s", "paper geomean");
  for (size_t i = 0; i < series.size(); ++i) {
    if (i < paper_geomeans.size()) {
      std::printf("%10.3f", paper_geomeans[i]);
    } else {
      std::printf("%10s", "-");
    }
  }
  std::printf("\n(normalized runtime; 1.00 = uninstrumented baseline)\n");
}

inline eval::ExperimentOptions DefaultOptions() {
  eval::ExperimentOptions options;
  options.target_instructions = 400'000;
  return options;
}

// The tolerance constants live in src/eval/report_builder.h so the campaign
// engine's workloads share them; these aliases keep the bench:: spellings.
inline constexpr double kGeomeanTol = eval::kGeomeanTol;
inline constexpr double kPerBenchmarkTol = eval::kPerBenchmarkTol;
inline constexpr double kCyclesTol = eval::kCyclesTol;
inline constexpr double kMicroLatencyTol = eval::kMicroLatencyTol;
inline constexpr double kHostThroughputTol = eval::kHostThroughputTol;

// Collects a benchmark binary's results as named metrics (through an
// eval::ReportBuilder) and writes the machine-readable report when the
// binary was invoked with --json=<path>. Metric names are slash-paths,
// unique across the whole suite because each binary prefixes its own
// figure/table (e.g. "fig3/geomean/MPX-w").
class Reporter {
 public:
  Reporter(std::string binary, int argc, char** argv)
      : binary_(std::move(binary)), start_(std::chrono::steady_clock::now()) {
    std::string bundle_root = "crash_bundles";
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--json=", 7) == 0) {
        json_path_ = arg + 7;
      } else if (std::strncmp(arg, "--instructions=", 15) == 0) {
        instructions_ = std::strtoull(arg + 15, nullptr, 10);
      } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
        jobs_ = static_cast<int>(std::strtol(arg + 7, nullptr, 10));
      } else if (std::strncmp(arg, "--bundle-root=", 14) == 0) {
        bundle_root = arg + 14;
      }
    }
    // Any crash from here on produces a replayable bundle tagged with this
    // binary's run configuration. Retention first: bundles from earlier runs
    // are trimmed to the caps, anything stamped from this instant on is
    // protected.
    const base::CrashGcStats gc = base::CollectCrashBundles(
        bundle_root, base::CrashBundleCaps{}, static_cast<int64_t>(std::time(nullptr)));
    if (gc.bundles_removed > 0) {
      std::fprintf(stderr, "[%s] crash-bundle gc: removed %zu stale bundle(s) (%llu bytes)\n",
                   binary_.c_str(), gc.bundles_removed,
                   static_cast<unsigned long long>(gc.bytes_removed));
    }
    base::InstallCrashHandler(bundle_root);
    base::CrashContext context;
    context.binary = binary_;
    context.seed = Options().seed;
    context.config_json = ConfigJson();
    base::SetCrashContext(context);
  }

  // The run configuration as a JSON object, recorded in crash-bundle
  // manifests so a replay can reconstruct the exact cell.
  std::string ConfigJson() const {
    json::Value config = json::Value::Object();
    config.Set("instructions", TargetInstructions());
    config.Set("jobs", jobs_);
    config.Set("fastpath", base::FastPathModeName(base::GetFastPathMode()));
    return config.Dump(0);
  }

  // DefaultOptions() with any --instructions= / --jobs= override applied.
  // Every binary routes its workload budget through this so
  // --instructions= shrinks the whole workload uniformly and --jobs can fan
  // the sweeps out (results are bit-identical for every jobs value).
  eval::ExperimentOptions Options() const {
    eval::ExperimentOptions options = DefaultOptions();
    if (instructions_ > 0) {
      options.target_instructions = instructions_;
    }
    options.jobs = jobs_;
    return options;
  }

  uint64_t TargetInstructions() const { return Options().target_instructions; }
  int Jobs() const { return jobs_; }
  bool enabled() const { return !json_path_.empty(); }

  // The underlying metric collector, shared with the campaign engine's
  // workload assembly path so standalone and in-process runs emit the exact
  // same metric stream.
  eval::ReportBuilder& builder() { return builder_; }

  void Add(const std::string& name, double value, eval::MetricKind kind, double tol,
           double paper = NAN, const std::string& note = "") {
    builder_.Add(name, value, kind, tol, paper, note);
  }

  void AddFidelity(const std::string& name, double value, double tol, double paper = NAN,
                   const std::string& note = "") {
    builder_.AddFidelity(name, value, tol, paper, note);
  }

  void AddPerf(const std::string& name, double value, double tol = kCyclesTol) {
    builder_.AddPerf(name, value, tol);
  }

  void AddInfo(const std::string& name, double value) { builder_.AddInfo(name, value); }

  void AddHostPerf(const std::string& name, double value, double tol) {
    builder_.AddHostPerf(name, value, tol);
  }

  // Accumulates simulated (retired) instructions executed by this binary.
  // Finish() turns the total into a `<binary>/sim_instr_per_second`
  // host-perf metric — the suite's wall-clock throughput gauge, checked
  // against the baseline with a generous tolerance (hosts vary) but
  // warn-only so a slow machine never hard-fails the gate.
  void AddSimulatedInstructions(double instructions) {
    builder_.AddSimulatedInstructions(instructions);
  }

  void AddFigure(const std::string& prefix, const std::vector<eval::FigureSeries>& series,
                 const std::vector<double>& paper_geomeans) {
    builder_.AddFigure(prefix, series, paper_geomeans);
  }

  // Writes the report if --json= was given. Returns the binary's exit code
  // (nonzero when the report could not be written, so CI notices).
  int Finish() {
    if (json_path_.empty()) {
      return 0;
    }
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
    AddInfo(binary_ + "/wall_seconds", wall);
    if (builder_.sim_instructions() > 0 && wall > 0) {
      AddHostPerf(binary_ + "/sim_instr_per_second", builder_.sim_instructions() / wall,
                  kHostThroughputTol);
    }
    json::Value doc = json::Value::Object();
    doc.Set("schema", 1);
    doc.Set("binary", binary_);
    doc.Set("instructions", TargetInstructions());
    doc.Set("wall_seconds", wall);
    doc.Set("metrics", builder_.TakeMetrics());
    // Atomic write: a crash mid-report leaves no torn JSON behind.
    if (Status s = json::WriteFileAtomic(json_path_, doc); !s.ok()) {
      std::fprintf(stderr, "%s: %s\n", binary_.c_str(), s.ToString().c_str());
      return 1;
    }
    return 0;
  }

 private:
  std::string binary_;
  std::string json_path_;
  uint64_t instructions_ = 0;
  int jobs_ = 0;  // 0 = hardware_concurrency (see eval::ExperimentOptions)
  std::chrono::steady_clock::time_point start_;
  eval::ReportBuilder builder_;
};

}  // namespace memsentry::bench

#endif  // MEMSENTRY_BENCH_BENCH_UTIL_H_
