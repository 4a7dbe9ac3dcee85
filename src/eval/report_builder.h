// Metric accumulation for benchmark reports: every workload's assembly
// (src/suite) emits its metrics through one, whichever front end runs it
// (src/eval/campaign_engine.h). A ReportBuilder collects named scalar
// metrics — fidelity, perf, info, host-perf — in insertion order; the order
// and the bit-exact values are what the suite's determinism gate compares,
// so every path that emits a given workload's metrics must route through the
// same builder calls in the same sequence.
#ifndef MEMSENTRY_SRC_EVAL_REPORT_BUILDER_H_
#define MEMSENTRY_SRC_EVAL_REPORT_BUILDER_H_

#include <cmath>
#include <string>
#include <vector>

#include "src/base/json.h"
#include "src/eval/figures.h"
#include "src/eval/regression_gate.h"
#include "src/workloads/spec_profiles.h"

namespace memsentry::eval {

// Default per-metric relative tolerances baked into every report (and thus
// into snapshots under bench/baselines/). Geomeans are tight; individual
// benchmarks wobble more across instruction budgets and compilers; cycle
// totals are perf-kind and warn-only until a second baseline exists.
inline constexpr double kGeomeanTol = 0.05;
inline constexpr double kPerBenchmarkTol = 0.15;
inline constexpr double kCyclesTol = 0.15;
inline constexpr double kMicroLatencyTol = 0.10;
// Host-side throughput (sim instr/s) swings with machine load and CPU
// generation; the wide band still catches order-of-magnitude interpreter
// regressions while staying quiet across healthy hosts.
inline constexpr double kHostThroughputTol = 0.60;

// Collects one workload's (one engine job's) results as named metrics.
// Metric names are slash-paths, unique across the whole suite because each
// workload prefixes its own figure/table (e.g. "fig3/geomean/MPX-w").
class ReportBuilder {
 public:
  // One scalar metric. paper = NAN when the paper gives no reference value;
  // note is free-form context carried into the report.
  void Add(const std::string& name, double value, MetricKind kind, double tol,
           double paper = NAN, const std::string& note = "") {
    json::Value entry = json::Value::Object();
    entry.Set("value", value);
    entry.Set("kind", MetricKindName(kind));
    entry.Set("tol", tol);
    if (!std::isnan(paper)) {
      entry.Set("paper", paper);
    }
    if (!note.empty()) {
      entry.Set("note", note);
    }
    metrics_.Set(name, std::move(entry));
  }

  void AddFidelity(const std::string& name, double value, double tol, double paper = NAN,
                   const std::string& note = "") {
    Add(name, value, MetricKind::kFidelity, tol, paper, note);
  }

  void AddPerf(const std::string& name, double value, double tol = kCyclesTol) {
    Add(name, value, MetricKind::kPerf, tol);
  }

  void AddInfo(const std::string& name, double value) {
    Add(name, value, MetricKind::kInfo, 0.0);
  }

  // Host-dependent perf metric: tolerance-checked against the committed
  // baseline (so sustained throughput regressions surface in the gate) but
  // never a hard failure, and exempt from --check-determinism — its value
  // depends on host wall-clock speed, not on simulation state.
  void AddHostPerf(const std::string& name, double value, double tol) {
    Add(name, value, MetricKind::kPerf, tol);
    metrics_[name].Set("host", true);
  }

  // Accumulates simulated (retired) instructions executed by this workload.
  // eval::AddHostTrailer turns the total into a
  // `<workload>/sim_instr_per_second` host-perf metric — the suite's
  // wall-clock throughput gauge.
  void AddSimulatedInstructions(double instructions) { sim_instructions_ += instructions; }

  // A whole figure: per-config geomeans (fidelity, with the paper's
  // reference), per-benchmark normalized runtimes (fidelity, looser), and
  // suite-total protected cycles (perf).
  void AddFigure(const std::string& prefix, const std::vector<FigureSeries>& series,
                 const std::vector<double>& paper_geomeans) {
    const auto profiles = workloads::SpecCpu2006();
    for (size_t i = 0; i < series.size(); ++i) {
      const auto& s = series[i];
      const double paper = i < paper_geomeans.size() ? paper_geomeans[i] : NAN;
      AddFidelity(prefix + "/geomean/" + s.config, s.geomean, kGeomeanTol, paper);
      for (size_t b = 0; b < s.normalized.size() && b < profiles.size(); ++b) {
        AddFidelity(prefix + "/norm/" + s.config + "/" + profiles[b].name, s.normalized[b],
                    kPerBenchmarkTol);
      }
      AddPerf(prefix + "/cycles/" + s.config, s.total_prot_cycles);
      AddSimulatedInstructions(s.total_instructions);
    }
  }

  double sim_instructions() const { return sim_instructions_; }
  const json::Value& metrics() const { return metrics_; }
  json::Value TakeMetrics() { return std::move(metrics_); }

 private:
  double sim_instructions_ = 0;
  json::Value metrics_ = json::Value::Object();
};

}  // namespace memsentry::eval

#endif  // MEMSENTRY_SRC_EVAL_REPORT_BUILDER_H_
