// The shared main() for every suite bench binary: look up the registered
// workload (src/suite/workloads.h), run its cells fanned over --jobs (serial
// where crash contexts demand it), print its tables, stage crash bundles,
// and emit the metric stream through bench::Reporter. The binaries are
// ad-hoc entry points; tools/bench_runner runs the same workloads in one
// warm engine and emits the same gated metrics bit for bit.
#ifndef MEMSENTRY_BENCH_SUITE_MAIN_H_
#define MEMSENTRY_BENCH_SUITE_MAIN_H_

#include <cstdio>

#include "bench/bench_util.h"
#include "src/suite/workloads.h"

namespace memsentry::bench {

inline int SuiteMain(const char* name, int argc, char** argv) {
  Reporter reporter(name, argc, argv);
  const eval::Workload* workload = suite::FindSuiteWorkload(name);
  if (workload == nullptr) {
    std::fprintf(stderr, "%s: not a registered suite workload\n", name);
    return 2;
  }
  eval::WorkloadOptions options;
  options.experiment = reporter.Options();
  options.print = true;
  options.crash_contexts = true;
  eval::ParseWorkloadArgs(argc, argv, options);
  options.extra["config_json"] = reporter.ConfigJson();
  const int status = eval::RunWorkloadStandalone(*workload, options, reporter.builder());
  const int finish = reporter.Finish();
  return status != 0 ? status : finish;
}

}  // namespace memsentry::bench

#endif  // MEMSENTRY_BENCH_SUITE_MAIN_H_
