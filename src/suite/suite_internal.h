// Shared helpers for the suite workload implementations. Internal to
// src/suite — the public surface is workloads.h.
#ifndef MEMSENTRY_SRC_SUITE_SUITE_INTERNAL_H_
#define MEMSENTRY_SRC_SUITE_SUITE_INTERNAL_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/eval/campaign_engine.h"
#include "src/eval/figures.h"

namespace memsentry::suite {

inline void PrintHeader(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
}

// One figure as rows of benchmarks x configuration columns.
void PrintFigure(const std::vector<eval::FigureSeries>& series,
                 const std::vector<double>& paper_geomeans);

// options.extra lookups with ParseWorkloadArgs' strtoull(.., 0) parsing.
inline uint64_t ExtraU64(const eval::WorkloadOptions& options, const char* key,
                         uint64_t fallback) {
  const auto it = options.extra.find(key);
  if (it == options.extra.end()) {
    return fallback;
  }
  return std::strtoull(it->second.c_str(), nullptr, 0);
}

inline bool HasExtra(const eval::WorkloadOptions& options, const char* key) {
  return options.extra.find(key) != options.extra.end();
}

inline std::string ExtraString(const eval::WorkloadOptions& options, const char* key) {
  const auto it = options.extra.find(key);
  return it == options.extra.end() ? std::string() : it->second;
}

// ExperimentResult <-> cell payload. json numbers round-trip doubles
// bit-exactly (shortest-round-trip serialization), so assembly sees the
// same operands a monolithic sweep would.
json::Value ExperimentToJson(const eval::ExperimentResult& result);
eval::ExperimentResult ExperimentFromJson(const json::Value& value);

}  // namespace memsentry::suite

#endif  // MEMSENTRY_SRC_SUITE_SUITE_INTERNAL_H_
