// End-to-end tests of tools/bench_runner's command line and report shape: a
// clean suite run leaves a clean merged header and a well-formed journal,
// and flags that no longer exist are usage errors (exit 2) rather than being
// silently ignored. tests/campaign_engine_test.cc covers determinism across
// engines and kill -9 resume.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "src/base/json.h"

#if defined(MEMSENTRY_BENCH_RUNNER) && !defined(_WIN32)

#include <sys/wait.h>

namespace memsentry {
namespace {

std::string FreshDir(const char* name) {
  const std::string dir = ::testing::TempDir() + name;
  std::system(("rm -rf \"" + dir + "\" && mkdir -p \"" + dir + "\"").c_str());
  return dir;
}

// Runs bench_runner with `flags` and its output in `dir`; returns the exit
// code.
int RunRunner(const std::string& dir, const std::string& flags) {
  const std::string command = std::string("\"") + MEMSENTRY_BENCH_RUNNER + "\" --out=\"" + dir +
                              "/BENCH_RESULTS.json\" --no-gate " + flags + " > \"" + dir +
                              "/runner.log\" 2>&1";
  const int raw = std::system(command.c_str());
  return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
}

TEST(BenchRunnerRobustness, CleanSuiteReportsCleanHeader) {
  const std::string dir = FreshDir("runner_clean");
  ASSERT_EQ(RunRunner(dir, "--quick --only=table1_defenses"), 0);
  auto merged = json::ParseFile(dir + "/BENCH_RESULTS.json");
  ASSERT_TRUE(merged.ok());
  const json::Value* info = merged->Find("binaries")->Find("table1_defenses");
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->NumberOr("exit", -1), 0);
  EXPECT_EQ(info->StringOr("engine", ""), "inproc");
  EXPECT_GT(info->NumberOr("cells", 0), 0);
  EXPECT_FALSE(info->BoolOr("resumed", false));
  const json::Value* metrics = merged->Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_NE(metrics->Find("runner/seconds/table1_defenses"), nullptr);
  EXPECT_NE(metrics->Find("table1_defenses/wall_seconds"), nullptr);
  EXPECT_EQ(merged->Find("engine")->StringOr("engine", ""), "inproc");

  // The journal: a header, then start, one event per cell, done.
  std::ifstream journal(dir + "/BENCH_JOURNAL.jsonl");
  std::string line;
  ASSERT_TRUE(std::getline(journal, line));
  auto header = json::Parse(line);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->NumberOr("journal", 0), 1);
  EXPECT_EQ(header->StringOr("engine", ""), "inproc");
  std::string first_event, last_event;
  int cell_events = 0;
  while (std::getline(journal, line)) {
    auto event = json::Parse(line);
    ASSERT_TRUE(event.ok()) << line;
    const std::string kind = event->StringOr("event", "");
    first_event = first_event.empty() ? kind : first_event;
    last_event = kind;
    cell_events += kind == "cell" ? 1 : 0;
  }
  EXPECT_EQ(first_event, "start");
  EXPECT_EQ(last_event, "done");
  EXPECT_EQ(cell_events, info->NumberOr("cells", -1));
}

// The child-process engine and its flags are gone; each spelling fails as a
// usage error before any workload runs, as does a selector naming the
// google-benchmark binary that is no longer part of the suite.
TEST(BenchRunnerRobustness, RemovedFlagsAreUsageErrors) {
  const std::string dir = FreshDir("runner_flags");
  for (const char* flag : {"--engine=fork", "--verbose", "--timeout=5", "--bench-dir=.",
                           "--checkpoint-interval=1000", "--only=bench_substrate"}) {
    EXPECT_EQ(RunRunner(dir, std::string("--quick ") + flag), 2) << flag;
  }
  std::ifstream report(dir + "/BENCH_RESULTS.json");
  EXPECT_FALSE(report.good()) << "a usage error must not write a report";
}

}  // namespace
}  // namespace memsentry

#endif  // MEMSENTRY_BENCH_RUNNER && !_WIN32
