// End-to-end tests of the bench_runner and memsentry_cli command lines: a
// clean suite run leaves a clean merged header and a well-formed journal;
// flags and commands that no longer exist are usage errors (exit 2) rather
// than being silently ignored; and `memsentry_cli serve` takes exactly its
// three flags. tests/campaign_engine_test.cc covers determinism across
// --jobs and kill -9 resume.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "src/base/json.h"

#if defined(MEMSENTRY_BENCH_RUNNER) && !defined(_WIN32)

#include <sys/wait.h>
#include <unistd.h>

namespace memsentry {
namespace {

std::string FreshDir(const char* name) {
  const std::string dir = ::testing::TempDir() + name;
  std::system(("rm -rf \"" + dir + "\" && mkdir -p \"" + dir + "\"").c_str());
  return dir;
}

// Runs `command` with its output in `log`; returns the exit code.
int RunLogged(const std::string& command, const std::string& log) {
  const int raw = std::system((command + " > \"" + log + "\" 2>&1").c_str());
  return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

// Runs bench_runner with `flags` and its output in `dir`; returns the exit
// code.
int RunRunner(const std::string& dir, const std::string& flags) {
  return RunLogged(std::string("\"") + MEMSENTRY_BENCH_RUNNER + "\" --out=\"" + dir +
                       "/BENCH_RESULTS.json\" --no-gate " + flags,
                   dir + "/runner.log");
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

// The child-process engine, the subprocess shard engine and the --engine
// selector itself are gone; each spelling fails as a usage error before any
// workload runs, as does a selector naming the google-benchmark binary that
// is no longer part of the suite, and so does the CLI's removed command.
TEST(BenchRunnerRobustness, RemovedFlagsAreUsageErrors) {
  const std::string dir = FreshDir("runner_flags");
  for (const char* flag :
       {"--engine=fork", "--verbose", "--timeout=5", "--bench-dir=.",
        "--checkpoint-interval=1000", "--only=bench_substrate", "--engine=shard",
        "--engine=inproc", "--workers=3", "--lease=3", "--chaos=kill:seed=1",
        "--worker-cli=x"}) {
    EXPECT_EQ(RunRunner(dir, std::string("--quick ") + flag), 2) << flag;
    std::ifstream report(dir + "/BENCH_RESULTS.json");
    EXPECT_FALSE(report.good()) << flag << ": a usage error must not write a report";
  }
#if defined(MEMSENTRY_CLI)
  EXPECT_EQ(RunLogged(std::string("\"") + MEMSENTRY_CLI + "\" coordinate --workers 2 --quick",
                      dir + "/cli.log"),
            2);
#endif
}

#if defined(MEMSENTRY_CLI)
// `serve` accepts exactly --socket PATH, --jobs N and --quiet. Anything else
// exits 2 and names the argument instead of serving with defaults, so a typo
// or a removed flag cannot go unnoticed. The other space-separated commands
// are as strict. `timeout` turns a regression that
// starts serving into a failure, not a hang; the socket must never be bound.
TEST(MemsentryCliServe, RejectsUnknownAndMalformedArguments) {
  const std::string dir = FreshDir("serve_flags");
  const std::string socket = dir + "/s.sock";
  const std::string serve = std::string("timeout 60 \"") + MEMSENTRY_CLI + "\" serve ";
  const std::string with_socket = "--socket \"" + socket + "\" ";
  const struct {
    std::string args;
    std::string named;
  } cases[] = {
      {with_socket + "--jbos 4 --bogus", "--jbos"},
      {with_socket + "--quiet --bogus", "--bogus"},
      {with_socket + "--chaos kill:seed=1", "--chaos"},
      {with_socket + "--jobs abc", "--jobs abc"},
      {with_socket + "--jobs -1", "--jobs -1"},
      {with_socket + "--jobs=2", "--jobs=2"},
      {"--socket", "--socket\n"},
      {"--jobs 2 --socket", "--socket\n"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(RunLogged(serve + c.args, dir + "/serve.log"), 2) << c.args;
    const std::string log = ReadFile(dir + "/serve.log");
    EXPECT_NE(log.find("argument: " + c.named), std::string::npos) << c.args << "\n" << log;
    EXPECT_NE(::access(socket.c_str(), F_OK), 0) << c.args << ": the socket was bound";
  }
  // attack, advise, dump and request parse the same way.
  const std::string cli = std::string("timeout 60 \"") + MEMSENTRY_CLI + "\" ";
  const struct {
    std::string args;
    std::string named;
  } commands[] = {
      {"dump --techniqe sfi", "argument: --techniqe\n"},
      {"dump --technique bogus", "argument: --technique bogus\n"},
      {"dump --defense shadow", "argument: --defense shadow\n"},
      {"advise --byts 8192", "argument: --byts\n"},
      {"advise --events 1x", "argument: --events 1x\n"},
      {"attack --region-bytes abc", "argument: --region-bytes abc\n"},
      {"attack extra", "argument: extra\n"},
      {"request " + with_socket + "--bogus '{}'", "argument: --bogus\n"},
  };
  for (const auto& c : commands) {
    EXPECT_EQ(RunLogged(cli + c.args, dir + "/cli.log"), 2) << c.args;
    const std::string log = ReadFile(dir + "/cli.log");
    EXPECT_NE(log.find(c.named), std::string::npos) << c.args << "\n" << log;
  }
}
#endif  // MEMSENTRY_CLI

}  // namespace
}  // namespace memsentry

#endif  // MEMSENTRY_BENCH_RUNNER && !_WIN32
