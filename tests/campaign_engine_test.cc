// CampaignEngine determinism and durability contract (DESIGN.md §11):
//  - metric streams are bit-identical for every worker count / steal
//    schedule;
//  - restored cells (the journal resume path) skip execution but feed
//    assembly the exact payloads, reproducing the metric stream;
//  - a job's wall_seconds covers its own cells, not time queued behind
//    other jobs;
//  - the runner's merged report is bit-identical at any --jobs, and equal to
//    `memsentry_cli run <workload> --json` reports;
//  - `memsentry_cli run` rejects unknown and malformed arguments;
//  - a kill -9 mid-suite plus --resume converges to the clean-run report,
//    and --resume refuses a journal written under another configuration;
//  - `serve` round-trips submit/status/wait/cancel/shutdown over its socket.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/json.h"
#include "src/eval/campaign_engine.h"
#include "src/eval/run_memo.h"
#include "src/eval/serve.h"
#include "src/suite/workloads.h"

#if !defined(_WIN32)

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>

namespace memsentry {
namespace {

eval::WorkloadOptions QuickOptions() {
  eval::WorkloadOptions options;
  options.quick = true;
  options.experiment.target_instructions = 100'000;
  return options;
}

// The fast registered workloads the engine-level tests schedule. Kept small
// so the full test file stays a few seconds; the sweep-heavy workloads are
// covered by the runner-level subset below.
const std::vector<std::string>& TestWorkloads() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "fault_matrix", "table4_micro", "ablations", "attack_campaigns", "server_workload"};
  return *names;
}

// QuickOptions, with attack_campaigns cut to two campaigns per technique.
eval::WorkloadOptions TestOptions(const std::string& name) {
  eval::WorkloadOptions options = QuickOptions();
  if (name == "attack_campaigns") {
    options.extra["campaigns"] = "16";
  }
  return options;
}

// Runs every test workload through one engine, filling `metrics_out` with
// the serialized metric stream per workload. (void so ASSERT_* can bail.)
void RunEngine(int jobs, eval::EngineOptions options,
               std::map<std::string, std::string>* metrics_out,
               eval::EngineStats* stats_out = nullptr) {
  options.jobs = jobs;
  std::map<std::string, std::string>& metrics = *metrics_out;
  eval::CampaignEngine engine(&suite::SuiteRegistry(), std::move(options));
  std::vector<uint64_t> ids;
  for (const std::string& name : TestWorkloads()) {
    const uint64_t id = engine.Submit(name, TestOptions(name));
    ASSERT_NE(id, 0u) << name;
    ids.push_back(id);
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    const eval::JobReport* report = engine.Wait(ids[i]);
    ASSERT_NE(report, nullptr);
    EXPECT_EQ(report->state, eval::JobState::kDone) << report->workload;
    EXPECT_EQ(report->status, 0) << report->workload;
    EXPECT_EQ(report->cell_names.size(), report->cell_seconds.size());
    metrics[report->workload] = report->report.metrics().Dump(0);
  }
  if (stats_out != nullptr) {
    *stats_out = engine.stats();
  }
}

// The core scheduling-independence property: 1 worker and 4 workers (steal
// schedules differ run to run) produce byte-identical metric streams.
TEST(CampaignEngine, MetricsIndependentOfWorkerCountAndSchedule) {
  std::map<std::string, std::string> serial;
  ASSERT_NO_FATAL_FAILURE(RunEngine(1, {}, &serial));
  std::map<std::string, std::string> parallel;
  ASSERT_NO_FATAL_FAILURE(RunEngine(4, {}, &parallel));
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial.size(), TestWorkloads().size());
}

// ParseWorkloadArgs consumes the workload flags it knows, with well-formed
// values, and hands everything else back in order.
TEST(CampaignEngine, ParseWorkloadArgsReturnsWhatItDidNotConsume) {
  const char* argv[] = {"fault_matrix", "--quick",        "--seed=0x10", "--seed", "20170423",
                        "--campaigns=12x", "--json=r.json", "--policy=off"};
  eval::WorkloadOptions options;
  const std::vector<std::string> rest =
      eval::ParseWorkloadArgs(8, const_cast<char**>(argv), options);
  EXPECT_TRUE(options.quick);
  EXPECT_EQ(options.extra["seed"], "0x10");
  EXPECT_EQ(options.extra["policy"], "off");
  EXPECT_EQ(options.extra.count("campaigns"), 0u);
  EXPECT_EQ(rest, (std::vector<std::string>{"--seed", "20170423", "--campaigns=12x",
                                            "--json=r.json"}));
}

// The memo is an engine-scoped cache, not an approximation: disabling it
// must not change a single metric byte.
TEST(CampaignEngine, RunMemoIsValuePreserving) {
  eval::EngineOptions with_memo;
  with_memo.run_memo = true;
  eval::EngineOptions without_memo;
  without_memo.run_memo = false;
  std::map<std::string, std::string> memoized;
  ASSERT_NO_FATAL_FAILURE(RunEngine(2, std::move(with_memo), &memoized));
  std::map<std::string, std::string> fresh;
  ASSERT_NO_FATAL_FAILURE(RunEngine(2, std::move(without_memo), &fresh));
  EXPECT_EQ(memoized, fresh);
}

// Durability hooks: payloads recorded via on_cell_done and fed back through
// restore mark every cell done without running it, and assembly still
// produces the identical metric stream — the property bench_runner's
// --resume builds on.
TEST(CampaignEngine, RestoredCellsReproduceMetricsWithoutRunning) {
  std::mutex mutex;
  std::map<std::string, json::Value> payloads;  // "workload/cell" -> payload
  eval::EngineOptions record;
  record.on_cell_done = [&](const std::string& workload, const std::string& cell,
                            const json::Value& payload) {
    std::lock_guard<std::mutex> lock(mutex);
    payloads[workload + "/" + cell] = payload;
  };
  std::map<std::string, std::string> first;
  eval::EngineStats first_stats;
  ASSERT_NO_FATAL_FAILURE(RunEngine(2, std::move(record), &first, &first_stats));
  ASSERT_GT(payloads.size(), 0u);
  EXPECT_EQ(first_stats.cells_run, payloads.size());
  EXPECT_EQ(first_stats.cells_restored, 0u);

  eval::EngineOptions restore;
  restore.restore = [&](const std::string& workload,
                        const std::string& cell) -> const json::Value* {
    auto it = payloads.find(workload + "/" + cell);
    return it == payloads.end() ? nullptr : &it->second;
  };
  std::map<std::string, std::string> second;
  eval::EngineStats second_stats;
  ASSERT_NO_FATAL_FAILURE(RunEngine(2, std::move(restore), &second, &second_stats));
  EXPECT_EQ(first, second);
  EXPECT_EQ(second_stats.cells_run, 0u);
  EXPECT_EQ(second_stats.cells_restored, payloads.size());
}

TEST(CampaignEngine, UnknownIdsAndCancelSemantics) {
  eval::CampaignEngine engine(&suite::SuiteRegistry(), {});
  EXPECT_EQ(engine.Submit("no_such_workload", QuickOptions()), 0u);
  EXPECT_TRUE(engine.JobStatus(999).is_null());
  EXPECT_EQ(engine.Wait(999), nullptr);
  EXPECT_FALSE(engine.Cancel(999));

  const uint64_t id = engine.Submit("fault_matrix", QuickOptions());
  ASSERT_NE(id, 0u);
  const eval::JobReport* report = engine.Wait(id);
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(report->state, eval::JobState::kDone);
  // Finished jobs cannot be cancelled.
  EXPECT_FALSE(engine.Cancel(id));
  const json::Value status = engine.JobStatus(id);
  EXPECT_EQ(status.StringOr("state", ""), "done");
  EXPECT_EQ(status.NumberOr("cells_done", -1), status.NumberOr("cells_total", -2));
}

// A job's wall time runs from its first cell's start to its last cell's
// end. Under one worker the second job's cells only start once the first
// job's are done, so a clock started at Submit() would charge it both jobs'
// cells.
TEST(CampaignEngine, JobWallSecondsExcludeQueueing) {
  eval::EngineOptions options;
  options.jobs = 1;
  eval::CampaignEngine engine(&suite::SuiteRegistry(), std::move(options));
  const uint64_t first = engine.Submit("fig5_indirect", QuickOptions());
  const uint64_t second = engine.Submit("fault_matrix", QuickOptions());
  ASSERT_NE(first, 0u);
  ASSERT_NE(second, 0u);
  const eval::JobReport* reports[] = {engine.Wait(first), engine.Wait(second)};
  double cell_seconds = 0;
  for (const eval::JobReport* report : reports) {
    ASSERT_NE(report, nullptr);
    ASSERT_EQ(report->state, eval::JobState::kDone) << report->workload;
    for (const double seconds : report->cell_seconds) {
      cell_seconds += seconds;
    }
  }
  EXPECT_GT(reports[1]->wall_seconds, 0.0);
  EXPECT_LT(reports[1]->wall_seconds, cell_seconds);
}

// `memsentry_cli serve` protocol: a resident engine behind a UNIX socket.
TEST(CampaignEngine, ServeSocketRoundTrip) {
  const std::string socket_path =
      ::testing::TempDir() + "ms_serve_" + std::to_string(::getpid()) + ".sock";
  ::unlink(socket_path.c_str());
  eval::ServeOptions options;
  options.socket_path = socket_path;
  options.registry = &suite::SuiteRegistry();
  options.jobs = 1;
  options.quiet = true;
  int serve_status = -1;
  std::thread server([&] { serve_status = eval::ServeLoop(options); });

  auto request = [&](json::Value req) {
    for (int attempt = 0; attempt < 100; ++attempt) {
      auto response = eval::ServeRequest(socket_path, req);
      if (response.ok()) {
        return std::move(response).value();
      }
      ::usleep(50'000);  // server still binding
    }
    ADD_FAILURE() << "serve socket never came up: " << socket_path;
    return json::Value();
  };

  json::Value ping = json::Value::Object();
  ping.Set("cmd", "ping");
  EXPECT_TRUE(request(std::move(ping)).BoolOr("ok", false));

  json::Value list = json::Value::Object();
  list.Set("cmd", "workloads");
  const json::Value workloads = request(std::move(list));
  EXPECT_TRUE(workloads.BoolOr("ok", false));
  bool has_fault_matrix = false;
  if (const json::Value* names = workloads.Find("workloads")) {
    for (const json::Value& name : names->items()) {
      has_fault_matrix |= name.is_string() && name.string_value() == "fault_matrix";
    }
  }
  EXPECT_TRUE(has_fault_matrix);

  json::Value submit = json::Value::Object();
  submit.Set("cmd", "submit");
  submit.Set("workload", "fault_matrix");
  submit.Set("quick", true);
  submit.Set("instructions", 100'000);
  const json::Value submitted = request(std::move(submit));
  ASSERT_TRUE(submitted.BoolOr("ok", false));
  const uint64_t job = static_cast<uint64_t>(submitted.NumberOr("job", 0));
  ASSERT_GE(job, 1u);

  json::Value wait = json::Value::Object();
  wait.Set("cmd", "wait");
  wait.Set("job", job);
  const json::Value finished = request(std::move(wait));
  EXPECT_TRUE(finished.BoolOr("ok", false));
  const json::Value* info = finished.Find("job");
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->StringOr("state", ""), "done");
  const json::Value* metrics = finished.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_GT(metrics->size(), 0u);

  json::Value bogus = json::Value::Object();
  bogus.Set("cmd", "wait");
  bogus.Set("job", 424242);
  EXPECT_FALSE(request(std::move(bogus)).BoolOr("ok", true));

  json::Value cancel = json::Value::Object();
  cancel.Set("cmd", "cancel");
  cancel.Set("job", job);
  const json::Value cancelled = request(std::move(cancel));
  EXPECT_TRUE(cancelled.BoolOr("ok", false));
  EXPECT_FALSE(cancelled.BoolOr("cancelled", true));  // job already finished

  json::Value shutdown = json::Value::Object();
  shutdown.Set("cmd", "shutdown");
  EXPECT_TRUE(request(std::move(shutdown)).BoolOr("ok", false));
  server.join();
  EXPECT_EQ(serve_status, 0);
}

}  // namespace
}  // namespace memsentry

// ---------------------------------------------------------------------------
// Runner-level end-to-end: the real bench_runner binary against the real
// `memsentry_cli run`.
#if defined(MEMSENTRY_BENCH_RUNNER) && defined(MEMSENTRY_CLI)

namespace memsentry {
namespace {

namespace fs = std::filesystem;

// The registered-workload subset the runner tests sweep, in suite order: one
// figure sweep (57 cells — enough to exercise stealing and mid-run kills),
// one case study with a memoizable baseline, one fault sweep.
constexpr char kSubset[] = "fig5_indirect,safestack_casestudy,fault_matrix";

struct RunnerRun {
  int exit_code = 0;
  std::string log;
  json::Value merged;
};

std::string FreshDir(const char* name) {
  const std::string dir = ::testing::TempDir() + name;
  std::system(("rm -rf \"" + dir + "\" && mkdir -p \"" + dir + "\"").c_str());
  return dir;
}

// Runs `command`, capturing its output in `log`; returns the exit code.
int RunLogged(const std::string& command, const std::string& log, std::string* output) {
  const int raw = std::system((command + " > \"" + log + "\" 2>&1").c_str());
  std::ifstream in(log);
  output->assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
}

RunnerRun RunSuite(const std::string& dir, const std::string& out_name,
                   const std::string& extra_flags, const std::string& only = kSubset) {
  RunnerRun run;
  const std::string out = dir + "/" + out_name;
  run.exit_code = RunLogged(std::string("\"") + MEMSENTRY_BENCH_RUNNER + "\" --only=" + only +
                                " --quick --out=\"" + out + "\" --no-gate " + extra_flags,
                            out + ".log", &run.log);
  auto merged = json::ParseFile(out);
  EXPECT_TRUE(merged.ok()) << "no merged report at " << out << "\n" << run.log;
  if (merged.ok()) {
    run.merged = std::move(merged).value();
  }
  return run;
}

// Every fidelity/perf metric (info and host-side metrics legitimately vary
// run to run), serialized for exact comparison.
std::string GatedMetrics(const json::Value& merged) {
  std::string out;
  const json::Value* metrics = merged.Find("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    return out;
  }
  for (const auto& [name, entry] : metrics->members()) {
    const std::string kind = entry.StringOr("kind", "info");
    if (kind == "info" || entry.BoolOr("host", false)) {
      continue;
    }
    const json::Value* value = entry.Find("value");
    out += name + "=" + (value != nullptr ? value->Dump(0) : "<missing>") + "\n";
  }
  return out;
}

// The acceptance property: the merged report is bit-identical at every
// --jobs value (--jobs=1 is the reference), the runner's own
// --check-determinism agrees, and `memsentry_cli run <workload> --json`
// emits exactly the runner's gated metrics for its workload.
TEST(BenchRunnerEngine, InprocMatchesStandaloneAtAnyJobs) {
  const std::string dir = FreshDir("campaign_engine_inproc");
  const RunnerRun reference = RunSuite(dir, "inproc_j1.json", "--engine=inproc --jobs=1");
  ASSERT_EQ(reference.exit_code, 0) << reference.log;
  const std::string reference_metrics = GatedMetrics(reference.merged);
  ASSERT_FALSE(reference_metrics.empty());

  for (const char* jobs : {"4", "0"}) {  // 0 = hardware_concurrency
    const std::string out = std::string("inproc_j") + jobs + ".json";
    const RunnerRun inproc = RunSuite(dir, out,
                                      std::string("--engine=inproc --jobs=") + jobs +
                                          " --check-determinism=\"" + dir + "/inproc_j1.json\"");
    ASSERT_EQ(inproc.exit_code, 0) << inproc.log;
    EXPECT_NE(inproc.log.find("determinism check ok"), std::string::npos) << inproc.log;
    const json::Value* engine = inproc.merged.Find("engine");
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(engine->StringOr("engine", ""), "inproc");
    EXPECT_GT(engine->NumberOr("cells_run", 0) + engine->NumberOr("cells_restored", 0), 0);
    EXPECT_EQ(GatedMetrics(inproc.merged), reference_metrics) << "--jobs=" << jobs;
    // Per-cell timing info metrics ride along in the merged doc.
    const json::Value* metrics = inproc.merged.Find("metrics");
    ASSERT_NE(metrics, nullptr);
    bool has_cell_timing = false;
    for (const auto& [name, entry] : metrics->members()) {
      has_cell_timing |= name.rfind("engine/seconds/", 0) == 0;
      (void)entry;
    }
    EXPECT_TRUE(has_cell_timing);
  }

  // `memsentry_cli run`, one process per workload, at the quick budget.
  json::Value standalone = json::Value::Object();
  standalone.Set("metrics", json::Value::Object());
  const std::string subset = kSubset;
  for (size_t start = 0; start < subset.size();) {
    const size_t comma = std::min(subset.find(',', start), subset.size());
    const std::string name = subset.substr(start, comma - start);
    start = comma + 1;
    const std::string report = dir + "/" + name + ".json";
    std::string log;
    ASSERT_EQ(RunLogged(std::string("\"") + MEMSENTRY_CLI + "\" run " + name + " --json=\"" +
                            report + "\" --instructions=100000 --jobs=2 --bundle-root=\"" + dir +
                            "/bundles\"",
                        report + ".log", &log),
              0)
        << log;
    auto parsed = json::ParseFile(report);
    ASSERT_TRUE(parsed.ok()) << report;
    EXPECT_EQ(parsed->StringOr("binary", ""), name);
    EXPECT_EQ(parsed->NumberOr("instructions", 0), 100'000);
    const json::Value* metrics = parsed->Find("metrics");
    ASSERT_NE(metrics, nullptr);
    EXPECT_NE(metrics->Find(name + "/wall_seconds"), nullptr) << name;
    for (const auto& [metric, entry] : metrics->members()) {
      standalone["metrics"].Set(metric, entry);
    }
  }
  EXPECT_EQ(GatedMetrics(standalone), reference_metrics);
}

// `memsentry_cli run` is strict: an unknown or malformed argument exits 2
// and names the argument instead of running the workload with its
// defaults, and an unknown workload lists the registered ones.
TEST(MemsentryCliRun, RejectsUnknownAndMalformedArguments) {
  const std::string dir = FreshDir("campaign_engine_cli_args");
  const std::string cli = std::string("\"") + MEMSENTRY_CLI + "\" run ";
  std::string log;
  // A space, not '=': the old parser ran the default seed and exited 0.
  EXPECT_EQ(RunLogged(cli + "fault_matrix --seed 20170423 --json=\"" + dir + "/seed.json\"",
                      dir + "/seed.log", &log),
            2);
  EXPECT_NE(log.find("--seed\n"), std::string::npos) << log;
  EXPECT_NE(log.find("20170423"), std::string::npos) << log;
  EXPECT_FALSE(fs::exists(dir + "/seed.json"));

  EXPECT_EQ(RunLogged(cli + "fig3_address --instrutions=1000", dir + "/typo.log", &log), 2);
  EXPECT_NE(log.find("--instrutions=1000"), std::string::npos) << log;
  EXPECT_EQ(RunLogged(cli + "fig3_address --instructions=1e3", dir + "/value.log", &log), 2);
  EXPECT_NE(log.find("--instructions=1e3"), std::string::npos) << log;

  EXPECT_EQ(RunLogged(cli + "fig3_adress", dir + "/workload.log", &log), 2);
  EXPECT_NE(log.find("fig3_adress"), std::string::npos) << log;
  for (const eval::Workload& workload : suite::SuiteRegistry().workloads()) {
    EXPECT_NE(log.find("  " + workload.name + "\n"), std::string::npos) << workload.name;
  }
}

// Which workloads run, and in what order, must not change a result. The
// pair below once did: its VMFUNC and mprotect call/ret modules for
// 453.povray differ only in vmfunc -> mprotect opcodes, their decode-cache
// digests collided, and the mprotect cell ran VMFUNC's lowering (-1 and a
// null geomean). Every gated metric of the pair must equal the full suite's.
TEST(BenchRunnerEngine, WorkloadSelectionDoesNotChangeResults) {
  const std::string dir = FreshDir("campaign_engine_selection");
  const RunnerRun full = RunSuite(dir, "full.json", "--engine=inproc --jobs=2", "");
  ASSERT_EQ(full.exit_code, 0) << full.log;
  const RunnerRun pair = RunSuite(dir, "pair.json", "--engine=inproc --jobs=1",
                                  "fig4_callret,mprotect_baseline");
  ASSERT_EQ(pair.exit_code, 0) << pair.log;
  const json::Value* pair_metrics = pair.merged.Find("metrics");
  ASSERT_NE(pair_metrics, nullptr);
  const json::Value* povray = pair_metrics->Find("mprotect/norm/453.povray");
  ASSERT_NE(povray, nullptr);
  EXPECT_GT(povray->NumberOr("value", -1), 0);
  json::Value full_subset = json::Value::Object();
  full_subset.Set("metrics", json::Value::Object());
  for (const auto& [name, entry] : pair_metrics->members()) {
    if (const json::Value* in_full = full.merged.Find("metrics")->Find(name)) {
      full_subset["metrics"].Set(name, *in_full);
    }
  }
  const std::string pair_gated = GatedMetrics(pair.merged);
  ASSERT_FALSE(pair_gated.empty());
  EXPECT_EQ(pair_gated, GatedMetrics(full_subset));
}

// kill -9 mid-suite, then --resume: the journal restores finished cells and
// the re-run converges to the clean run's exact report. Robust to the
// inherent race: whether the kill lands before the journal header, mid-run,
// or after completion, the resumed report must match the reference.
TEST(BenchRunnerEngine, JournalResumeAfterKillNine) {
  const std::string dir = FreshDir("campaign_engine_resume");
  const RunnerRun reference = RunSuite(dir, "clean.json", "--engine=inproc --jobs=2");
  ASSERT_EQ(reference.exit_code, 0) << reference.log;
  const std::string reference_metrics = GatedMetrics(reference.merged);
  ASSERT_FALSE(reference_metrics.empty());

  const std::string out = dir + "/resumed.json";
  const std::string journal = dir + "/journal.jsonl";
  const std::vector<std::string> arg_strings = {
      MEMSENTRY_BENCH_RUNNER,
      "--only=" + std::string(kSubset),
      "--quick",
      "--engine=inproc",
      "--jobs=2",
      "--out=" + out,
      "--journal=" + journal,
      "--no-gate",
  };
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const int devnull = ::open("/dev/null", O_WRONLY);
    ::dup2(devnull, STDOUT_FILENO);
    ::dup2(devnull, STDERR_FILENO);
    std::vector<char*> argv;
    for (const std::string& arg : arg_strings) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::usleep(250'000);  // let the engine get mid-suite
  ::kill(pid, SIGKILL);
  int wstatus = 0;
  ::waitpid(pid, &wstatus, 0);

  const RunnerRun resumed =
      RunSuite(dir, "resumed.json", "--engine=inproc --jobs=2 --journal=\"" + journal +
                                        "\" --resume");
  ASSERT_EQ(resumed.exit_code, 0) << resumed.log;
  EXPECT_EQ(GatedMetrics(resumed.merged), reference_metrics);
  // The journal survived the kill and identifies the inproc engine.
  std::ifstream in(journal);
  std::string header_line;
  ASSERT_TRUE(std::getline(in, header_line));
  auto header = json::Parse(header_line);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header.value().StringOr("engine", ""), "inproc");

  // Resuming under a different configuration must refuse to merge, loudly,
  // and leave the report it would have replaced alone.
  std::string log;
  EXPECT_EQ(RunLogged(std::string("\"") + MEMSENTRY_BENCH_RUNNER + "\" --only=" + kSubset +
                          " --quick --engine=inproc --jobs=2 --instructions=123 --out=\"" + out +
                          "\" --journal=\"" + journal + "\" --resume --no-gate",
                      dir + "/mismatched.log", &log),
            2)
      << log;
  EXPECT_NE(log.find("differently configured run"), std::string::npos) << log;
  auto kept = json::ParseFile(out);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(GatedMetrics(kept.value()), reference_metrics);
}

}  // namespace
}  // namespace memsentry

#endif  // MEMSENTRY_BENCH_RUNNER && MEMSENTRY_CLI
#endif  // !_WIN32
