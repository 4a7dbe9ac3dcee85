// bench_runner — runs the whole benchmark suite through one warm engine,
// merges every workload's metrics into one BENCH_RESULTS.json, and gates the
// result against a committed baseline snapshot (bench/baselines/). Exits
// nonzero when a workload fails or a fidelity metric drifts beyond its
// tolerance, so CI can consume it directly.
//
// Every suite workload is registered in src/suite/workloads.h; the runner
// submits them in suite order to one eval::CampaignEngine in this process,
// which runs their cells on a persistent work-stealing pool of --jobs
// workers with one shared decode cache, synthesis cache and run memo, and
// assembles each workload serially in cell order. Fidelity/perf metrics are
// therefore bit-identical for every --jobs value and steal schedule, and a
// crashed run resumes from its cell journal (--resume). `memsentry_cli run
// <name> --json=PATH` runs one workload through the same engine and emits
// the same gated metrics, with its tables printed. google-benchmark's
// host-time microbenchmarks (build/bench/bench_substrate) run on their own,
// outside the suite.
//
//   bench_runner                      full suite (400k-instruction workloads)
//   bench_runner --quick              CI mode: 100k instructions, shrunk sweeps
//   bench_runner --only=fig3_address,table4_micro
//   bench_runner --skip=server_workload
//   bench_runner --out=BENCH_RESULTS.json
//   bench_runner --instructions=N     override the mode's instruction budget
//   bench_runner --jobs=N             engine workers (default:
//                                     hardware_concurrency)
//   bench_runner --baseline=PATH      (default: bench/baselines/seed[-quick].json)
//   bench_runner --baselines-dir=DIR  where perf-gating snapshots are counted
//   bench_runner --compare=RESULTS    gate an existing merged report, run nothing
//   bench_runner --write-baseline=P   also snapshot the merged report to P
//   bench_runner --no-gate            produce BENCH_RESULTS.json, skip comparison
//   bench_runner --check-determinism=OTHER.json
//                                     require every fidelity/perf metric to be
//                                     byte-identical to OTHER (info metrics
//                                     such as wall-clock are exempt)
//   bench_runner --fastpath=MODE      force the simulator fast paths
//                                     on|off|check. Modeled results are
//                                     bit-identical across modes; "check"
//                                     additionally validates the fast paths in
//                                     lockstep and aborts on divergence.
//   bench_runner --journal=PATH       suite journal location (default:
//                                     BENCH_JOURNAL.jsonl next to --out): a
//                                     header describing the run, then one
//                                     event per workload start/finish and one
//                                     per finished cell, with its payload.
//   bench_runner --resume             resume a killed run from its journal:
//                                     journaled cells are restored, not re-run,
//                                     and the merged report and gate verdict
//                                     equal an uninterrupted run's. A journal
//                                     written under a different configuration
//                                     is refused with exit 2.
//
// Exit codes: 0 pass, 1 gate or workload failure, 2 usage error.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/base/fastpath.h"
#include "src/base/json.h"
#include "src/base/thread_pool.h"
#include "src/eval/campaign_engine.h"
#include "src/eval/regression_gate.h"
#include "src/eval/report_builder.h"
#include "src/eval/run_memo.h"
#include "src/sim/decode_cache.h"
#include "src/suite/workloads.h"

#ifndef MEMSENTRY_SOURCE_DIR
#define MEMSENTRY_SOURCE_DIR "."
#endif

namespace memsentry {
namespace {

namespace fs = std::filesystem;

constexpr uint64_t kFullInstructions = 400'000;
constexpr uint64_t kQuickInstructions = 100'000;
// The "engine" field of the journal header, the report's "engine" object and
// each workload's "binaries" entry. It names the one in-process engine and
// stays a constant so that journals written when the runner had a second
// engine still --resume, and report readers keep finding it.
constexpr char kEngine[] = "inproc";

struct SuiteEntry {
  const char* name;
  // Extra workload argv applied only in --quick mode.
  const char* quick_extra = "";
};

// Every registered suite workload, in suite order.
const SuiteEntry kSuite[] = {
    {"table1_defenses"},
    {"table2_applicability"},
    {"table3_limits"},
    {"table4_micro"},
    {"fig3_address"},
    {"fig4_callret"},
    {"fig5_indirect"},
    {"fig6_syscall"},
    {"mprotect_baseline"},
    {"crypt_size_sweep"},
    {"safestack_casestudy"},
    {"attack_matrix"},
    {"attack_campaigns", "--campaigns=160"},
    {"fault_matrix"},
    {"ablations"},
    {"server_workload", "--quick"},
    {"microarch_stats"},
};

struct Options {
  bool quick = false;
  bool gate = true;
  bool resume = false;
  uint64_t instructions = 0;  // 0 = mode default
  int jobs = 0;               // 0 = hardware_concurrency; 1 = fully serial
  std::string out = "BENCH_RESULTS.json";
  std::string baseline;
  std::string baselines_dir;
  std::string compare_existing;
  std::string write_baseline;
  std::string check_determinism;
  std::string fastpath;  // empty = inherit the environment
  std::string journal;   // empty = BENCH_JOURNAL.jsonl next to --out
  std::vector<std::string> only;
  std::vector<std::string> skip;
};

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= csv.size()) {
    const size_t comma = csv.find(',', start);
    const std::string item = csv.substr(start, comma - start);
    if (!item.empty()) {
      out.push_back(item);
    }
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  return out;
}

bool Contains(const std::vector<std::string>& list, const std::string& name) {
  for (const auto& item : list) {
    if (item == name) {
      return true;
    }
  }
  return false;
}

// Write-ahead suite journal: one JSON object per line — a header describing
// the run configuration, then {"event":"start"|"done",...} per workload and
// one {"event":"cell",...} per finished cell. The header (and a resumed
// run's replayed prefix) goes through the temp-file+rename path; every event
// after that is appended with a single buffered write + flush, so a suite's
// hundreds of cell events cost linear, not quadratic, journal I/O. The
// append can tear at most the line in flight under a kill -9; LoadJournal
// drops a torn tail and resumes from the last complete event.
class Journal {
 public:
  explicit Journal(std::string path) : path_(std::move(path)) {}
  ~Journal() {
    if (file_ != nullptr) {
      std::fclose(file_);
    }
  }

  const std::string& path() const { return path_; }

  // Starts a fresh journal (overwrites any previous run's).
  void Start(const json::Value& header) {
    std::lock_guard<std::mutex> lock(mutex_);
    Reset(header.Dump(0) + "\n");
  }

  // Continues an existing journal (the --resume path). `existing` is the
  // complete-line prefix LoadJournal recovered, so a torn tail from the
  // killed run is dropped rather than appended after.
  void Continue(std::string existing) {
    std::lock_guard<std::mutex> lock(mutex_);
    Reset(existing);
  }

  void Append(const json::Value& event) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (file_ == nullptr) {
      return;
    }
    const std::string line = event.Dump(0) + "\n";
    if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() ||
        std::fflush(file_) != 0) {
      std::fprintf(stderr, "bench_runner: journal write failed: %s\n", path_.c_str());
    }
  }

 private:
  void Reset(const std::string& prefix) {
    if (file_ != nullptr) {
      std::fclose(file_);
      file_ = nullptr;
    }
    if (Status s = json::WriteTextFileAtomic(path_, prefix); !s.ok()) {
      std::fprintf(stderr, "bench_runner: journal write failed: %s\n", s.ToString().c_str());
      return;
    }
    file_ = std::fopen(path_.c_str(), "ab");
    if (file_ == nullptr) {
      std::fprintf(stderr, "bench_runner: cannot append to journal %s\n", path_.c_str());
    }
  }

  std::string path_;
  std::FILE* file_ = nullptr;
  std::mutex mutex_;
};

// What a previous run's journal says about the suite: the run-configuration
// header and every completed cell's payload, keyed (workload, cell). A
// restored cell skips execution entirely and feeds its journaled payload
// straight to assembly.
struct JournalState {
  json::Value header;
  std::map<std::string, std::map<std::string, json::Value>> cells;  // workload -> cell -> payload
  std::string raw;  // full text, continued on resume
};

StatusOr<JournalState> LoadJournal(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return NotFound("no journal at " + path);
  }
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);

  JournalState state;
  state.raw = text;
  size_t start = 0;
  bool first = true;
  while (start < text.size()) {
    const size_t line_start = start;
    size_t end = text.find('\n', start);
    if (end == std::string::npos) {
      end = text.size();
    }
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty()) {
      continue;
    }
    auto parsed = json::Parse(line);
    if (!parsed.ok()) {
      // A kill -9 can tear the event that was mid-append. Drop the torn tail
      // from the replayed prefix so Continue() never writes after a partial
      // line, and treat the rest as absent.
      state.raw = text.substr(0, line_start);
      break;
    }
    if (first) {
      if (parsed->Find("journal") == nullptr) {
        return InvalidArgument(path + " does not start with a journal header");
      }
      state.header = std::move(parsed).value();
      first = false;
      continue;
    }
    if (parsed->StringOr("event", "") == "cell") {
      if (const json::Value* payload = parsed->Find("payload"); payload != nullptr) {
        state.cells[parsed->StringOr("binary", "")][parsed->StringOr("cell", "")] = *payload;
      }
    }
  }
  if (first) {
    return InvalidArgument(path + " is empty");
  }
  return state;
}

json::Value InfoMetric(double value) {
  json::Value entry = json::Value::Object();
  entry.Set("value", value);
  entry.Set("kind", "info");
  entry.Set("tol", 0.0);
  return entry;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_runner [--quick] [--only=a,b] [--skip=a,b] [--out=PATH]\n"
               "                    [--baseline=PATH] [--baselines-dir=DIR] [--no-gate]\n"
               "                    [--compare=RESULTS] [--write-baseline=PATH]\n"
               "                    [--instructions=N] [--jobs=N]\n"
               "                    [--check-determinism=OTHER.json]\n"
               "                    [--fastpath=on|off|check] [--journal=PATH] [--resume]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Options& opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* flag) -> const char* {
      const size_t n = std::strlen(flag);
      if (arg.compare(0, n, flag) == 0 && arg.size() > n && arg[n] == '=') {
        return arg.c_str() + n + 1;
      }
      return nullptr;
    };
    if (arg == "--quick") {
      opts.quick = true;
    } else if (arg == "--no-gate") {
      opts.gate = false;
    } else if (arg == "--resume") {
      opts.resume = true;
    } else if (const char* v = value("--journal")) {
      opts.journal = v;
    } else if (const char* v = value("--only")) {
      opts.only = SplitCsv(v);
    } else if (const char* v = value("--skip")) {
      opts.skip = SplitCsv(v);
    } else if (const char* v = value("--out")) {
      opts.out = v;
    } else if (const char* v = value("--baseline")) {
      opts.baseline = v;
    } else if (const char* v = value("--baselines-dir")) {
      opts.baselines_dir = v;
    } else if (const char* v = value("--compare")) {
      opts.compare_existing = v;
    } else if (const char* v = value("--write-baseline")) {
      opts.write_baseline = v;
    } else if (const char* v = value("--instructions")) {
      opts.instructions = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--jobs")) {
      opts.jobs = static_cast<int>(std::strtol(v, nullptr, 10));
    } else if (const char* v = value("--check-determinism")) {
      opts.check_determinism = v;
    } else if (const char* v = value("--fastpath")) {
      opts.fastpath = v;
    } else {
      std::fprintf(stderr, "bench_runner: unknown argument %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

const char* CompilerString() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

// Compares every fidelity/perf metric of `results` and `other` for exact
// (bitwise double) equality in both directions. Info metrics — wall clocks,
// host-side benchmark times, jobs — and host-flagged perf metrics
// (sim_instr_per_second) legitimately differ between runs and are exempt.
// Returns the number of mismatches, printing each.
int CountDeterminismMismatches(const json::Value& results, const json::Value& other) {
  const json::Value* a = results.Find("metrics");
  const json::Value* b = other.Find("metrics");
  if (a == nullptr || !a->is_object() || b == nullptr || !b->is_object()) {
    std::fprintf(stderr, "bench_runner: determinism check needs \"metrics\" in both files\n");
    return 1;
  }
  int mismatches = 0;
  for (const auto& [name, entry] : a->members()) {
    if (eval::ParseMetricKind(entry.StringOr("kind", "info")) == eval::MetricKind::kInfo ||
        entry.BoolOr("host", false)) {
      continue;
    }
    const json::Value* peer = b->Find(name);
    if (peer == nullptr) {
      std::fprintf(stderr, "  [determinism] %s: missing from other run\n", name.c_str());
      ++mismatches;
      continue;
    }
    const double va = entry.NumberOr("value", 0.0);
    const double vb = peer->NumberOr("value", 0.0);
    if (va != vb) {
      std::fprintf(stderr, "  [determinism] %s: %.17g != %.17g\n", name.c_str(), va, vb);
      ++mismatches;
    }
  }
  for (const auto& [name, entry] : b->members()) {
    if (eval::ParseMetricKind(entry.StringOr("kind", "info")) == eval::MetricKind::kInfo ||
        entry.BoolOr("host", false)) {
      continue;
    }
    if (a->Find(name) == nullptr) {
      std::fprintf(stderr, "  [determinism] %s: missing from this run\n", name.c_str());
      ++mismatches;
    }
  }
  return mismatches;
}

int Severity3(eval::Severity s) {
  return s == eval::Severity::kFailure ? 2 : s == eval::Severity::kWarning ? 1 : 0;
}

void PrintGateReport(const eval::GateReport& report, const std::string& baseline_path,
                     bool perf_gated) {
  std::printf("\n---- regression gate vs %s ----\n", baseline_path.c_str());
  std::printf("perf metrics: %s\n",
              perf_gated ? "gated (>=2 baseline snapshots)" : "warn-only (single baseline)");
  for (int severity = 2; severity >= 0; --severity) {
    for (const auto& issue : report.issues) {
      if (Severity3(issue.severity) != severity) {
        continue;
      }
      const char* tag = severity == 2 ? "FAIL" : severity == 1 ? "warn" : "note";
      std::printf("  [%s] %s: %s\n", tag, issue.metric.c_str(), issue.message.c_str());
    }
  }
  std::printf("gate: %s (%s)\n", report.ok() ? "PASS" : "FAIL", report.Summary().c_str());
}

}  // namespace

int Run(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, opts)) {
    return Usage();
  }
  if (!opts.fastpath.empty()) {
    base::FastPathMode mode;
    if (!base::ParseFastPathMode(opts.fastpath.c_str(), &mode)) {
      std::fprintf(stderr, "bench_runner: bad --fastpath value '%s' (want on|off|check)\n",
                   opts.fastpath.c_str());
      return 2;
    }
    base::SetFastPathMode(mode);
  }
  const uint64_t instructions =
      opts.instructions != 0 ? opts.instructions
                             : (opts.quick ? kQuickInstructions : kFullInstructions);
  if (opts.baselines_dir.empty()) {
    opts.baselines_dir = std::string(MEMSENTRY_SOURCE_DIR) + "/bench/baselines";
  }
  if (opts.baseline.empty()) {
    opts.baseline =
        opts.baselines_dir + (opts.quick ? "/seed-quick.json" : "/seed.json");
  }

  json::Value merged = json::Value::Object();
  int exit_code = 0;

  if (!opts.compare_existing.empty()) {
    auto loaded = json::ParseFile(opts.compare_existing);
    if (!loaded.ok()) {
      std::fprintf(stderr, "bench_runner: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    merged = std::move(loaded).value();
  } else {
    // Reject --only/--skip names that match nothing: a typo would otherwise
    // run an empty suite and fail the gate with hundreds of "missing metric"
    // errors instead of naming the bad selector.
    for (const std::vector<std::string>* selector : {&opts.only, &opts.skip}) {
      for (const std::string& name : *selector) {
        bool known = false;
        for (const SuiteEntry& entry : kSuite) {
          known = known || name == entry.name;
        }
        if (!known) {
          std::fprintf(stderr, "bench_runner: unknown benchmark '%s' in --only/--skip\n",
                       name.c_str());
          return 2;
        }
      }
    }
    std::vector<const SuiteEntry*> to_run;
    for (const SuiteEntry& entry : kSuite) {
      if ((opts.only.empty() || Contains(opts.only, entry.name)) &&
          !Contains(opts.skip, entry.name)) {
        to_run.push_back(&entry);
      }
    }

    merged.Set("schema", 1);
    merged.Set("suite", "memsentry-bench");
    merged.Set("mode", opts.quick ? "quick" : "full");
    merged.Set("instructions", instructions);
    merged.Set("fastpath", opts.fastpath.empty() ? "default" : opts.fastpath);
    json::Value binaries = json::Value::Object();
    json::Value metrics = json::Value::Object();

    // The suite journal. A fresh run writes a new header; --resume validates
    // the existing header against this invocation's configuration (merging
    // two differently-configured runs would silently gate garbage) and
    // collects every cell already journaled with its payload.
    const std::string journal_path =
        opts.journal.empty() ? (fs::path(opts.out).parent_path() / "BENCH_JOURNAL.jsonl").string()
                             : opts.journal;
    Journal journal(journal_path);
    json::Value journal_header = json::Value::Object();
    journal_header.Set("journal", 1);
    journal_header.Set("mode", opts.quick ? "quick" : "full");
    journal_header.Set("instructions", instructions);
    journal_header.Set("fastpath", opts.fastpath.empty() ? "default" : opts.fastpath);
    journal_header.Set("engine", kEngine);
    journal_header.Set("out", opts.out);
    std::map<std::string, std::map<std::string, json::Value>> journal_cells;
    bool resuming = false;
    if (opts.resume) {
      auto previous = LoadJournal(journal_path);
      if (!previous.ok()) {
        std::fprintf(stderr, "bench_runner: --resume: %s; starting fresh\n",
                     previous.status().ToString().c_str());
      } else if (previous->header.Dump(0) != journal_header.Dump(0)) {
        std::fprintf(stderr,
                     "bench_runner: --resume: journal %s was written by a differently "
                     "configured run\n  journal: %s\n  this run: %s\n",
                     journal_path.c_str(), previous->header.Dump(0).c_str(),
                     journal_header.Dump(0).c_str());
        return 2;
      } else {
        journal_cells = std::move(previous->cells);
        journal.Continue(std::move(previous->raw));
        resuming = true;
      }
    }
    if (!resuming) {
      journal.Start(journal_header);
    }

    // Each workload's options and the cell-granular durability hooks.
    // Restored cells skip execution and feed their journaled payloads to
    // assembly; every finished cell's payload is journaled (Journal::Append
    // serializes), so a kill -9 mid-suite costs at most the cells that were
    // in flight.
    std::vector<eval::WorkloadOptions> workload_options(to_run.size());
    for (size_t i = 0; i < to_run.size(); ++i) {
      workload_options[i].experiment.target_instructions = instructions;
      if (opts.quick && to_run[i]->quick_extra[0] != '\0') {
        const char* extra_argv[] = {"bench_runner", to_run[i]->quick_extra};
        eval::ParseWorkloadArgs(2, const_cast<char**>(extra_argv), workload_options[i]);
      }
    }
    auto restore = [&journal_cells](const std::string& workload,
                                    const std::string& cell) -> const json::Value* {
      const auto wit = journal_cells.find(workload);
      if (wit == journal_cells.end()) {
        return nullptr;
      }
      const auto cit = wit->second.find(cell);
      return cit == wit->second.end() ? nullptr : &cit->second;
    };
    auto on_cell_done = [&journal](const std::string& workload, const std::string& cell,
                                   const json::Value& payload) {
      json::Value event = json::Value::Object();
      event.Set("event", "cell");
      event.Set("binary", workload);
      event.Set("cell", cell);
      event.Set("payload", payload);
      journal.Append(event);
    };
    auto announce = [&](const SuiteEntry& entry) {
      std::printf("[bench_runner] %s (%s) ...\n", entry.name, kEngine);
      std::fflush(stdout);
      json::Value started = json::Value::Object();
      started.Set("event", "start");
      started.Set("binary", entry.name);
      journal.Append(started);
    };

    const int total_jobs = ResolveJobs(opts.jobs);
    const auto suite_start = std::chrono::steady_clock::now();
    eval::EngineOptions engine_options;
    // Escape hatch for memo bisection: MEMSENTRY_NO_RUN_MEMO=1 runs every
    // cell from scratch. Results must not change (the determinism check
    // passes either way) — only the wall-clock does.
    engine_options.run_memo = std::getenv("MEMSENTRY_NO_RUN_MEMO") == nullptr;
    engine_options.jobs = total_jobs;
    engine_options.restore = restore;
    engine_options.on_cell_done = on_cell_done;
    // Engine-wide decode statistics start from zero so the merged report's
    // engine/decode_cache_* metrics describe exactly this suite run.
    sim::DecodeCache::Global().ResetStats();
    // The engine owns the reports, so it lives until the merge below is done.
    eval::CampaignEngine engine(&suite::SuiteRegistry(), engine_options);
    // Submit every workload up front: the engine interleaves all of their
    // cells across its workers, so a straggler workload soaks up the whole
    // pool.
    std::vector<uint64_t> job_ids(to_run.size(), 0);
    for (size_t i = 0; i < to_run.size(); ++i) {
      announce(*to_run[i]);
      job_ids[i] = engine.Submit(to_run[i]->name, workload_options[i]);
    }
    // One report per entry (nullptr = never accepted).
    std::vector<const eval::JobReport*> reports(to_run.size(), nullptr);
    for (size_t i = 0; i < to_run.size(); ++i) {
      reports[i] = engine.Wait(job_ids[i]);
    }
    const eval::EngineStats engine_stats = engine.stats();
    const sim::DecodeCacheStats decode_stats = sim::DecodeCache::Global().stats();
    const double suite_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - suite_start).count();

    // Merge serially in suite order, so the merged document (and any error
    // output) is identical no matter how the cells were scheduled.
    for (size_t i = 0; i < to_run.size(); ++i) {
      const std::string name = to_run[i]->name;
      if (reports[i] == nullptr) {
        std::fprintf(stderr, "bench_runner: %s was not accepted by the engine\n",
                     name.c_str());
        exit_code = 1;
        continue;
      }
      const eval::JobReport& job = *reports[i];
      size_t restored = 0;
      for (size_t c = 0; c < job.cell_restored.size(); ++c) {
        restored += job.cell_restored[c] ? 1 : 0;
      }
      std::printf("[bench_runner] %s done: %zu cells (%zu restored) in %.2fs\n", name.c_str(),
                  job.cell_names.size(), restored, job.wall_seconds);
      json::Value done = json::Value::Object();
      done.Set("event", "done");
      done.Set("binary", name);
      done.Set("exit", job.status);
      done.Set("wall_seconds", job.wall_seconds);
      done.Set("cells", static_cast<uint64_t>(job.cell_names.size()));
      journal.Append(done);

      json::Value info = json::Value::Object();
      info.Set("exit", job.status);
      info.Set("engine", kEngine);
      info.Set("cells", static_cast<uint64_t>(job.cell_names.size()));
      if (restored > 0) {
        info.Set("cells_restored", static_cast<uint64_t>(restored));
        info.Set("resumed", true);
      }
      info.Set("wall_seconds", job.wall_seconds);
      if (job.state != eval::JobState::kDone || job.status != 0) {
        std::fprintf(stderr, "bench_runner: %s finished %s with status %d\n", name.c_str(),
                     eval::JobStateName(job.state), job.status);
        exit_code = 1;
      }
      binaries.Set(name, std::move(info));
      metrics.Set("runner/seconds/" + name, InfoMetric(job.wall_seconds));
      for (const auto& [metric_name, metric] : job.report.metrics().members()) {
        if (metrics.Find(metric_name) != nullptr) {
          std::fprintf(stderr, "bench_runner: duplicate metric %s from %s\n",
                       metric_name.c_str(), name.c_str());
          exit_code = 1;
          continue;
        }
        metrics.Set(metric_name, metric);
      }
      // The same host trailer `memsentry_cli run --json` writes (info /
      // host-perf kinds, never part of the determinism contract).
      eval::AddHostTrailer(job, metrics);
    }
    std::fflush(stdout);
    // Where the suite's wall-clock actually went, at the engine's scheduling
    // granularity. tools/ci/check_gate.sh wall-summary surfaces the slowest
    // cells from these; all info-kind, never gated.
    for (const eval::JobReport* job : reports) {
      if (job == nullptr) {
        continue;
      }
      for (size_t c = 0; c < job->cell_names.size(); ++c) {
        metrics.Set("engine/seconds/" + job->workload + "/" + job->cell_names[c],
                    InfoMetric(job->cell_seconds[c]));
      }
    }

    // Which engine produced the document, plus its engine-wide aggregates:
    // work-stealing traffic and the shared caches' efficacy. All info-kind:
    // every counter is host-timing-dependent, so none participate in gating
    // or the determinism check.
    metrics.Set("engine/cells_run", InfoMetric(static_cast<double>(engine_stats.cells_run)));
    metrics.Set("engine/cells_restored",
                InfoMetric(static_cast<double>(engine_stats.cells_restored)));
    metrics.Set("engine/steals", InfoMetric(static_cast<double>(engine_stats.steals)));
    metrics.Set("engine/decode_cache_hit_rate", InfoMetric(decode_stats.HitRate()));
    metrics.Set("engine/decode_cache_lowerings",
                InfoMetric(static_cast<double>(decode_stats.misses)));
    metrics.Set("engine/decode_cache_evictions",
                InfoMetric(static_cast<double>(decode_stats.evictions)));
    metrics.Set("engine/decode_cache_bytes", InfoMetric(static_cast<double>(decode_stats.bytes)));
    const eval::RunMemo::Stats memo_stats = eval::RunMemo::Global().stats();
    metrics.Set("engine/run_memo_hit_rate", InfoMetric(memo_stats.HitRate()));
    metrics.Set("engine/run_memo_hits", InfoMetric(static_cast<double>(memo_stats.hits)));
    json::Value engine_header = json::Value::Object();
    engine_header.Set("engine", kEngine);
    engine_header.Set("jobs", engine.jobs());
    engine_header.Set("cells_run", engine_stats.cells_run);
    engine_header.Set("cells_restored", engine_stats.cells_restored);
    engine_header.Set("steals", engine_stats.steals);
    engine_header.Set("decode_cache_hit_rate", decode_stats.HitRate());
    engine_header.Set("decode_cache_lowerings", decode_stats.misses);
    engine_header.Set("decode_cache_evictions", decode_stats.evictions);
    engine_header.Set("decode_cache_bytes", decode_stats.bytes);
    // The wall-clock trajectory of the suite itself: info metrics, recorded
    // in every snapshot but never gated (they are host-dependent).
    metrics.Set("runner/wall_seconds", InfoMetric(suite_seconds));
    metrics.Set("runner/jobs", InfoMetric(total_jobs));
    merged.Set("engine", std::move(engine_header));

    // Host metadata, so future baseline snapshots are attributable.
    json::Value host = json::Value::Object();
    host.Set("jobs", total_jobs);
    host.Set("hardware_concurrency", HardwareJobs());
    host.Set("compiler", CompilerString());
    merged.Set("host", std::move(host));
    merged.Set("binaries", std::move(binaries));
    merged.Set("metrics", std::move(metrics));
    std::printf(
        "[bench_runner] suite wall-clock %.2fs (engine=%s, workers=%d, cells=%llu "
        "run + %llu restored, steals=%llu, decode-cache hit rate %.3f)\n",
        suite_seconds, kEngine, engine.jobs(),
        static_cast<unsigned long long>(engine_stats.cells_run),
        static_cast<unsigned long long>(engine_stats.cells_restored),
        static_cast<unsigned long long>(engine_stats.steals), decode_stats.HitRate());

    if (Status s = json::WriteFileAtomic(opts.out, merged); !s.ok()) {
      std::fprintf(stderr, "bench_runner: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("[bench_runner] wrote %s (%zu metrics)\n", opts.out.c_str(),
                merged.Find("metrics")->size());
  }

  if (!opts.write_baseline.empty()) {
    if (Status s = json::WriteFileAtomic(opts.write_baseline, merged); !s.ok()) {
      std::fprintf(stderr, "bench_runner: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("[bench_runner] snapshot written to %s\n", opts.write_baseline.c_str());
  }

  if (!opts.check_determinism.empty()) {
    auto other = json::ParseFile(opts.check_determinism);
    if (!other.ok()) {
      std::fprintf(stderr, "bench_runner: %s\n", other.status().ToString().c_str());
      return 1;
    }
    const int mismatches = CountDeterminismMismatches(merged, *other);
    if (mismatches > 0) {
      std::fprintf(stderr,
                   "bench_runner: determinism check FAILED: %d fidelity/perf metrics differ "
                   "from %s\n",
                   mismatches, opts.check_determinism.c_str());
      return 1;
    }
    std::printf("[bench_runner] determinism check ok: all fidelity/perf metrics identical "
                "to %s\n",
                opts.check_determinism.c_str());
  }

  if (!opts.gate) {
    return exit_code;
  }

  auto baseline = json::ParseFile(opts.baseline);
  if (!baseline.ok()) {
    std::fprintf(stderr, "bench_runner: no baseline: %s\n",
                 baseline.status().ToString().c_str());
    return 1;
  }

  // Perf metrics warn while only the seed snapshot exists; once a second
  // snapshot for this mode lands in bench/baselines they gate like fidelity.
  int snapshots = 0;
  std::error_code ec;
  for (const auto& dirent : fs::directory_iterator(opts.baselines_dir, ec)) {
    const std::string file = dirent.path().filename().string();
    if (file.size() < 5 || file.substr(file.size() - 5) != ".json") {
      continue;
    }
    const bool is_quick = file.find("-quick") != std::string::npos;
    if (is_quick == opts.quick) {
      ++snapshots;
    }
  }
  eval::GateOptions gate_options;
  gate_options.gate_perf = snapshots >= 2;

  const eval::GateReport report = eval::CompareAgainstBaseline(merged, *baseline, gate_options);
  PrintGateReport(report, opts.baseline, gate_options.gate_perf);
  return report.ok() ? exit_code : 1;
}

}  // namespace memsentry

int main(int argc, char** argv) { return memsentry::Run(argc, argv); }
