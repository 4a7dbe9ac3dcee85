// CampaignEngine — the persistent in-process suite engine (DESIGN.md §11).
//
// Every paper table and figure is a registered Workload: it enumerates its
// experiment cells (one (config, profile) pair, one fault cell, one tenant
// sweep point, ...) and assembles the cell payloads into its metric stream
// and, when asked, its printed tables. The engine schedules every submitted
// workload's cells onto one warm pool of workers with work stealing at cell
// granularity: each worker owns a deque fed round-robin at submit time,
// pops its own front, and steals from the back of a sibling's deque when it
// runs dry — no worker idles while any workload has runnable cells, so a
// straggler workload (fig3's 48 cells) soaks up every worker.
//
// The engine is the only parallel layer: cells are single-threaded and
// every sweep below them is a plain loop. `memsentry_cli run`,
// tools/bench_runner and `memsentry_cli serve` all run cells through it;
// serve's `run_cell` verb runs one cell on its own thread, outside the pool.
//
// Determinism contract: cells are pure functions of their WorkloadOptions
// (each builds its own machine/process/module from the deterministic seed),
// and assembly runs serially in cell-enumeration order once the last cell
// lands. Metric values and order, and printed tables, are therefore
// bit-identical for every worker count and steal schedule — the property
// tests/campaign_engine_test.cc pins.
//
// Durability: the engine itself is storage-agnostic. EngineOptions::restore
// lets a caller (tools/bench_runner's suite journal) mark cells as already
// done with a recorded payload, and on_cell_done streams each completed
// cell's payload back out, so a kill -9 mid-suite costs at most the cells
// that were in flight.
#ifndef MEMSENTRY_SRC_EVAL_CAMPAIGN_ENGINE_H_
#define MEMSENTRY_SRC_EVAL_CAMPAIGN_ENGINE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/json.h"
#include "src/base/thread_pool.h"
#include "src/eval/figures.h"
#include "src/eval/report_builder.h"

namespace memsentry::eval {

// Options handed to every cell run and to assembly.
struct WorkloadOptions {
  ExperimentOptions experiment;
  // The workload was invoked in --quick mode (shrinks sweeps, not budgets).
  bool quick = false;
  // Print the human-readable tables during assembly (`memsentry_cli run`;
  // bench_runner and serve leave it off).
  bool print = false;
  // Workload-specific flags ("seed", "campaigns", "policy", ...), parsed by
  // ParseWorkloadArgs from `memsentry_cli run` argv or supplied by the runner.
  std::map<std::string, std::string> extra;
};

// One independently schedulable unit of a workload. `run` must be a pure
// function of the options: no shared mutable state, single-threaded, and
// its JSON payload must round-trip losslessly (json numbers serialize via
// shortest-round-trip, so doubles survive bit-exactly).
struct WorkloadCell {
  std::string name;  // stable across runs; journal key and timing label
  std::function<json::Value(const WorkloadOptions&)> run;
};

struct Workload {
  std::string name;  // e.g. "fig3_address"
  std::function<std::vector<WorkloadCell>(const WorkloadOptions&)> cells;
  // Serial pass over the payloads in cell-enumeration order: prints the
  // human tables (when options.print) and emits the metric stream. Returns
  // the workload's exit status (nonzero = the workload failed).
  std::function<int(const WorkloadOptions&, const std::vector<json::Value>&, ReportBuilder&)>
      assemble;
};

class WorkloadRegistry {
 public:
  void Register(Workload workload);
  const Workload* Find(std::string_view name) const;
  const std::vector<Workload>& workloads() const { return workloads_; }

 private:
  std::vector<Workload> workloads_;
};

// Parses the workload-specific flags in argv[1..argc) (--quick, --seed=,
// --campaigns=, --policy=off, --skip-audit, --step-budget=, --allow-escapes,
// --force-crash=) into options.quick / options.extra. Returns the arguments
// it did not consume, in order: unknown flags and malformed values (a
// numeric flag whose value is not a whole number). Callers that accept no
// other flags reject whatever comes back.
std::vector<std::string> ParseWorkloadArgs(int argc, char** argv, WorkloadOptions& options);

enum class JobState { kQueued, kRunning, kDone, kFailed, kCancelled };
const char* JobStateName(JobState state);

// The finished form of one submitted workload.
struct JobReport {
  std::string workload;
  JobState state = JobState::kQueued;
  int status = 0;           // assemble()'s return; 1 when a cell threw
  double wall_seconds = 0;  // first cell start to last cell end; 0 if none ran
  std::vector<std::string> cell_names;
  std::vector<double> cell_seconds;  // per-cell run wall; 0 for restored cells
  std::vector<bool> cell_restored;
  ReportBuilder report;
};

// Appends the host trailer that follows a workload's metric stream in every
// report: `<workload>/wall_seconds` (info) and, when the job simulated any
// instructions, `<workload>/sim_instr_per_second` (host perf, warn-only).
// Both are taken over the job's cell span (JobReport::wall_seconds), so the
// throughput means the same at any worker count and in any front end.
void AddHostTrailer(const JobReport& job, json::Value& metrics);

struct EngineOptions {
  int jobs = 0;  // worker threads; <= 0 = hardware_concurrency
  // Enable the cross-cell run memo (src/eval/run_memo.h) for the engine's
  // lifetime. On construction the memo is reset, so hit statistics are
  // scoped to this engine.
  bool run_memo = true;
  // Durability hooks. `restore` is consulted once per cell at submit time; a
  // non-null payload marks the cell done without running it. `on_cell_done`
  // fires after each cell completes (from worker threads — the callee
  // serializes). Either may be empty.
  std::function<const json::Value*(const std::string& workload, const std::string& cell)>
      restore;
  std::function<void(const std::string& workload, const std::string& cell,
                     const json::Value& payload)>
      on_cell_done;
};

struct EngineStats {
  uint64_t cells_run = 0;
  uint64_t cells_restored = 0;
  uint64_t steals = 0;  // cells executed by a worker other than their owner
};

class CampaignEngine {
 public:
  CampaignEngine(const WorkloadRegistry* registry, EngineOptions options);
  // Drains all submitted work, then stops the workers.
  ~CampaignEngine();

  CampaignEngine(const CampaignEngine&) = delete;
  CampaignEngine& operator=(const CampaignEngine&) = delete;

  // Enqueues a workload's cells. Returns the job id, or 0 for an unknown
  // workload name. With options.print, assembly prints the workload's tables
  // to stdout from whichever worker finished the job's last cell.
  uint64_t Submit(const std::string& workload_name, const WorkloadOptions& options);

  // {"job", "workload", "state", "status", "cells_done", "cells_total"} —
  // null for an unknown id.
  json::Value JobStatus(uint64_t job_id) const;
  json::Value AllJobStatus() const;

  // Marks a job cancelled: queued cells are skipped (in-flight cells finish)
  // and assembly never runs. Returns false for unknown or finished jobs.
  bool Cancel(uint64_t job_id);

  // Blocks until the job reaches a terminal state. nullptr for unknown ids;
  // the report stays valid for the engine's lifetime.
  const JobReport* Wait(uint64_t job_id);
  void WaitAll();

  EngineStats stats() const;
  int jobs() const { return jobs_; }

 private:
  struct Job;
  struct Task {
    std::shared_ptr<Job> job;
    size_t cell = 0;
  };

  void WorkerLoop(size_t worker);
  bool PopTask(size_t worker, Task& task);  // mutex_ held
  void RunCell(const Task& task);
  void FinishJob(const std::shared_ptr<Job>& job);
  json::Value StatusLocked(const Job& job) const;  // mutex_ held

  const WorkloadRegistry* registry_;
  EngineOptions options_;
  int jobs_;
  std::unique_ptr<ThreadPool> pool_;

  mutable std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable job_done_;
  std::vector<std::deque<Task>> queues_;  // one per worker
  std::map<uint64_t, std::shared_ptr<Job>> jobs_by_id_;
  uint64_t next_job_id_ = 1;
  size_t next_queue_ = 0;  // round-robin cell distribution cursor
  bool stopping_ = false;
  EngineStats stats_;
};

}  // namespace memsentry::eval

#endif  // MEMSENTRY_SRC_EVAL_CAMPAIGN_ENGINE_H_
