#include "src/eval/campaign_engine.h"

#include <chrono>
#include <cstdio>
#include <cstring>

#include "src/eval/run_memo.h"

namespace memsentry::eval {

void WorkloadRegistry::Register(Workload workload) {
  workloads_.push_back(std::move(workload));
}

const Workload* WorkloadRegistry::Find(std::string_view name) const {
  for (const Workload& workload : workloads_) {
    if (workload.name == name) {
      return &workload;
    }
  }
  return nullptr;
}

int RunWorkloadStandalone(const Workload& workload, const WorkloadOptions& options,
                          ReportBuilder& report) {
  WorkloadOptions cell_options = options;
  // Cells are single-threaded by contract; the fan-out below owns the
  // workload's parallelism budget.
  cell_options.experiment.jobs = 1;
  const std::vector<WorkloadCell> cells = workload.cells(options);
  const int jobs = workload.serial_standalone ? 1 : options.experiment.jobs;
  std::vector<json::Value> payloads = ParallelMap(
      jobs, cells.size(), [&](size_t i) { return cells[i].run(cell_options); });
  return workload.assemble(options, payloads, report);
}

void ParseWorkloadArgs(int argc, char** argv, WorkloadOptions& options) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [arg](const char* flag) -> const char* {
      const size_t n = std::strlen(flag);
      return std::strncmp(arg, flag, n) == 0 ? arg + n : nullptr;
    };
    if (std::strcmp(arg, "--quick") == 0) {
      options.quick = true;
    } else if (const char* v = value("--seed=")) {
      options.extra["seed"] = v;
    } else if (const char* v = value("--campaigns=")) {
      options.extra["campaigns"] = v;
    } else if (std::strcmp(arg, "--policy=off") == 0) {
      options.extra["policy"] = "off";
    } else if (std::strcmp(arg, "--skip-audit") == 0) {
      options.extra["skip_audit"] = "1";
    } else if (const char* v = value("--step-budget=")) {
      options.extra["step_budget"] = v;
    } else if (std::strcmp(arg, "--allow-escapes") == 0) {
      options.extra["allow_escapes"] = "1";
    } else if (const char* v = value("--force-crash=")) {
      options.extra["force_crash"] = v;
    }
  }
}

const char* JobStateName(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "?";
}

struct CampaignEngine::Job {
  uint64_t id = 0;
  const Workload* workload = nullptr;
  WorkloadOptions options;
  std::vector<WorkloadCell> cells;
  std::vector<json::Value> payloads;
  JobReport report;
  size_t remaining = 0;   // cells not yet finished (guarded by engine mutex)
  size_t done_cells = 0;  // restored + run (guarded by engine mutex)
  bool cancelled = false;
  bool cell_failed = false;
  // Host wall span of the cells that ran (guarded by engine mutex): queueing
  // behind other jobs' cells before the first start is not this job's time.
  bool any_cell_ran = false;
  std::chrono::steady_clock::time_point first_cell_start;
  std::chrono::steady_clock::time_point last_cell_end;
};

CampaignEngine::CampaignEngine(const WorkloadRegistry* registry, EngineOptions options)
    : registry_(registry), options_(std::move(options)), jobs_(ResolveJobs(options_.jobs)) {
  queues_.resize(static_cast<size_t>(jobs_));
  if (options_.run_memo) {
    RunMemo::Global().Reset();
    RunMemo::Enable(true);
  }
  pool_ = std::make_unique<ThreadPool>(jobs_);
  for (int w = 0; w < jobs_; ++w) {
    pool_->Submit([this, w] { WorkerLoop(static_cast<size_t>(w)); });
  }
}

CampaignEngine::~CampaignEngine() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  pool_.reset();  // joins the workers; queued cells drain first
  if (options_.run_memo) {
    RunMemo::Enable(false);
  }
}

uint64_t CampaignEngine::Submit(const std::string& workload_name,
                                const WorkloadOptions& options) {
  const Workload* workload = registry_ != nullptr ? registry_->Find(workload_name) : nullptr;
  if (workload == nullptr) {
    return 0;
  }
  auto job = std::make_shared<Job>();
  job->workload = workload;
  job->options = options;
  job->options.experiment.jobs = 1;
  job->options.print = false;
  job->options.crash_contexts = false;
  job->cells = workload->cells(job->options);
  job->payloads.resize(job->cells.size());
  job->report.workload = workload->name;
  job->report.state = JobState::kQueued;
  job->report.cell_seconds.assign(job->cells.size(), 0.0);
  job->report.cell_restored.assign(job->cells.size(), false);
  for (const WorkloadCell& cell : job->cells) {
    job->report.cell_names.push_back(cell.name);
  }

  // Restored cells (a resumed suite journal) complete at submit time.
  std::vector<size_t> pending;
  for (size_t i = 0; i < job->cells.size(); ++i) {
    const json::Value* restored =
        options_.restore ? options_.restore(workload->name, job->cells[i].name) : nullptr;
    if (restored != nullptr) {
      job->payloads[i] = *restored;
      job->report.cell_restored[i] = true;
    } else {
      pending.push_back(i);
    }
  }
  job->remaining = pending.size();
  job->done_cells = job->cells.size() - pending.size();

  bool finished = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job->id = next_job_id_++;
    job->report.state = JobState::kRunning;
    jobs_by_id_[job->id] = job;
    stats_.cells_restored += job->done_cells;
    if (pending.empty()) {
      finished = true;
    } else {
      for (const size_t cell : pending) {
        queues_[next_queue_ % queues_.size()].push_back(Task{job, cell});
        ++next_queue_;
      }
    }
  }
  if (finished) {
    FinishJob(job);
  } else {
    work_ready_.notify_all();
  }
  return job->id;
}

bool CampaignEngine::PopTask(size_t worker, Task& task) {
  auto& own = queues_[worker];
  if (!own.empty()) {
    task = std::move(own.front());
    own.pop_front();
    return true;
  }
  // Steal from the back of a sibling's deque — the classic split: owners
  // drain fronts, thieves take the coldest queued cell.
  for (size_t i = 1; i < queues_.size(); ++i) {
    auto& victim = queues_[(worker + i) % queues_.size()];
    if (!victim.empty()) {
      task = std::move(victim.back());
      victim.pop_back();
      ++stats_.steals;
      return true;
    }
  }
  return false;
}

void CampaignEngine::WorkerLoop(size_t worker) {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [&] {
        if (stopping_) {
          return true;
        }
        for (const auto& queue : queues_) {
          if (!queue.empty()) {
            return true;
          }
        }
        return false;
      });
      if (!PopTask(worker, task)) {
        if (stopping_) {
          return;
        }
        continue;
      }
    }
    RunCell(task);
  }
}

void CampaignEngine::RunCell(const Task& task) {
  Job& job = *task.job;
  bool cancelled;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    cancelled = job.cancelled;
  }
  json::Value payload;
  double seconds = 0;
  bool failed = false;
  const auto start = std::chrono::steady_clock::now();
  auto end = start;
  if (!cancelled) {
    try {
      payload = job.cells[task.cell].run(job.options);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "campaign_engine: %s/%s threw: %s\n", job.workload->name.c_str(),
                   job.cells[task.cell].name.c_str(), e.what());
      failed = true;
    } catch (...) {
      std::fprintf(stderr, "campaign_engine: %s/%s threw\n", job.workload->name.c_str(),
                   job.cells[task.cell].name.c_str());
      failed = true;
    }
    end = std::chrono::steady_clock::now();
    seconds = std::chrono::duration<double>(end - start).count();
    if (!failed && options_.on_cell_done) {
      options_.on_cell_done(job.workload->name, job.cells[task.cell].name, payload);
    }
  }
  bool finished = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job.payloads[task.cell] = std::move(payload);
    job.report.cell_seconds[task.cell] = seconds;
    job.cell_failed = job.cell_failed || failed;
    ++job.done_cells;
    if (!cancelled) {
      ++stats_.cells_run;
      if (!job.any_cell_ran || start < job.first_cell_start) {
        job.first_cell_start = start;
      }
      if (!job.any_cell_ran || end > job.last_cell_end) {
        job.last_cell_end = end;
      }
      job.any_cell_ran = true;
    }
    finished = --job.remaining == 0;
  }
  if (finished) {
    FinishJob(task.job);
  }
}

void CampaignEngine::FinishJob(const std::shared_ptr<Job>& job) {
  // Assembly runs on whichever thread completed the job's last cell —
  // serial per job, in cell-enumeration order, so the metric stream is
  // schedule-independent.
  bool cancelled;
  bool failed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    cancelled = job->cancelled;
    failed = job->cell_failed;
  }
  int status = 1;
  if (!cancelled && !failed) {
    status = job->workload->assemble(job->options, job->payloads, job->report.report);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job->report.status = failed ? 1 : (cancelled ? 0 : status);
    job->report.state = cancelled  ? JobState::kCancelled
                        : failed   ? JobState::kFailed
                                   : JobState::kDone;
    job->report.wall_seconds =
        job->any_cell_ran
            ? std::chrono::duration<double>(job->last_cell_end - job->first_cell_start).count()
            : 0.0;
  }
  job_done_.notify_all();
}

json::Value CampaignEngine::StatusLocked(const Job& job) const {
  json::Value status = json::Value::Object();
  status.Set("job", job.id);
  status.Set("workload", job.report.workload);
  status.Set("state", JobStateName(job.report.state));
  status.Set("status", job.report.status);
  status.Set("cells_done", static_cast<uint64_t>(job.done_cells));
  status.Set("cells_total", static_cast<uint64_t>(job.cells.size()));
  return status;
}

json::Value CampaignEngine::JobStatus(uint64_t job_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_by_id_.find(job_id);
  if (it == jobs_by_id_.end()) {
    return json::Value();
  }
  return StatusLocked(*it->second);
}

json::Value CampaignEngine::AllJobStatus() const {
  std::lock_guard<std::mutex> lock(mutex_);
  json::Value all = json::Value::Array();
  for (const auto& [id, job] : jobs_by_id_) {
    all.Append(StatusLocked(*job));
  }
  return all;
}

bool CampaignEngine::Cancel(uint64_t job_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_by_id_.find(job_id);
  if (it == jobs_by_id_.end()) {
    return false;
  }
  Job& job = *it->second;
  if (job.report.state != JobState::kQueued && job.report.state != JobState::kRunning) {
    return false;
  }
  job.cancelled = true;
  return true;
}

const JobReport* CampaignEngine::Wait(uint64_t job_id) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = jobs_by_id_.find(job_id);
  if (it == jobs_by_id_.end()) {
    return nullptr;
  }
  const std::shared_ptr<Job> job = it->second;
  job_done_.wait(lock, [&] {
    return job->report.state == JobState::kDone || job->report.state == JobState::kFailed ||
           job->report.state == JobState::kCancelled;
  });
  return &job->report;
}

void CampaignEngine::WaitAll() {
  std::unique_lock<std::mutex> lock(mutex_);
  job_done_.wait(lock, [&] {
    for (const auto& [id, job] : jobs_by_id_) {
      if (job->report.state == JobState::kQueued || job->report.state == JobState::kRunning) {
        return false;
      }
    }
    return true;
  });
}

EngineStats CampaignEngine::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace memsentry::eval
