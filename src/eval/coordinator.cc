#include "src/eval/coordinator.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>
#include <utility>

namespace memsentry::eval {
namespace {

constexpr double kConnectBackoffStart = 0.05;  // doubles per retry, no jitter
constexpr double kConnectBackoffCap = 1.6;
constexpr double kPollSliceMax = 0.2;   // upper bound on one poll() wait
constexpr double kPollSliceMin = 0.005;  // lower bound: no busy spin

double MonotonicSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Client-side framing twin of serve.cc's SendLine: MSG_NOSIGNAL so a worker
// dying mid-exchange surfaces as EPIPE, not SIGPIPE.
bool SendFrame(int fd, const std::string& line) {
  std::string framed = line;
  framed.push_back('\n');
  size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n =
        ::send(fd, framed.data() + sent, framed.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

struct ShardCoordinator::JobRec {
  uint64_t id = 0;
  const Workload* workload = nullptr;
  WorkloadOptions options;
  std::vector<WorkloadCell> cells;
  std::vector<json::Value> payloads;
  bool cell_failed = false;
  size_t remaining = 0;  // cells not yet completed
  // Host wall span of the completed cells, from the earliest completed
  // cell's start to the latest one's end; unset (-1) until one completes.
  double first_cell_start = -1;
  double last_cell_end = -1;
};

struct ShardCoordinator::WorkerSlot {
  enum class State { kDown, kConnectWait, kPingWait, kIdle, kBusy, kQuarantined };

  int index = 0;
  State state = State::kDown;
  pid_t pid = -1;
  int fd = -1;
  std::string socket_path;
  std::string log_path;
  std::string rxbuf;
  int spawns = 0;
  int connect_tries = 0;
  double backoff = kConnectBackoffStart;
  double next_connect_at = 0;
  double deadline = 0;  // ping deadline (kPingWait) or lease deadline (kBusy)
  int consecutive_failures = 0;
  CellRef inflight;
  double dispatch_time = 0;
};

ShardCoordinator::ShardCoordinator(const WorkloadRegistry* registry, CoordinatorOptions options)
    : registry_(registry), options_(std::move(options)) {
  options_.workers = std::max(options_.workers, 1);
  options_.quarantine_after = std::max(options_.quarantine_after, 1);
  options_.max_attempts = std::max(options_.max_attempts, 1);
  options_.connect_attempts = std::max(options_.connect_attempts, 1);
}

ShardCoordinator::~ShardCoordinator() {
  for (auto& worker : workers_) {
    ShutdownWorker(*worker, /*graceful=*/false);
  }
}

double ShardCoordinator::Now() const { return MonotonicSeconds(); }

uint64_t ShardCoordinator::Submit(const std::string& workload_name,
                                  const WorkloadOptions& options) {
  if (ran_ || registry_ == nullptr) {
    return 0;
  }
  const Workload* workload = registry_->Find(workload_name);
  if (workload == nullptr) {
    return 0;
  }
  auto job = std::make_unique<JobRec>();
  auto report = std::make_unique<JobReport>();
  job->id = jobs_.size() + 1;
  job->workload = workload;
  job->options = options;
  job->cells = workload->cells(job->options);
  job->payloads.resize(job->cells.size());
  report->workload = workload->name;
  report->state = JobState::kRunning;
  report->cell_seconds.assign(job->cells.size(), 0.0);
  report->cell_restored.assign(job->cells.size(), false);
  for (const WorkloadCell& cell : job->cells) {
    report->cell_names.push_back(cell.name);
  }

  const size_t job_index = jobs_.size();
  for (size_t i = 0; i < job->cells.size(); ++i) {
    const json::Value* restored =
        options_.restore ? options_.restore(workload->name, job->cells[i].name) : nullptr;
    if (restored != nullptr) {
      job->payloads[i] = *restored;
      report->cell_restored[i] = true;
      ++stats_.cells_restored;
    } else {
      queue_.push_back(CellRef{job_index, i, 0});
      ++job->remaining;
    }
  }
  stats_.cells_total += job->cells.size();
  jobs_.push_back(std::move(job));
  reports_.push_back(std::move(report));
  return jobs_.back()->id;
}

void ShardCoordinator::SpawnWorker(WorkerSlot& worker) {
  const double now = Now();
  ++worker.spawns;
  if (worker.spawns > 1) {
    ++stats_.workers_respawned;
  }
  // A fresh socket path per spawn sidesteps every rebind race with the
  // previous incarnation's inode.
  worker.socket_path = options_.socket_dir + "/worker-" + std::to_string(worker.index) + "." +
                       std::to_string(worker.spawns) + ".sock";
  worker.log_path = options_.socket_dir + "/worker-" + std::to_string(worker.index) + ".log";
  worker.rxbuf.clear();
  worker.connect_tries = 0;
  worker.backoff = kConnectBackoffStart;
  worker.next_connect_at = now + kConnectBackoffStart;

  const pid_t pid = ::fork();
  if (pid < 0) {
    // Treat a fork failure like a connect failure: the retry/quarantine
    // ladder decides whether this worker survives.
    worker.state = WorkerSlot::State::kDown;
    WorkerFailed(worker, "fork failed", /*respawn=*/true);
    return;
  }
  if (pid == 0) {
    const int log_fd =
        ::open(worker.log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0600);
    if (log_fd >= 0) {
      ::dup2(log_fd, STDOUT_FILENO);
      ::dup2(log_fd, STDERR_FILENO);
      ::close(log_fd);
    }
    const std::string chaos = options_.chaos.Format();
    std::vector<const char*> argv = {options_.worker_cli.c_str(), "serve",
                                     "--socket",                  worker.socket_path.c_str(),
                                     "--jobs",                    "1",
                                     "--quiet"};
    if (!chaos.empty()) {
      argv.push_back("--chaos");
      argv.push_back(chaos.c_str());
    }
    argv.push_back(nullptr);
    ::execv(options_.worker_cli.c_str(), const_cast<char* const*>(argv.data()));
    std::fprintf(stderr, "coordinator worker: execv %s: %s\n", options_.worker_cli.c_str(),
                 std::strerror(errno));
    ::_exit(127);
  }
  worker.pid = pid;
  worker.state = WorkerSlot::State::kConnectWait;
  if (!options_.quiet) {
    std::fprintf(stderr, "coordinator: worker %d spawn %d (pid %d) on %s\n", worker.index,
                 worker.spawns, static_cast<int>(pid), worker.socket_path.c_str());
  }
}

void ShardCoordinator::ShutdownWorker(WorkerSlot& worker, bool graceful) {
  if (worker.fd >= 0) {
    if (graceful) {
      json::Value request = json::Value::Object();
      request.Set("cmd", "shutdown");
      (void)SendFrame(worker.fd, request.Dump());
    }
    ::close(worker.fd);
    worker.fd = -1;
  }
  if (worker.pid > 0) {
    ::kill(worker.pid, SIGKILL);
    int status = 0;
    while (::waitpid(worker.pid, &status, 0) < 0 && errno == EINTR) {
    }
    worker.pid = -1;
  }
  if (!worker.socket_path.empty()) {
    ::unlink(worker.socket_path.c_str());
  }
}

bool ShardCoordinator::TryConnect(WorkerSlot& worker) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (worker.socket_path.size() >= sizeof(addr.sun_path)) {
    return false;
  }
  std::strncpy(addr.sun_path, worker.socket_path.c_str(), sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return false;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  json::Value ping = json::Value::Object();
  ping.Set("cmd", "ping");
  if (!SendFrame(fd, ping.Dump())) {
    ::close(fd);
    return false;
  }
  worker.fd = fd;
  worker.rxbuf.clear();
  worker.state = WorkerSlot::State::kPingWait;
  worker.deadline = Now() + options_.lease_seconds;
  return true;
}

void ShardCoordinator::DispatchCell(WorkerSlot& worker, CellRef cell) {
  JobRec& job = *jobs_[cell.job];
  ++cell.attempts;
  ++stats_.cells_dispatched;
  worker.inflight = cell;
  worker.state = WorkerSlot::State::kBusy;
  worker.dispatch_time = Now();
  worker.deadline = worker.dispatch_time + options_.lease_seconds;

  json::Value request = json::Value::Object();
  request.Set("cmd", "run_cell");
  request.Set("workload", job.workload->name);
  request.Set("cell", job.cells[cell.cell].name);
  request.Set("quick", job.options.quick);
  request.Set("instructions", static_cast<double>(job.options.experiment.target_instructions));
  request.Set("seed", static_cast<double>(job.options.experiment.seed));
  json::Value extra = json::Value::Object();
  for (const auto& [key, value] : job.options.extra) {
    extra.Set(key, value);
  }
  request.Set("extra", std::move(extra));
  request.Set("attempt", static_cast<uint64_t>(cell.attempts));
  if (!SendFrame(worker.fd, request.Dump())) {
    WorkerFailed(worker, "send failed", /*respawn=*/true);
  }
}

// One failure rung: requeue any in-flight cell, tear down the connection
// (and the process, when `respawn`), bump the consecutive-failure count,
// and either quarantine the worker or put it back on the spawn/connect
// ladder.
void ShardCoordinator::WorkerFailed(WorkerSlot& worker, const char* why, bool respawn) {
  if (!options_.quiet) {
    std::fprintf(stderr, "coordinator: worker %d failed (%s)\n", worker.index, why);
  }
  if (worker.state == WorkerSlot::State::kBusy) {
    RequeueOrInline(worker.inflight);
  }
  if (worker.fd >= 0) {
    ::close(worker.fd);
    worker.fd = -1;
  }
  worker.rxbuf.clear();
  ++worker.consecutive_failures;
  if (worker.consecutive_failures >= options_.quarantine_after) {
    ShutdownWorker(worker, /*graceful=*/false);
    worker.state = WorkerSlot::State::kQuarantined;
    ++stats_.workers_quarantined;
    if (!options_.quiet) {
      std::fprintf(stderr, "coordinator: worker %d quarantined after %d failures\n",
                   worker.index, worker.consecutive_failures);
    }
    return;
  }
  if (respawn) {
    ShutdownWorker(worker, /*graceful=*/false);
    worker.state = WorkerSlot::State::kDown;  // respawned on the next tick
  } else {
    // The process is healthy (e.g. it deliberately dropped the connection
    // behind a garbled frame); reconnect with a fresh backoff ladder.
    worker.state = WorkerSlot::State::kConnectWait;
    worker.connect_tries = 0;
    worker.backoff = kConnectBackoffStart;
    worker.next_connect_at = Now();
  }
}

void ShardCoordinator::RequeueOrInline(CellRef cell) {
  if (cell.attempts >= options_.max_attempts) {
    // Attempt cap: a cell the fleet keeps failing runs in-process — the
    // livelock guard for cells genuinely slower than the lease.
    RunCellInline(cell);
    return;
  }
  ++stats_.cells_redispatched;
  queue_.push_back(cell);
}

void ShardCoordinator::RunCellInline(const CellRef& cell) {
  JobRec& job = *jobs_[cell.job];
  ++stats_.cells_inlined;
  const double start = Now();
  json::Value payload;
  bool failed = false;
  try {
    payload = job.cells[cell.cell].run(job.options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "coordinator: %s/%s threw inline: %s\n", job.workload->name.c_str(),
                 job.cells[cell.cell].name.c_str(), e.what());
    failed = true;
  } catch (...) {
    std::fprintf(stderr, "coordinator: %s/%s threw inline\n", job.workload->name.c_str(),
                 job.cells[cell.cell].name.c_str());
    failed = true;
  }
  if (failed) {
    job.cell_failed = true;
    --job.remaining;
    return;
  }
  CompleteCell(cell, std::move(payload), Now() - start);
}

void ShardCoordinator::CompleteCell(const CellRef& cell, json::Value payload, double seconds) {
  JobRec& job = *jobs_[cell.job];
  JobReport& report = *reports_[cell.job];
  job.payloads[cell.cell] = std::move(payload);
  report.cell_seconds[cell.cell] = seconds;
  const double end = Now();
  if (job.first_cell_start < 0 || end - seconds < job.first_cell_start) {
    job.first_cell_start = end - seconds;
  }
  job.last_cell_end = std::max(job.last_cell_end, end);
  --job.remaining;
  if (options_.on_cell_done) {
    options_.on_cell_done(job.workload->name, job.cells[cell.cell].name,
                          job.payloads[cell.cell]);
  }
}

void ShardCoordinator::HandleFrame(WorkerSlot& worker, const std::string& frame) {
  StatusOr<json::Value> reply = json::Parse(frame);
  if (worker.state == WorkerSlot::State::kPingWait) {
    if (!reply.ok() || !reply->BoolOr("ok", false)) {
      WorkerFailed(worker, "bad ping reply", /*respawn=*/true);
      return;
    }
    worker.state = WorkerSlot::State::kIdle;
    return;
  }
  if (worker.state != WorkerSlot::State::kBusy) {
    return;  // unsolicited frame; ignore
  }
  if (!reply.ok()) {
    ++stats_.garbled_replies;
    WorkerFailed(worker, "garbled reply (parse)", /*respawn=*/false);
    return;
  }
  const CellRef cell = worker.inflight;
  JobRec& job = *jobs_[cell.job];
  if (!reply->BoolOr("ok", false)) {
    // A typed error from a healthy worker. Cells are deterministic, so a
    // cell_failed (or unknown_*) verdict will repeat anywhere — mirror the
    // engine: mark the job failed, don't burn retries.
    std::fprintf(stderr, "coordinator: %s/%s failed remotely: %s (%s)\n",
                 job.workload->name.c_str(), job.cells[cell.cell].name.c_str(),
                 reply->StringOr("error", "?").c_str(), reply->StringOr("code", "?").c_str());
    job.cell_failed = true;
    --job.remaining;
    worker.state = WorkerSlot::State::kIdle;
    worker.consecutive_failures = 0;
    return;
  }
  const json::Value* payload = reply->Find("payload");
  const std::string crc_hex = reply->StringOr("crc", "");
  const uint64_t crc = std::strtoull(crc_hex.c_str(), nullptr, 16);
  if (payload == nullptr || crc_hex.empty() ||
      ServeFrameDigest(payload->Dump(0)) != crc) {
    // Parsed, but the payload doesn't match its digest: a corrupted frame
    // that happened to stay valid JSON. Never let it into the report.
    ++stats_.garbled_replies;
    WorkerFailed(worker, "garbled reply (digest)", /*respawn=*/false);
    return;
  }
  CompleteCell(cell, *payload, Now() - worker.dispatch_time);
  worker.state = WorkerSlot::State::kIdle;
  worker.consecutive_failures = 0;
}

void ShardCoordinator::PollWorkers(double timeout_seconds) {
  std::vector<pollfd> fds;
  std::vector<WorkerSlot*> owners;
  for (auto& worker : workers_) {
    if (worker->fd >= 0) {
      fds.push_back(pollfd{worker->fd, POLLIN, 0});
      owners.push_back(worker.get());
    }
  }
  const int timeout_ms = static_cast<int>(timeout_seconds * 1000.0);
  if (fds.empty()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(timeout_ms));
    return;
  }
  const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
  if (ready <= 0) {
    return;  // timeout or EINTR; deadlines are handled by the caller
  }
  for (size_t i = 0; i < fds.size(); ++i) {
    WorkerSlot& worker = *owners[i];
    if (fds[i].revents == 0 || worker.fd != fds[i].fd) {
      continue;  // no event, or the slot was torn down by an earlier failure
    }
    char chunk[65536];
    const ssize_t n = ::recv(worker.fd, chunk, sizeof(chunk), 0);
    if (n < 0 && (errno == EINTR || errno == EAGAIN)) {
      continue;
    }
    if (n <= 0) {
      // EOF or a hard socket error: the worker died (chaos kill, crash) or
      // dropped us; the respawn ladder takes it from here.
      WorkerFailed(worker, "connection lost", /*respawn=*/true);
      continue;
    }
    worker.rxbuf.append(chunk, static_cast<size_t>(n));
    if (worker.rxbuf.size() > kServeMaxLineBytes) {
      WorkerFailed(worker, "oversized reply", /*respawn=*/true);
      continue;
    }
    size_t newline;
    while (worker.fd >= 0 && (newline = worker.rxbuf.find('\n')) != std::string::npos) {
      const std::string frame = worker.rxbuf.substr(0, newline);
      worker.rxbuf.erase(0, newline + 1);
      HandleFrame(worker, frame);
    }
  }
}

bool ShardCoordinator::AllQuarantined() const {
  for (const auto& worker : workers_) {
    if (worker->state != WorkerSlot::State::kQuarantined) {
      return false;
    }
  }
  return !workers_.empty();
}

void ShardCoordinator::RunDegraded() {
  stats_.degraded = true;
  if (!options_.quiet) {
    std::fprintf(stderr,
                 "coordinator: every worker quarantined; degrading to in-process execution "
                 "(%zu cells left)\n",
                 queue_.size());
  }
  std::vector<CellRef> remaining;
  remaining.swap(queue_);
  for (const CellRef& cell : remaining) {
    RunCellInline(cell);
  }
}

const JobReport* ShardCoordinator::Find(const std::string& workload_name) const {
  for (const auto& report : reports_) {
    if (report->workload == workload_name) {
      return report.get();
    }
  }
  return nullptr;
}

int ShardCoordinator::Run() {
  if (ran_) {
    return 1;
  }
  ran_ = true;
  std::error_code ec;
  std::filesystem::create_directories(options_.socket_dir, ec);

  const auto cells_outstanding = [this] {
    if (!queue_.empty()) {
      return true;
    }
    for (const auto& worker : workers_) {
      if (worker->state == WorkerSlot::State::kBusy) {
        return true;
      }
    }
    return false;
  };

  if (!queue_.empty()) {
    for (int i = 0; i < options_.workers; ++i) {
      auto worker = std::make_unique<WorkerSlot>();
      worker->index = i;
      workers_.push_back(std::move(worker));
    }
  }

  while (cells_outstanding()) {
    if (AllQuarantined()) {
      RunDegraded();
      break;
    }
    const double now = Now();
    double next_deadline = now + kPollSliceMax;
    for (auto& worker : workers_) {
      switch (worker->state) {
        case WorkerSlot::State::kDown:
          SpawnWorker(*worker);
          break;
        case WorkerSlot::State::kConnectWait:
          if (now >= worker->next_connect_at) {
            if (!TryConnect(*worker)) {
              ++stats_.connect_retries;
              ++worker->connect_tries;
              if (worker->connect_tries >= options_.connect_attempts) {
                WorkerFailed(*worker, "connect budget exhausted", /*respawn=*/true);
              } else {
                worker->backoff = std::min(worker->backoff * 2.0, kConnectBackoffCap);
                worker->next_connect_at = now + worker->backoff;
              }
            }
          }
          break;
        default:
          break;
      }
      if (worker->state == WorkerSlot::State::kIdle && !queue_.empty()) {
        const CellRef cell = queue_.front();
        queue_.erase(queue_.begin());
        DispatchCell(*worker, cell);
      }
      if ((worker->state == WorkerSlot::State::kBusy ||
           worker->state == WorkerSlot::State::kPingWait) &&
          now >= worker->deadline) {
        if (worker->state == WorkerSlot::State::kBusy) {
          ++stats_.lease_expiries;
          WorkerFailed(*worker, "lease expired", /*respawn=*/true);
        } else {
          WorkerFailed(*worker, "ping deadline expired", /*respawn=*/true);
        }
      }
      if (worker->state == WorkerSlot::State::kBusy ||
          worker->state == WorkerSlot::State::kPingWait) {
        next_deadline = std::min(next_deadline, worker->deadline);
      } else if (worker->state == WorkerSlot::State::kConnectWait) {
        next_deadline = std::min(next_deadline, worker->next_connect_at);
      }
    }
    if (!cells_outstanding()) {
      break;
    }
    const double timeout =
        std::clamp(next_deadline - Now(), kPollSliceMin, kPollSliceMax);
    PollWorkers(timeout);
  }

  for (auto& worker : workers_) {
    ShutdownWorker(*worker, /*graceful=*/true);
  }

  // Assembly: serial, in submit order, each job's payloads in
  // cell-enumeration order — the same path CampaignEngine::FinishJob takes,
  // so the metric stream is transport-independent.
  int exit_status = 0;
  for (size_t j = 0; j < jobs_.size(); ++j) {
    JobRec& job = *jobs_[j];
    JobReport& report = *reports_[j];
    int status = 1;
    if (!job.cell_failed) {
      status = job.workload->assemble(job.options, job.payloads, report.report);
    }
    report.status = job.cell_failed ? 1 : status;
    report.state = job.cell_failed ? JobState::kFailed : JobState::kDone;
    report.wall_seconds =
        job.first_cell_start < 0 ? 0.0 : job.last_cell_end - job.first_cell_start;
    exit_status = std::max(exit_status, report.status);
  }
  return exit_status;
}

}  // namespace memsentry::eval
