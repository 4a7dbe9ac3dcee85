#include "src/eval/serve.h"

#include <csignal>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace memsentry::eval {
namespace {

// One request/response line per connection round; both halves share the
// framing so the protocol stays symmetric. MSG_NOSIGNAL keeps a mid-write
// peer disconnect an EPIPE errno instead of a process-killing SIGPIPE —
// load-bearing under the chaos harness, where the coordinator abandons
// workers mid-exchange as a matter of course.
Status SendLine(int fd, const std::string& line) {
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
      return InternalError(std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return OkStatus();
}

// Reads one newline-terminated frame. Error taxonomy (the serve loop keys
// its reply-vs-drop choice off the code):
//   kNotFound           clean EOF before any bytes — peer is done
//   kInvalidArgument    EOF mid-line — truncated frame, peer died mid-write
//   kResourceExhausted  line exceeded kServeMaxLineBytes
//   kInternal           recv() error
StatusOr<std::string> RecvLine(int fd) {
  std::string line;
  char c;
  for (;;) {
    const ssize_t n = ::recv(fd, &c, 1, 0);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return InternalError(std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) {
      if (line.empty()) {
        return NotFound("connection closed");
      }
      return InvalidArgument("truncated frame: peer closed mid-line after " +
                             std::to_string(line.size()) + " bytes");
    }
    if (c == '\n') {
      return line;
    }
    if (line.size() >= kServeMaxLineBytes) {
      return ResourceExhausted("line exceeds " + std::to_string(kServeMaxLineBytes) + " bytes");
    }
    line.push_back(c);
  }
}

json::Value ErrorResponse(const std::string& code, const std::string& message) {
  json::Value response = json::Value::Object();
  response.Set("ok", false);
  response.Set("code", code);
  response.Set("error", message);
  return response;
}

json::Value JobReportJson(const JobReport& report) {
  json::Value out = json::Value::Object();
  out.Set("workload", report.workload);
  out.Set("state", JobStateName(report.state));
  out.Set("status", report.status);
  out.Set("wall_seconds", report.wall_seconds);
  json::Value cells = json::Value::Array();
  for (size_t i = 0; i < report.cell_names.size(); ++i) {
    json::Value cell = json::Value::Object();
    cell.Set("name", report.cell_names[i]);
    cell.Set("seconds", report.cell_seconds[i]);
    cell.Set("restored", static_cast<bool>(report.cell_restored[i]));
    cells.Append(std::move(cell));
  }
  out.Set("cells", std::move(cells));
  return out;
}

// Builds WorkloadOptions from the shared request fields (submit and
// run_cell use the same recipe keys the run memo does).
WorkloadOptions RequestWorkloadOptions(const json::Value& request) {
  WorkloadOptions wo;
  wo.quick = request.BoolOr("quick", false);
  wo.experiment.target_instructions =
      static_cast<uint64_t>(request.NumberOr("instructions", 400'000));
  wo.experiment.seed = static_cast<uint64_t>(
      request.NumberOr("seed", static_cast<double>(wo.experiment.seed)));
  if (const json::Value* extra = request.Find("extra"); extra != nullptr && extra->is_object()) {
    for (const auto& [key, value] : extra->members()) {
      wo.extra[key] = value.is_string() ? value.string_value() : value.Dump();
    }
  }
  return wo;
}

std::string Hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return std::string(buf);
}

// Dispatches one parsed request. Sets *shutdown when the client asked the
// loop to exit (acknowledged before the loop tears down).
json::Value Dispatch(const ServeOptions& options, CampaignEngine& engine,
                     const json::Value& request, bool* shutdown) {
  const std::string cmd = request.StringOr("cmd", "");
  json::Value response = json::Value::Object();
  if (cmd == "ping") {
    response.Set("ok", true);
    return response;
  }
  if (cmd == "shutdown") {
    *shutdown = true;
    response.Set("ok", true);
    return response;
  }
  if (cmd == "workloads") {
    response.Set("ok", true);
    json::Value names = json::Value::Array();
    for (const Workload& workload : options.registry->workloads()) {
      names.Append(workload.name);
    }
    response.Set("workloads", std::move(names));
    return response;
  }
  if (cmd == "submit") {
    const std::string name = request.StringOr("workload", "");
    const uint64_t id = engine.Submit(name, RequestWorkloadOptions(request));
    if (id == 0) {
      return ErrorResponse("unknown_workload", "unknown workload: " + name);
    }
    response.Set("ok", true);
    response.Set("job", id);
    return response;
  }
  if (cmd == "run_cell") {
    const std::string name = request.StringOr("workload", "");
    const std::string cell_name = request.StringOr("cell", "");
    if (name.empty() || cell_name.empty()) {
      return ErrorResponse("missing_field", "run_cell needs workload and cell");
    }
    const Workload* workload = options.registry->Find(name);
    if (workload == nullptr) {
      return ErrorResponse("unknown_workload", "unknown workload: " + name);
    }
    const WorkloadOptions wo = RequestWorkloadOptions(request);
    const std::vector<WorkloadCell> cells = workload->cells(wo);
    const WorkloadCell* cell = nullptr;
    for (const WorkloadCell& candidate : cells) {
      if (candidate.name == cell_name) {
        cell = &candidate;
        break;
      }
    }
    if (cell == nullptr) {
      return ErrorResponse("unknown_cell", "unknown cell: " + name + "/" + cell_name);
    }
    json::Value payload;
    try {
      payload = cell->run(wo);
    } catch (const std::exception& e) {
      return ErrorResponse("cell_failed", name + "/" + cell_name + ": " + e.what());
    } catch (...) {
      return ErrorResponse("cell_failed", name + "/" + cell_name + ": unknown exception");
    }
    response.Set("ok", true);
    response.Set("crc", Hex64(ServeFrameDigest(payload.Dump(0))));
    response.Set("payload", std::move(payload));
    return response;
  }
  if (cmd == "status") {
    if (const json::Value* job = request.Find("job")) {
      json::Value status = engine.JobStatus(static_cast<uint64_t>(job->number_value()));
      if (status.is_null()) {
        return ErrorResponse("unknown_job", "unknown job");
      }
      response.Set("ok", true);
      response.Set("job", std::move(status));
    } else {
      response.Set("ok", true);
      response.Set("jobs", engine.AllJobStatus());
    }
    return response;
  }
  if (cmd == "cancel") {
    const json::Value* job = request.Find("job");
    if (job == nullptr) {
      return ErrorResponse("missing_field", "cancel needs a job id");
    }
    response.Set("ok", true);
    response.Set("cancelled", engine.Cancel(static_cast<uint64_t>(job->number_value())));
    return response;
  }
  if (cmd == "wait") {
    const json::Value* job = request.Find("job");
    if (job == nullptr) {
      return ErrorResponse("missing_field", "wait needs a job id");
    }
    const JobReport* report = engine.Wait(static_cast<uint64_t>(job->number_value()));
    if (report == nullptr) {
      return ErrorResponse("unknown_job", "unknown job");
    }
    response.Set("ok", true);
    response.Set("job", JobReportJson(*report));
    response.Set("metrics", report->report.metrics());
    return response;
  }
  return ErrorResponse("unknown_cmd", "unknown cmd: " + cmd);
}

// Deterministically corrupts a serialized reply in place (garble chaos).
// The flips are keyed off the frame's own digest, avoid producing '\n'
// (which would split the frame rather than corrupt it), and always change
// at least the first byte, so a JSON parse or crc check on the other side
// is guaranteed to notice.
void GarbleFrame(std::string& frame, uint64_t key) {
  if (frame.empty()) {
    return;
  }
  for (int i = 0; i < 3; ++i) {
    const size_t pos = (key >> (i * 16)) % frame.size();
    char b = static_cast<char>(frame[pos] ^ 0x5A);
    if (b == '\n') {
      b = static_cast<char>(b ^ 0x01);
    }
    frame[pos] = b;
  }
  if (frame[0] == '{') {
    frame[0] = '!';
  }
}

}  // namespace

uint64_t ServeFrameDigest(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a 64
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string ServeChaos::Format() const {
  if (!any()) {
    return "";
  }
  std::string out;
  const auto add = [&out](const char* mode) {
    if (!out.empty()) {
      out.push_back(',');
    }
    out += mode;
  };
  if (kill) add("kill");
  if (hang) add("hang");
  if (garble) add("garble");
  out += ":seed=" + std::to_string(seed);
  out += ":one_in=" + std::to_string(one_in);
  out += ":hang_ms=" + std::to_string(hang_ms);
  return out;
}

StatusOr<ServeChaos> ParseChaosSpec(const std::string& spec) {
  ServeChaos chaos;
  if (spec.empty()) {
    return InvalidArgument("empty chaos spec");
  }
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= spec.size()) {
    const size_t colon = spec.find(':', start);
    parts.push_back(spec.substr(start, colon == std::string::npos ? colon : colon - start));
    if (colon == std::string::npos) {
      break;
    }
    start = colon + 1;
  }
  // First segment: comma-separated mode list.
  const std::string& modes = parts[0];
  start = 0;
  while (start <= modes.size()) {
    const size_t comma = modes.find(',', start);
    const std::string mode =
        modes.substr(start, comma == std::string::npos ? comma : comma - start);
    if (mode == "kill") {
      chaos.kill = true;
    } else if (mode == "hang") {
      chaos.hang = true;
    } else if (mode == "garble") {
      chaos.garble = true;
    } else {
      return InvalidArgument("unknown chaos mode: " + mode);
    }
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  for (size_t i = 1; i < parts.size(); ++i) {
    const size_t eq = parts[i].find('=');
    if (eq == std::string::npos) {
      return InvalidArgument("chaos option needs key=value: " + parts[i]);
    }
    const std::string key = parts[i].substr(0, eq);
    const std::string value = parts[i].substr(eq + 1);
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0') {
      return InvalidArgument("chaos option " + key + " needs a number, got: " + value);
    }
    if (key == "seed") {
      chaos.seed = parsed;
    } else if (key == "one_in") {
      if (parsed == 0) {
        return InvalidArgument("chaos one_in must be >= 1");
      }
      chaos.one_in = static_cast<uint32_t>(parsed);
    } else if (key == "hang_ms") {
      chaos.hang_ms = static_cast<uint32_t>(parsed);
    } else {
      return InvalidArgument("unknown chaos option: " + key);
    }
  }
  if (!chaos.any()) {
    return InvalidArgument("chaos spec enables no mode: " + spec);
  }
  return chaos;
}

std::string ChaosDecision(const ServeChaos& chaos, const std::string& workload,
                          const std::string& cell, uint64_t attempt) {
  if (!chaos.any() || attempt >= 2) {
    return "";  // re-dispatched attempts always run clean: progress is guaranteed
  }
  const std::string key = std::to_string(chaos.seed) + "|" + workload + "|" + cell + "|" +
                          std::to_string(attempt);
  const uint64_t h = ServeFrameDigest(key);
  if (h % chaos.one_in != 0) {
    return "";
  }
  std::vector<const char*> enabled;
  if (chaos.kill) enabled.push_back("kill");
  if (chaos.hang) enabled.push_back("hang");
  if (chaos.garble) enabled.push_back("garble");
  return enabled[(h / chaos.one_in) % enabled.size()];
}

int ServeLoop(const ServeOptions& options) {
  if (options.registry == nullptr || options.socket_path.empty()) {
    std::fprintf(stderr, "serve: registry and socket path are required\n");
    return 1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options.socket_path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "serve: socket path too long: %s\n", options.socket_path.c_str());
    return 1;
  }
  std::strncpy(addr.sun_path, options.socket_path.c_str(), sizeof(addr.sun_path) - 1);

  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    std::fprintf(stderr, "serve: socket: %s\n", std::strerror(errno));
    return 1;
  }
  // Bind-collision semantics: a path that still accepts connections belongs
  // to a live server — refuse to steal it. A path nobody answers on is a
  // stale socket from a crashed server; unlink and rebind.
  struct stat st{};
  if (::lstat(options.socket_path.c_str(), &st) == 0) {
    if (!S_ISSOCK(st.st_mode)) {
      std::fprintf(stderr, "serve: %s exists and is not a socket\n", options.socket_path.c_str());
      ::close(listener);
      return 1;
    }
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (probe >= 0) {
      const bool live =
          ::connect(probe, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0;
      ::close(probe);
      if (live) {
        std::fprintf(stderr, "serve: %s is already served by a live server\n",
                     options.socket_path.c_str());
        ::close(listener);
        return 1;
      }
    }
    ::unlink(options.socket_path.c_str());
  }
  // The socket carries submit/run_cell for a trusted local caller only:
  // create the inode 0600 (umask for the bind itself, chmod to pin the mode
  // regardless of the inherited mask).
  const mode_t saved_umask = ::umask(0177);
  const bool bound =
      ::bind(listener, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0;
  ::umask(saved_umask);
  if (!bound || ::listen(listener, 8) != 0) {
    std::fprintf(stderr, "serve: bind/listen %s: %s\n", options.socket_path.c_str(),
                 std::strerror(errno));
    ::close(listener);
    return 1;
  }
  ::chmod(options.socket_path.c_str(), 0600);

  EngineOptions engine_options;
  engine_options.jobs = options.jobs;
  CampaignEngine engine(options.registry, engine_options);
  if (!options.quiet) {
    std::fprintf(stderr, "serve: listening on %s (%d workers, %zu workloads)%s\n",
                 options.socket_path.c_str(), engine.jobs(),
                 options.registry->workloads().size(),
                 options.chaos.any() ? (" chaos=" + options.chaos.Format()).c_str() : "");
  }

  bool shutdown = false;
  int exit_status = 0;
  while (!shutdown) {
    const int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) {
        continue;
      }
      std::fprintf(stderr, "serve: accept: %s\n", std::strerror(errno));
      exit_status = 1;
      break;
    }
    // Serve request lines until the client closes; each connection may carry
    // several rounds (submit, poll status, wait).
    for (;;) {
      StatusOr<std::string> line = RecvLine(conn);
      if (!line.ok()) {
        // Typed best-effort reply for frames we can classify, then drop the
        // connection — after an oversized or truncated frame there is no
        // resynchronization point in the stream.
        if (line.status().code() == StatusCode::kResourceExhausted) {
          (void)SendLine(conn, ErrorResponse("oversized_line", line.status().message()).Dump());
        } else if (line.status().code() == StatusCode::kInvalidArgument) {
          (void)SendLine(conn, ErrorResponse("truncated_frame", line.status().message()).Dump());
        }
        break;
      }
      json::Value response;
      StatusOr<json::Value> request = json::Parse(*line);
      if (!request.ok()) {
        response = ErrorResponse("bad_json", "bad request: " + request.status().message());
      } else {
        if (!options.quiet) {
          std::fprintf(stderr, "serve: %s\n", request->StringOr("cmd", "?").c_str());
        }
        response = Dispatch(options, engine, *request, &shutdown);
      }
      // Chaos harness: misbehave deterministically on first-attempt
      // run_cell replies. kill fires after the cell ran (a torn attempt —
      // work done, result lost — which is exactly what re-dispatch
      // idempotency must absorb).
      std::string chaos_mode;
      if (options.chaos.any() && request.ok() &&
          request->StringOr("cmd", "") == "run_cell") {
        chaos_mode = ChaosDecision(options.chaos, request->StringOr("workload", ""),
                                   request->StringOr("cell", ""),
                                   static_cast<uint64_t>(request->NumberOr("attempt", 1)));
      }
      if (chaos_mode == "kill") {
        if (!options.quiet) {
          std::fprintf(stderr, "serve: chaos kill\n");
        }
        ::raise(SIGKILL);
      } else if (chaos_mode == "hang") {
        if (!options.quiet) {
          std::fprintf(stderr, "serve: chaos hang %ums\n", options.chaos.hang_ms);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(options.chaos.hang_ms));
      } else if (chaos_mode == "garble") {
        std::string frame = response.Dump();
        GarbleFrame(frame, ServeFrameDigest(frame) ^ options.chaos.seed);
        if (!options.quiet) {
          std::fprintf(stderr, "serve: chaos garble\n");
        }
        (void)SendLine(conn, frame);
        break;  // drop the connection behind the corrupted frame
      }
      if (!SendLine(conn, response.Dump()).ok() || shutdown) {
        break;
      }
    }
    ::close(conn);
  }
  ::close(listener);
  ::unlink(options.socket_path.c_str());
  return exit_status;
}

StatusOr<json::Value> ServeRequest(const std::string& socket_path, const json::Value& request) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    return InvalidArgument("socket path too long: " + socket_path);
  }
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return InternalError(std::string("socket: ") + std::strerror(errno));
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return InternalError("connect " + socket_path + ": " + err);
  }
  Status sent = SendLine(fd, request.Dump());
  if (!sent.ok()) {
    ::close(fd);
    return sent;
  }
  StatusOr<std::string> line = RecvLine(fd);
  ::close(fd);
  if (!line.ok()) {
    return line.status();
  }
  return json::Parse(*line);
}

}  // namespace memsentry::eval
