#include "src/base/crash_handler.h"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <filesystem>
#include <system_error>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#if defined(__GLIBC__)
#include <execinfo.h>
#endif

namespace memsentry::base {
namespace {

// All handler-visible state lives in fixed buffers filled outside the
// handler; the handler itself allocates nothing. The root and the process
// default manifest are written once, by InstallCrashHandler, before any
// worker thread exists. The staged cell is per thread: synchronous signals,
// abort() and std::terminate all run on the thread that failed, so the
// handler always reads the context of the cell that was running there, at
// any number of engine workers. The thread_local buffers are trivially
// constructible, so touching them from the handler allocates nothing.
constexpr size_t kPathMax = 1024;
constexpr size_t kManifestMax = 32768;
constexpr size_t kNameMax = 256;

struct StagedManifest {
  char binary[kNameMax];
  char cell[kNameMax];
  char head[kManifestMax];  // complete manifest up to `"reason": "`
  size_t head_len;
};

char g_root[kPathMax];
StagedManifest g_process;  // what threads with no staged cell report
std::atomic<bool> g_installed{false};
thread_local StagedManifest t_cell;  // head_len == 0: nothing staged
volatile sig_atomic_t g_fatal_handled = 0;

const StagedManifest& CurrentManifest() {
  return t_cell.head_len > 0 ? t_cell : g_process;
}

// --- async-signal-safe string building ---

size_t SafeAppend(char* buf, size_t pos, size_t cap, const char* s) {
  while (*s != '\0' && pos + 1 < cap) {
    buf[pos++] = *s++;
  }
  buf[pos] = '\0';
  return pos;
}

size_t SafeAppendNum(char* buf, size_t pos, size_t cap, uint64_t v) {
  char digits[24];
  int n = 0;
  do {
    digits[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (n > 0 && pos + 1 < cap) {
    buf[pos++] = digits[--n];
  }
  buf[pos] = '\0';
  return pos;
}

void SafeWrite(int fd, const char* data, size_t size) {
  size_t done = 0;
  while (done < size) {
    const ssize_t n = write(fd, data + done, size - done);
    if (n <= 0) {
      return;
    }
    done += static_cast<size_t>(n);
  }
}

void SafeWriteStr(int fd, const char* s) { SafeWrite(fd, s, strlen(s)); }

// Directory-name characters only; everything else becomes '-'.
void SanitizeComponent(const char* in, char* out, size_t cap) {
  size_t pos = 0;
  for (; in[pos] != '\0' && pos + 1 < cap; ++pos) {
    const char c = in[pos];
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    out[pos] = ok ? c : '-';
  }
  out[pos] = '\0';
}

// The one function the whole machinery funnels into. Must stay
// async-signal-safe end to end. Returns the bundle dir length (0 on failure)
// and fills `dir`.
size_t WriteBundleAt(const char* reason, char* dir, size_t dir_cap) {
  if (!g_installed.load(std::memory_order_acquire) || g_root[0] == '\0') {
    return 0;
  }
  const StagedManifest& manifest = CurrentManifest();
  mkdir(g_root, 0755);  // EEXIST is fine

  size_t pos = SafeAppend(dir, 0, dir_cap, g_root);
  pos = SafeAppend(dir, pos, dir_cap, "/");
  pos = SafeAppendNum(dir, pos, dir_cap, static_cast<uint64_t>(time(nullptr)));
  pos = SafeAppend(dir, pos, dir_cap, "-");
  pos = SafeAppendNum(dir, pos, dir_cap, static_cast<uint64_t>(getpid()));
  pos = SafeAppend(dir, pos, dir_cap, "-");
  char clean[256];
  SanitizeComponent(manifest.binary, clean, sizeof(clean));
  pos = SafeAppend(dir, pos, dir_cap, clean);
  pos = SafeAppend(dir, pos, dir_cap, "-");
  SanitizeComponent(manifest.cell, clean, sizeof(clean));
  pos = SafeAppend(dir, pos, dir_cap, clean);
  if (mkdir(dir, 0755) != 0) {
    return 0;
  }

  char path[kPathMax];
  size_t p = SafeAppend(path, 0, sizeof(path), dir);
  p = SafeAppend(path, p, sizeof(path), "/manifest.json");
  int fd = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) {
    SafeWrite(fd, manifest.head, manifest.head_len);
    // Escape the reason minimally: quotes/backslashes/control chars -> '_'.
    for (const char* c = reason; *c != '\0'; ++c) {
      const char out =
          (*c == '"' || *c == '\\' || static_cast<unsigned char>(*c) < 0x20) ? '_' : *c;
      SafeWrite(fd, &out, 1);
    }
    SafeWriteStr(fd, "\"\n}\n");
    close(fd);
  }

#if defined(__GLIBC__)
  p = SafeAppend(path, 0, sizeof(path), dir);
  p = SafeAppend(path, p, sizeof(path), "/backtrace.txt");
  fd = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) {
    void* frames[64];
    const int depth = backtrace(frames, 64);
    backtrace_symbols_fd(frames, depth, fd);
    close(fd);
  }
#endif

  return pos;
}

void FatalSignalHandler(int sig) {
  if (!g_fatal_handled) {
    g_fatal_handled = 1;
    char dir[kPathMax];
    if (WriteBundleAt(sig == SIGSEGV   ? "SIGSEGV"
                      : sig == SIGBUS  ? "SIGBUS"
                      : sig == SIGABRT ? "SIGABRT"
                                       : "signal",
                      dir, sizeof(dir)) > 0) {
      SafeWriteStr(2, "\n[crash_handler] wrote ");
      SafeWriteStr(2, dir);
      SafeWriteStr(2, "\n");
    }
  }
  // SA_RESETHAND restored the default action; re-raise so the exit status
  // reports the original signal.
  raise(sig);
}

void TerminateHandler() {
  if (!g_fatal_handled) {
    g_fatal_handled = 1;
    char dir[kPathMax];
    if (WriteBundleAt("uncaught-exception", dir, sizeof(dir)) > 0) {
      SafeWriteStr(2, "\n[crash_handler] wrote ");
      SafeWriteStr(2, dir);
      SafeWriteStr(2, "\n");
    }
  }
  abort();
}

// Renders the manifest prefix for `context` into `out`. Runs outside the
// handler, so normal string building is fine; the result is copied into the
// fixed buffer the handler writes verbatim.
void RenderManifest(const CrashContext& context, StagedManifest& out) {
  std::string head = "{\n  \"binary\": \"";
  for (const char c : context.binary) {
    head += (c == '"' || c == '\\') ? '_' : c;
  }
  head += "\",\n  \"cell\": \"";
  for (const char c : context.cell) {
    head += (c == '"' || c == '\\') ? '_' : c;
  }
  head += "\",\n  \"seed\": " + std::to_string(context.seed);
  head += ",\n  \"config\": ";
  head += context.config_json.empty() ? "null" : context.config_json;
  head += ",\n  \"replay\": ";
  head += context.replay_json.empty() ? "null" : context.replay_json;
  head += ",\n  \"reason\": \"";
  if (head.size() >= kManifestMax) {
    head.resize(kManifestMax - 1);
  }
  memcpy(out.head, head.data(), head.size());
  out.head[head.size()] = '\0';
  out.head_len = head.size();

  strncpy(out.binary, context.binary.c_str(), sizeof(out.binary) - 1);
  out.binary[sizeof(out.binary) - 1] = '\0';
  strncpy(out.cell, context.cell.c_str(), sizeof(out.cell) - 1);
  out.cell[sizeof(out.cell) - 1] = '\0';
}

}  // namespace

void InstallCrashHandler(const std::string& bundle_root, const CrashContext& process) {
  if (g_installed.load(std::memory_order_acquire)) {
    return;
  }
  strncpy(g_root, bundle_root.c_str(), sizeof(g_root) - 1);
  g_root[sizeof(g_root) - 1] = '\0';
  CrashContext idle = process;
  if (idle.binary.empty()) {
    idle.binary = "unknown";
  }
  idle.cell = "idle";
  idle.replay_json.clear();
  RenderManifest(idle, g_process);

  struct sigaction action;
  memset(&action, 0, sizeof(action));
  action.sa_handler = FatalSignalHandler;
  sigemptyset(&action.sa_mask);
  // One shot: the handler runs once, then the default action takes over on
  // re-raise (and on any crash inside the handler itself).
  action.sa_flags = SA_RESETHAND | SA_NODEFER;
  sigaction(SIGSEGV, &action, nullptr);
  sigaction(SIGBUS, &action, nullptr);
  sigaction(SIGABRT, &action, nullptr);
  std::set_terminate(TerminateHandler);
  g_installed.store(true, std::memory_order_release);
}

void SetCrashContext(const CrashContext& context) {
  if (g_installed.load(std::memory_order_acquire)) {
    RenderManifest(context, t_cell);
  }
}

void ClearCrashCell() { t_cell.head_len = 0; }

std::string WriteCrashBundle(const char* reason) {
  char dir[kPathMax];
  const size_t len = WriteBundleAt(reason, dir, sizeof(dir));
  return len > 0 ? std::string(dir, len) : std::string();
}

namespace {

namespace fs = std::filesystem;

struct BundleEntry {
  fs::path path;
  int64_t stamp = 0;       // parsed leading unixtime, or mtime fallback
  uint64_t bytes = 0;
};

// Parses the leading `<unixtime>-` of a bundle directory name. Returns -1
// when the name does not start with digits followed by '-'.
int64_t ParseBundleStamp(const std::string& name) {
  size_t pos = 0;
  while (pos < name.size() && name[pos] >= '0' && name[pos] <= '9') {
    ++pos;
  }
  if (pos == 0 || pos >= name.size() || name[pos] != '-') {
    return -1;
  }
  return static_cast<int64_t>(std::strtoll(name.c_str(), nullptr, 10));
}

uint64_t DirectoryBytes(const fs::path& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end; it.increment(ec)) {
    std::error_code sec;
    if (it->is_regular_file(sec) && !sec) {
      total += it->file_size(sec);
    }
  }
  return total;
}

}  // namespace

CrashGcStats CollectCrashBundles(const std::string& bundle_root, const CrashBundleCaps& caps,
                                 int64_t protect_after) {
  CrashGcStats stats;
  std::error_code ec;
  std::vector<BundleEntry> bundles;
  for (fs::directory_iterator it(bundle_root, ec), end; !ec && it != end; it.increment(ec)) {
    std::error_code sec;
    if (!it->is_directory(sec) || sec) {
      continue;
    }
    BundleEntry entry;
    entry.path = it->path();
    entry.stamp = ParseBundleStamp(entry.path.filename().string());
    if (entry.stamp < 0) {
      const auto mtime = fs::last_write_time(entry.path, sec);
      entry.stamp =
          sec ? 0
              : std::chrono::duration_cast<std::chrono::seconds>(
                    mtime.time_since_epoch() -
                    (fs::file_time_type::clock::now().time_since_epoch() -
                     std::chrono::system_clock::now().time_since_epoch()))
                    .count();
    }
    entry.bytes = DirectoryBytes(entry.path);
    bundles.push_back(std::move(entry));
  }
  if (bundles.empty()) {
    return stats;
  }

  std::sort(bundles.begin(), bundles.end(), [](const BundleEntry& a, const BundleEntry& b) {
    return a.stamp != b.stamp ? a.stamp < b.stamp : a.path < b.path;
  });

  uint64_t total_bytes = 0;
  for (const BundleEntry& entry : bundles) {
    total_bytes += entry.bytes;
  }
  size_t remaining = bundles.size();
  for (const BundleEntry& entry : bundles) {
    if (remaining <= caps.max_bundles && total_bytes <= caps.max_bytes) {
      break;
    }
    if (entry.stamp >= protect_after) {
      // Bundles are sorted oldest-first, so everything from here on is
      // protected too; the caps simply cannot be met this run.
      break;
    }
    std::error_code rec;
    fs::remove_all(entry.path, rec);
    if (!rec) {
      ++stats.bundles_removed;
      stats.bytes_removed += entry.bytes;
    }
    // A sibling process may have beaten us to the removal; either way the
    // bundle no longer counts against the caps.
    --remaining;
    total_bytes -= entry.bytes;
  }
  stats.bundles_kept = remaining;
  return stats;
}

}  // namespace memsentry::base
