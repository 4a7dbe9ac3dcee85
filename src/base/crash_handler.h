// Crash bundles: when a suite run dies — SIGSEGV/SIGABRT/SIGBUS,
// an uncaught exception, or a programmatic trigger (fastpath check-mode
// divergence, fault-matrix escape) — a handler writes a replayable bundle
//
//   crash_bundles/<timestamp>-<pid>-<binary>-<cell>/
//     manifest.json    binary, cell, seed, config, replay spec, reason
//     backtrace.txt    async-signal-safe raw backtrace (glibc builds)
//
// and `memsentry_cli replay <bundle>` re-executes the failing cell
// deterministically from the manifest's replay spec.
//
// Everything the signal handler touches is pre-rendered at SetCrashContext
// time into fixed buffers; the handler itself only calls async-signal-safe
// primitives (mkdir/open/write/time, backtrace_symbols_fd). The staged cell
// is per thread, so cells running concurrently on engine workers each
// stage their own context and a crash bundles the cell of the thread that
// failed.
#ifndef MEMSENTRY_SRC_BASE_CRASH_HANDLER_H_
#define MEMSENTRY_SRC_BASE_CRASH_HANDLER_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace memsentry::base {

// What the manifest records about the cell in flight. `config_json` and
// `replay_json` must be complete JSON values (objects); `replay_json` is the
// machine-readable spec `memsentry_cli replay` consumes.
struct CrashContext {
  std::string binary;       // e.g. "fault_matrix"
  std::string cell;         // e.g. "Mpk/pkru-desync"
  uint64_t seed = 0;
  std::string config_json;  // run configuration (mode, instructions, fastpath...)
  std::string replay_json;  // replay spec, e.g. {"kind":"fault_cell",...}
};

// Installs the signal/terminate handlers (idempotent; first root wins).
// Bundles land under `bundle_root` (created on demand). `process` describes
// the run (binary, seed, config); a thread with no staged cell writes it
// with cell="idle" and no replay spec. Call it before starting any thread
// that stages cells.
void InstallCrashHandler(const std::string& bundle_root, const CrashContext& process = {});

// Stages the manifest for the cell about to run on the calling thread.
// Pre-renders everything the handler will write, so a crash on this thread
// any time after this call produces a complete bundle for this cell. Returns
// at once, staging nothing, until InstallCrashHandler has run.
void SetCrashContext(const CrashContext& context);

// Marks the calling thread's cell complete: a crash between cells produces
// the process's "idle" bundle.
void ClearCrashCell();

// Programmatic trigger for failures that are detected rather than trapped
// (containment escapes, determinism divergence): writes a bundle now and
// returns its directory path ("" if the handler was never installed or the
// bundle could not be created). Does not terminate the process.
std::string WriteCrashBundle(const char* reason);

// --- bundle retention ---
//
// Bundles accumulate across suite runs (every chaos campaign leaves a
// trail); without a cap a long-lived checkout fills its disk with stale
// replay state. CollectCrashBundles enforces a size/count budget by
// deleting the oldest bundles first. It runs at process startup (normal
// context, not the signal handler) and never touches bundles stamped at or
// after `protect_after` — the current run's output is sacrosanct even when
// it alone exceeds the caps.

struct CrashBundleCaps {
  size_t max_bundles = 32;           // keep at most this many bundle dirs
  uint64_t max_bytes = 256u << 20;   // ...totalling at most this many bytes
};

struct CrashGcStats {
  size_t bundles_kept = 0;
  size_t bundles_removed = 0;
  uint64_t bytes_removed = 0;
};

// Scans `bundle_root` for bundle directories (named
// `<unixtime>-<pid>-<binary>-<cell>`; the leading timestamp orders them,
// directory mtime is the fallback for foreign names), then removes the
// oldest until both caps hold. Bundles whose timestamp is >= `protect_after`
// are never deleted and do not count toward `bundles_removed`. A missing
// root is a no-op. Safe to call from any number of concurrent processes —
// removal failures (e.g. a sibling already deleted the dir) are ignored.
CrashGcStats CollectCrashBundles(const std::string& bundle_root, const CrashBundleCaps& caps,
                                 int64_t protect_after);

}  // namespace memsentry::base

#endif  // MEMSENTRY_SRC_BASE_CRASH_HANDLER_H_
