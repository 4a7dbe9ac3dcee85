// Runtime selection of the simulator fast paths (pre-decoded µop streams in
// the executor, the MMU translation grant cache, the crypt regions' reused
// AES-CTR keystreams). The fast paths are
// bit-identical by construction — every modeled number (cycles, stats,
// faults, safe-access refs) matches the reference paths exactly — so the
// mode only changes wall-clock. kCheck runs the fast paths with reference
// re-derivation in lockstep and aborts the process on any divergence; it is
// the differential oracle exercised by tests and the perf-smoke CI job.
#ifndef MEMSENTRY_SRC_BASE_FASTPATH_H_
#define MEMSENTRY_SRC_BASE_FASTPATH_H_

namespace memsentry::base {

enum class FastPathMode : int {
  kOff = 0,    // reference interpreter + full MMU path + fresh AES only
  kOn = 1,     // decoded µop streams + MMU grant cache + keystream reuse
  kCheck = 2,  // fast paths, validated in lockstep against the reference
};

// Process-wide mode. The first read consults the MEMSENTRY_FASTPATH
// environment variable ("on"/"off"/"check", default "on"); SetFastPathMode
// overrides it (tests, --fastpath= command-line flags). Reads after
// initialization are a single relaxed atomic load, cheap enough for the
// per-access hot path.
FastPathMode GetFastPathMode();
void SetFastPathMode(FastPathMode mode);

const char* FastPathModeName(FastPathMode mode);

// Parses "on"/"1", "off"/"0" or "check". Returns false (leaving *mode
// untouched) on anything else, including nullptr.
bool ParseFastPathMode(const char* text, FastPathMode* mode);

}  // namespace memsentry::base

#endif  // MEMSENTRY_SRC_BASE_FASTPATH_H_
