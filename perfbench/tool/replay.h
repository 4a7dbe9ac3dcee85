// The traced layer replay: re-runs a suite pass cell by cell from outside
// the program, calling each layer's public functions with spans around
// them, and checks every replayed result against the output oracle.
#ifndef PERFBENCH_TOOL_REPLAY_H_
#define PERFBENCH_TOOL_REPLAY_H_

#include <cstdint>
#include <string>

namespace perfbench {

struct ReplayOptions {
  bool quick = true;
  uint64_t seed = 0;
  std::string oracle;     // payload file of the check-mode reference pass
  bool spans = false;     // record spans (off = the same code, untimed)
  bool warm = false;      // run the pass once untraced first (serve's warm state)
  std::string trace_out;  // Chrome trace-event JSON, written at the end
};

// Prints one JSON result line; returns nonzero when a replayed cell does
// not reproduce its oracle payload.
int RunReplay(const ReplayOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_TOOL_REPLAY_H_
