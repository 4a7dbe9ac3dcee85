// `memsentry_cli serve` — a resident CampaignEngine behind a local UNIX
// socket, so the server workload, campaign sweeps and single cells can be
// driven without paying one batch process per run (perfbench's
// `serve_stream` workload streams `run_cell` requests through it).
// Newline-delimited JSON request/response protocol, one object per line:
//
//   {"cmd":"ping"}                         -> {"ok":true}
//   {"cmd":"workloads"}                    -> {"ok":true,"workloads":[...]}
//   {"cmd":"submit","workload":"fig4_callret",
//    "quick":true,"instructions":100000,   -> {"ok":true,"job":1}
//    "extra":{"campaigns":"160"}}
//   {"cmd":"status"}                       -> {"ok":true,"jobs":[...]}
//   {"cmd":"status","job":1}               -> {"ok":true,"job":{...}}
//   {"cmd":"cancel","job":1}               -> {"ok":true,"cancelled":true}
//   {"cmd":"wait","job":1}                 -> {"ok":true,"job":{...},"metrics":{...}}
//   {"cmd":"run_cell","workload":"fig3_address","cell":"mpk/hot",
//    "quick":true,"instructions":100000,   -> {"ok":true,"payload":...,
//    "seed":123,"extra":{}}                    "crc":"<fnv1a hex of payload>"}
//   {"cmd":"shutdown"}                     -> {"ok":true}   (loop exits)
//
// Error replies are typed: {"ok":false,"code":"bad_json","error":"..."} with
// codes bad_json / oversized_line / truncated_frame / unknown_cmd /
// unknown_workload / unknown_cell / unknown_job / missing_field /
// cell_failed. Malformed JSON and unknown commands get a typed reply on the
// same connection; frames the server cannot resynchronize after (oversized
// lines, truncated frames cut off by a client disconnect) get a clean
// connection drop. Neither ever crashes or wedges the loop: one misbehaving
// client costs its own connection, never the daemon the next client needs.
//
// `run_cell` executes one workload cell synchronously on the serving thread.
// Cells are pure functions of their recipe (see campaign_engine.h), so the
// payload is byte-identical to the one the engine hands assembly, and a
// client may resend a request after a lost reply. Unknown request fields
// are ignored (clients send an "attempt" counter). The reply carries an
// FNV-1a digest of the compact payload dump so the caller can reject
// corrupted-but-parseable frames.
//
// The loop serves connections one at a time (submit returns immediately —
// the engine runs jobs on its own workers — but `wait` blocks the loop, so
// clients issue it last). The socket inode is created with mode 0600; a
// bind collision against a live server fails fast, while a stale socket
// left by a crashed server is unlinked and rebound.
#ifndef MEMSENTRY_SRC_EVAL_SERVE_H_
#define MEMSENTRY_SRC_EVAL_SERVE_H_

#include <cstdint>
#include <string>

#include "src/base/json.h"
#include "src/base/status.h"
#include "src/eval/campaign_engine.h"

namespace memsentry::eval {

// FNV-1a over the bytes — the digest run_cell replies carry (as %016llx hex,
// since JSON numbers are doubles and cannot round-trip 64 bits).
uint64_t ServeFrameDigest(const std::string& bytes);

// Request lines beyond this are rejected ("oversized_line" + connection
// drop); generous enough for any legitimate payload in the suite.
inline constexpr size_t kServeMaxLineBytes = 64u << 20;

struct ServeOptions {
  std::string socket_path;
  const WorkloadRegistry* registry = nullptr;
  int jobs = 0;        // engine workers; <= 0 = hardware_concurrency
  bool quiet = false;  // suppress the per-request log lines
};

// Binds the socket and serves requests until a shutdown command (returns 0)
// or a socket-level failure (returns 1). The socket file is unlinked on the
// way out.
int ServeLoop(const ServeOptions& options);

// Client half: connect, send `request` as one line, read one response line.
StatusOr<json::Value> ServeRequest(const std::string& socket_path,
                                   const json::Value& request);

}  // namespace memsentry::eval

#endif  // MEMSENTRY_SRC_EVAL_SERVE_H_
