#!/usr/bin/env python3
"""MemSentry benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a MemSentry checkout. It builds the simulator and the
benchmark tool from source into .bench_build/ (first run only), records the
output oracle for (mode, seed), measures the workload for S seconds, checks
every operation's output, and prints one JSON result as the last line of
stdout. End-to-end times are scaled to a reference host speed measured by
perfbench_probe before each pass. See perfbench/README.md for the workloads,
metrics and rules.

Workloads (one closed loop from this process, one engine worker, at most
one client connection):
  suite_quick   fresh CampaignEngine process per pass, --quick suite (420 cells)
  paper_full    fresh CampaignEngine process per pass, full suite (425 cells);
                not listed in BENCHMARK.json (see perfbench/README.md)
  serve_stream  one `memsentry_cli serve --jobs 1` daemon, run_cell per cell,
                cells in enumeration order; the cold pass is set-up
"""

import argparse
import hashlib
import json
import os
import platform
import re
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checker  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_ROOT, "cmake")
ORACLE_DIR = os.path.join(BUILD_ROOT, "oracle")
WORK_DIR = os.path.join(BUILD_ROOT, "work")
RESULTS_DIR = os.path.join(BUILD_ROOT, "results")
TOOL = os.path.join(CMAKE_DIR, "perfbench_tool")
PROBE = os.path.join(CMAKE_DIR, "perfbench_probe")
CLI = os.path.join(CMAKE_DIR, "memsentry", "tools", "memsentry_cli")
BUILD_TYPE = "RelWithDebInfo"

WORKLOADS = {
    # name: (suite mode, minimum measured passes, cell_tail_ms percentile).
    # The percentile is the highest with at least ten samples beyond it at
    # the minimum pass count, so every run of a workload reports the same one.
    "suite_quick": ("quick", 3, 99.0),
    "paper_full": ("full", 2, 98.0),
    "serve_stream": ("quick", 3, 99.0),
}
BASELINES = {"quick": "bench/baselines/seed-quick.json", "full": "bench/baselines/seed.json"}
REPLAY_PAIRS = 3  # spans off/on pairs for trace.overhead_s
# A fixed reference time for perfbench_probe, about its time on a quiet
# 4-vCPU x86_64 host (gcc 12.2). End-to-end times are reported as if the
# host ran the probe in exactly this time.
PROBE_REF_S = 0.30

class BenchError(Exception):
    """Set-up could not complete (no source tree, build failure, ...)."""


class OperationCrashed(Exception):
    """A simulating process died during an operation; the run has failed.
    `workload` is the suite workload of a cell, or None for a whole pass."""

    def __init__(self, cell, reason, workload=None):
        super().__init__(reason)
        self.cell = cell
        self.workload = workload


def load_spec():
    """BENCHMARK.json: the metric names and units this runner must print."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def log_path(name):
    os.makedirs(WORK_DIR, exist_ok=True)
    return os.path.join(WORK_DIR, name)


def clean_env(fastpath=None):
    """The environment for simulator processes: no inherited MEMSENTRY_*
    switches, so measured runs always use the defaults (fast path on, run
    memo on)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MEMSENTRY_")}
    if fastpath is not None:
        env["MEMSENTRY_FASTPATH"] = fastpath
    return env


# --------------------------------------------------------------------------
# Build


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no MemSentry source tree at %s" % ROOT)
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "build.log"), "ab") as out:
        steps = []
        if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                          "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
        steps.append(["cmake", "--build", CMAKE_DIR, "--target", "perfbench_tool",
                      "perfbench_probe", "memsentry_cli", "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.call(cmd, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT) != 0:
                raise BenchError("build step failed: %s (see .bench_build/build.log)" %
                                 " ".join(cmd))


def build_metadata():
    meta = {"nproc": os.cpu_count(), "machine": platform.machine(),
            "build_type": BUILD_TYPE, "compiler": "unknown"}
    try:
        with open(os.path.join(CMAKE_DIR, "CMakeCache.txt")) as f:
            cache = f.read()
        m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M)
        if m:
            meta["build_type"] = m.group(1)
        m = re.search(r"^CMAKE_CXX_COMPILER:\w+=(.*)$", cache, re.M)
        if m:
            version = subprocess.run([m.group(1), "--version"], capture_output=True,
                                     text=True).stdout.splitlines()
            meta["compiler"] = version[0] if version else m.group(1)
    except OSError:
        pass
    return meta


def binary_digest():
    """Identifies this build, so an oracle is never reused across builds."""
    h = hashlib.sha256()
    for path in (TOOL, CLI):
        with open(path, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()[:16]


# --------------------------------------------------------------------------
# Tool processes


def wait_rusage(proc):
    """Reaps proc; returns (exit status, peak RSS in MiB)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_tool(args, env=None, log="tool.log"):
    """Runs perfbench_tool to completion; returns (exit code, its last stdout
    line as JSON, or {} when it printed nothing)."""
    with open(log_path(log), "ab") as err:
        proc = subprocess.run([TOOL] + args, cwd=ROOT, env=env or clean_env(),
                              stdout=subprocess.PIPE, stderr=err, timeout=170)
    lines = proc.stdout.decode().strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else {}


def pass_args(mode, seed, payloads):
    args = ["pass", "--mode", mode, "--seed", str(seed), "--payloads", payloads]
    return args + ["--baseline", os.path.join(ROOT, BASELINES[mode])]


def oracle(mode, seed):
    """The check-mode reference pass for (mode, seed): recorded once per build."""
    os.makedirs(ORACLE_DIR, exist_ok=True)
    stem = os.path.join(ORACLE_DIR, "%s-%d-%s" % (mode, seed, binary_digest()))
    if not (os.path.isfile(stem + ".tsv") and os.path.isfile(stem + ".json")):
        tmp = stem + ".tmp.%d" % os.getpid()
        code, result = run_tool(pass_args(mode, seed, tmp), env=clean_env("check"),
                                log="oracle.log")
        if code != 0 or not result.get("payloads_written"):
            raise OperationCrashed("<oracle>", "oracle pass failed (exit %d)" % code)
        with open(stem + ".json.tmp", "w") as f:
            json.dump(result, f)
        os.replace(tmp, stem + ".tsv")
        os.replace(stem + ".json.tmp", stem + ".json")
    with open(stem + ".json") as f:
        info = json.load(f)
    return stem + ".tsv", checker.read_payload_file(stem + ".tsv"), info


def host_scale(run):
    """Runs the host-speed probe; returns the factor that converts times
    measured right after it to the reference host's speed."""
    out = subprocess.run([PROBE], stdout=subprocess.PIPE, timeout=60, check=True).stdout
    probe_s = float(out.split()[0])
    run.probes.append(probe_s)
    return PROBE_REF_S / probe_s


# --------------------------------------------------------------------------
# Statistics


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


class Run:
    """Accumulates one run's operations, failures and figures."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failures = []
        self.latencies = []  # seconds, measured operations only
        self.passes = []     # seconds, scaled to the reference host speed
        self.raw_passes = []  # seconds, as measured
        self.setups = []     # seconds, scaled to the reference host speed
        self.probes = []     # perfbench_probe seconds, one before each pass
        self.rss = []        # MiB
        self.sim_instructions = 0.0
        self.paper_err_pct = None
        self.notes = {}

    def check(self, failures):
        self.failures.extend(failures)


# --------------------------------------------------------------------------
# Workloads


def measure_suite(run, mode, seconds):
    """Fresh engine process per pass, passes back to back for `seconds`."""
    oracle_path, reference, info = oracle(mode, run.seed)
    run.check(checker.report_failures(info, run.workload, run.seed))
    min_passes = WORKLOADS[run.workload][1]
    payloads = log_path("pass-%d.tsv" % os.getpid())
    start = time.perf_counter()
    while len(run.passes) < min_passes or time.perf_counter() - start < seconds:
        scale = host_scale(run)
        spawn = time.perf_counter()
        with open(log_path("pass.log"), "ab") as err:
            proc = subprocess.Popen([TOOL] + pass_args(mode, run.seed, payloads), cwd=ROOT,
                                    env=clean_env(), stdout=subprocess.PIPE, stderr=err)
        try:
            ready = proc.stdout.readline()
            ready_at = time.perf_counter()
            rest = proc.stdout.read()
        finally:
            proc.stdout.close()
            code, rss = wait_rusage(proc)
        lines = rest.decode().strip().splitlines()
        if ready.strip() != b"ready" or code != 0 or not lines:
            raise OperationCrashed("<pass>", "pass process failed (exit %d)" % code)
        result = json.loads(lines[-1])
        run.setups.append((ready_at - spawn) * scale)
        run.raw_passes.append(result["pass_s"])
        run.passes.append(result["pass_s"] * scale)
        run.rss.append(rss)
        run.latencies.extend(c * scale for c in result["cell_s"])
        run.sim_instructions = result["sim_instructions"]
        run.attempted += result["cells"]
        run.check(checker.compare_pass(reference, checker.read_payload_file(payloads),
                                       run.seed))
        run.check(checker.report_failures(result, run.workload, run.seed))
        run.paper_err_pct = result["check"]["paper_err_pct"]
    os.remove(payloads)
    run.notes["gate"] = result["check"]["gate_summary"] or "not run (seed is not the default)"


class ServeSession:
    """One `memsentry_cli serve --jobs 1` daemon and one client connection."""

    def __init__(self, tag):
        self.sock_path = os.path.relpath(log_path("serve-%d-%s.sock" % (os.getpid(), tag)),
                                         ROOT)
        if os.path.exists(self.sock_path):
            os.remove(self.sock_path)
        self.spawned = time.perf_counter()
        self.err = open(log_path("serve.log"), "ab")
        self.proc = subprocess.Popen(
            [CLI, "serve", "--socket", self.sock_path, "--jobs", "1", "--quiet"],
            cwd=ROOT, env=clean_env(), stdout=subprocess.DEVNULL, stderr=self.err)
        self.sock = None
        self.reader = None
        try:
            self._connect(deadline=self.spawned + 60)
        except BaseException:
            self.close()
            raise

    def _connect(self, deadline):
        """Connects once the daemon listens: that instant is "ready"."""
        while self.sock is None:
            if self.proc.poll() is not None:
                raise OperationCrashed("<start-up>", "serve daemon exited during start-up")
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(self.sock_path)
                self.sock = s
            except OSError:
                s.close()
                if time.perf_counter() > deadline:
                    raise BenchError("serve daemon did not start listening")
                time.sleep(0.001)
        self.reader = self.sock.makefile("rb", buffering=1 << 16)

    def request(self, line):
        """One round trip; None when the daemon dropped the connection."""
        try:
            self.sock.sendall(line)
            reply = self.reader.readline()
        except OSError:
            return None
        return reply if reply.endswith(b"\n") else None

    def shutdown(self):
        """Stops the daemon and returns its peak RSS in MiB."""
        if self.request(b'{"cmd":"shutdown"}\n') is None:
            raise OperationCrashed("<shutdown>", "daemon died")
        self.reader.close()
        self.sock.close()
        self.sock = None
        _, rss = wait_rusage(self.proc)
        return rss

    def close(self):
        """Releases everything; kills the daemon if shutdown() never ran."""
        if self.sock is not None:
            if self.reader is not None:
                self.reader.close()
            self.sock.close()
            self.sock = None
        if self.proc.returncode is None:
            self.proc.kill()
            wait_rusage(self.proc)
        self.err.close()
        if os.path.exists(self.sock_path):
            os.remove(self.sock_path)


def cell_requests(mode, seed):
    with open(log_path("tool.log"), "ab") as err:
        out = subprocess.run([TOOL, "cells", "--mode", mode, "--seed", str(seed)], cwd=ROOT,
                             env=clean_env(), stdout=subprocess.PIPE, stderr=err,
                             timeout=60, check=True).stdout
    return [line + b"\n" for line in out.splitlines()]


def serve_pass(session, requests, reference, run, record):
    """Sends every cell once, in enumeration order. Returns (wall, latencies,
    payload-file lines)."""
    latencies = []
    lines = []
    start = time.perf_counter()
    for req, entry in zip(requests, reference):
        t0 = time.perf_counter()
        reply = session.request(req)
        latencies.append(time.perf_counter() - t0)
        run.attempted += 1
        if reply is None:
            raise OperationCrashed(entry[1], "daemon died", workload=entry[0])
        payload, error = checker.parse_run_cell_reply(reply)
        if error is not None:
            run.check([checker.Failure(entry[0], entry[1], run.seed, error)])
        else:
            f = checker.compare_payload(entry, entry[0], entry[1], payload, run.seed)
            if f is not None:
                run.check([f])
        if record:
            lines.append(b"%s\t%s\t%s\n" % (entry[0].encode(), entry[1].encode(),
                                            payload or b""))
    return time.perf_counter() - start, latencies, lines


def measure_serve(run, seconds):
    mode = "quick"
    oracle_path, reference, info = oracle(mode, run.seed)
    run.check(checker.report_failures(info, run.workload, run.seed))
    requests = cell_requests(mode, run.seed)
    if len(requests) != len(reference):
        raise BenchError("cell list and oracle disagree (%d vs %d cells)" %
                         (len(requests), len(reference)))
    scale = host_scale(run)
    session = ServeSession("stream")
    try:
        serve_pass(session, requests, reference, run, record=False)  # cold pass
        run.setups.append((time.perf_counter() - session.spawned) * scale)
        min_passes = WORKLOADS[run.workload][1]
        start = time.perf_counter()
        last = []
        while len(run.passes) < min_passes or time.perf_counter() - start < seconds:
            scale = host_scale(run)
            wall, latencies, last = serve_pass(session, requests, reference, run,
                                               record=True)
            run.raw_passes.append(wall)
            run.passes.append(wall * scale)
            run.latencies.extend(c * scale for c in latencies)
        run.rss.append(session.shutdown())
    finally:
        session.close()
    # Assemble the last pass's replies into the suite report (untimed).
    payloads = log_path("serve-%d.tsv" % os.getpid())
    with open(payloads, "wb") as f:
        f.writelines(last)
    code, result = run_tool(["assemble", "--mode", mode, "--seed", str(run.seed),
                             "--payloads", payloads, "--baseline",
                             os.path.join(ROOT, BASELINES[mode])])
    os.remove(payloads)
    if code != 0 or not result:
        raise OperationCrashed("<assemble>", "assemble process failed (exit %d)" % code)
    run.check(checker.report_failures(result, run.workload, run.seed))
    run.sim_instructions = result["sim_instructions"]
    run.paper_err_pct = result["check"]["paper_err_pct"]
    run.notes["gate"] = result["check"]["gate_summary"] or "not run (seed is not the default)"


# --------------------------------------------------------------------------
# Traced run


class ReplayMismatch(Exception):
    """A replayed cell did not reproduce its oracle payload."""


def replay(mode, seed, oracle_path, spans, warm, trace_out=None):
    args = ["replay", "--mode", mode, "--seed", str(seed), "--oracle", oracle_path,
            "--spans", "1" if spans else "0"]
    if warm:
        args.append("--warm")
    if trace_out:
        args += ["--trace-out", trace_out]
    code, result = run_tool(args, log="replay.log")
    if code != 0 or not result.get("ok"):
        raise ReplayMismatch(result)
    return result


def traced(run, workload):
    mode = WORKLOADS[workload][0]
    warm = workload == "serve_stream"
    oracle_path, reference, info = oracle(mode, run.seed)
    run.check(checker.report_failures(info, workload, run.seed))
    os.makedirs(RESULTS_DIR, exist_ok=True)
    trace_file = os.path.join(RESULTS_DIR, "trace-%s-%d.json" % (workload, run.seed))
    offs, ons = [], []
    try:
        for i in range(REPLAY_PAIRS):
            offs.append(replay(mode, run.seed, oracle_path, False, warm))
            ons.append(replay(mode, run.seed, oracle_path, True, warm,
                              trace_file if i == 0 else None))
    except ReplayMismatch as e:
        r = e.args[0]
        for cell in r.get("mismatch_cells", ["<replay>"]) or ["<replay>"]:
            run.check([checker.Failure(workload, cell, run.seed,
                                       "replay does not reproduce the oracle payload")])
        return {}
    run.attempted += sum(r["cells"] for r in offs + ons)

    def med(get):
        return statistics.median(get(r) for r in ons)

    # Span "<module>.<step>" is reported as "<module>.<step>_s"; counters
    # keep their names. Absent spans (a layer the pass never entered) are 0.
    spans = {name for r in ons for name in r["layers"]}
    m = {name + "_s": med(lambda r: r["layers"].get(name, 0.0)) for name in spans}
    m.update({name: med(lambda r: r["counts"][name]) for name in ons[0]["counts"]})
    m["trace.overhead_s"] = statistics.median(
        on["wall_s"] - off["wall_s"] for off, on in zip(offs, ons))
    m["trace.unattributed_s"] = med(lambda r: r["unattributed_s"])
    m["eval.engine_cell_s"] = m["eval.engine_other_s"] = m["eval.serve_other_ms"] = 0.0
    instr = m["sim.instructions"]
    m["sim.interpret_ns_per_instr"] = m["sim.interpret_s"] * 1e9 / instr if instr else 0.0
    run.notes["replay_wall_s"] = {"spans_off": [r["wall_s"] for r in offs],
                                  "spans_on": [r["wall_s"] for r in ons]}
    run.notes["trace_file"] = os.path.relpath(trace_file, ROOT)

    if workload == "serve_stream":
        # Warm round trip minus the cell's own warm replay time, each the
        # per-cell minimum over three runs so both sides see the host's fast
        # phase (the difference is far smaller than the host's drift).
        requests = cell_requests(mode, run.seed)
        own = [min(cells) for cells in zip(*(r["cell_s"] for r in offs))]
        session = ServeSession("trace")
        try:
            serve_pass(session, requests, reference, run, record=False)
            rtts = [serve_pass(session, requests, reference, run, record=False)[1]
                    for _ in range(REPLAY_PAIRS)]
            session.shutdown()
        finally:
            session.close()
        m["eval.serve_other_ms"] = 1e3 * statistics.median(
            min(rtt) - cell for rtt, cell in zip(zip(*rtts), own))
    else:
        payloads = log_path("trace-pass-%d.tsv" % os.getpid())
        code, result = run_tool(pass_args(mode, run.seed, payloads))
        if code != 0 or not result:
            raise OperationCrashed("<pass>", "pass process failed (exit %d)" % code)
        run.check(checker.compare_pass(reference, checker.read_payload_file(payloads),
                                       run.seed))
        os.remove(payloads)
        run.attempted += result["cells"]
        cell_total = sum(result["cell_s"])
        m["eval.engine_cell_s"] = cell_total
        m["eval.engine_other_s"] = result["pass_s"] - cell_total
    return m


# --------------------------------------------------------------------------
# Main


def summarize(run):
    n = len(run.latencies)
    tail_p = WORKLOADS[run.workload][2]
    pass_s = statistics.median(run.passes)
    metrics = {
        "setup_s": statistics.median(run.setups),
        "pass_s": pass_s,
        "cell_p50_ms": 1e3 * percentile(run.latencies, 50),
        "cell_tail_ms": 1e3 * percentile(run.latencies, tail_p),
        "sim_mips": run.sim_instructions / pass_s / 1e6,
        "peak_rss_mb": statistics.median(run.rss),
        "paper_err_pct": run.paper_err_pct,
    }
    samples = {
        "setup_s": len(run.setups), "pass_s": len(run.passes), "cell_p50_ms": n,
        "cell_tail_ms": n, "peak_rss_mb": len(run.rss),
    }
    extra = {
        "fail_ratio": {"value": len(run.failures) / max(run.attempted, 1), "unit": "1",
                       "failed": len(run.failures), "attempted": run.attempted},
        "cell_tail_percentile": tail_p,
        "cell_tail_beyond": n - int(-(-n * tail_p // 100)),
        "samples": samples,
        "probe_s": statistics.median(run.probes),
        "unscaled_pass_s": statistics.median(run.raw_passes),
    }
    return metrics, extra


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seed >= 1 << 53:
        ap.error("--seed must be in [0, 2^53): serve carries it as a JSON number")

    spec = load_spec()
    run = Run(args.workload, args.seed)
    try:
        build()
        if args.trace:
            layer_metrics = traced(run, args.workload)
        elif args.workload == "serve_stream":
            measure_serve(run, args.seconds)
        else:
            measure_suite(run, WORKLOADS[args.workload][0], args.seconds)
    except OperationCrashed as e:
        # The crashed operation counts as attempted and failed; no metric
        # of a run cut short is reported.
        run.check([checker.Failure(e.workload or args.workload, e.cell, args.seed, str(e))])
        for f in run.failures:
            print("FAILED %s" % f)
        print(json.dumps({"correct": False, "attempted": max(run.attempted, 1),
                          "failed": len(run.failures), "metrics": {}}))
        return 1
    except (BenchError, subprocess.SubprocessError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2

    meta = dict(build_metadata(), workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace, engine_workers=1,
                connections=1 if args.workload == "serve_stream" else 0,
                mode=WORKLOADS[args.workload][0])
    meta.update(run.notes)
    for f in run.failures:
        print("FAILED %s" % f)
    out = {"correct": not run.failures, "attempted": run.attempted,
           "failed": len(run.failures)}
    if args.trace:
        # A replay that does not reproduce the oracle has failed the run;
        # its layer times measure some other program, so none are reported.
        values = layer_metrics or {m["name"]: 0.0 for m in spec["per_layer"]}
        detail = {}
    else:
        values, detail = summarize(run)
    kind = "per_layer" if args.trace else "end_to_end"
    out["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                      for m in spec[kind]}
    meta.update(detail)
    for name, m in out["metrics"].items():
        print("%-28s %14.6g %s" % (name, m["value"], m["unit"]))
    if not args.trace:
        fr = detail["fail_ratio"]
        print("%-28s %14.6g %s (%d failed / %d attempted)" %
              ("fail_ratio", fr["value"], fr["unit"], fr["failed"], fr["attempted"]))
        print("cell_tail_ms is p%g (%d of %d samples beyond it)" %
              (detail["cell_tail_percentile"], detail["cell_tail_beyond"], len(run.latencies)))
    print("meta " + json.dumps(meta, sort_keys=True))
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "%s-%d-trace%d.json" %
                           (args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"meta": meta, "result": out}, f, indent=1)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
