"""Output checks for the MemSentry benchmark.

Every operation (one workload cell) is compared byte for byte with the
oracle: an untimed reference pass of the same mode and seed, run in a fresh
process with cells in enumeration order and MEMSENTRY_FASTPATH=check, which
re-derives every decoded micro-op from its source instruction and aborts on
a divergence instead of returning a wrong payload.
"""

import re

FNV_OFFSET = 1469598103934665603
FNV_PRIME = 1099511628211
MASK64 = (1 << 64) - 1

# A serve run_cell success reply, as src/eval/serve.cc serializes it:
# {"ok":true,"crc":"<16 hex digits>","payload":<payload>}
_REPLY_HEAD = re.compile(rb'^\{"ok":true,"crc":"([0-9a-f]{16})","payload":')


def fnv1a64(data):
    """FNV-1a 64 over bytes: the digest serve's run_cell replies carry."""
    h = FNV_OFFSET
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & MASK64
    return h


def read_payload_file(path):
    """Lines of "<workload>\\t<cell>\\t<payload>" as (workload, cell, bytes)."""
    out = []
    with open(path, "rb") as f:
        for raw in f:
            parts = raw.rstrip(b"\n").split(b"\t", 2)
            if len(parts) != 3:
                raise ValueError("malformed payload line in %s: %r" % (path, raw[:80]))
            out.append((parts[0].decode(), parts[1].decode(), parts[2]))
    return out


def parse_run_cell_reply(line):
    """Splits one serve reply line into (payload bytes, error or None).

    A reply fails when it is not ok:true, does not parse, or its crc does
    not match the payload bytes it carries.
    """
    line = line.rstrip(b"\n")
    m = _REPLY_HEAD.match(line)
    if m is None or not line.endswith(b"}"):
        return None, "not an ok reply: %s" % line[:160].decode("utf-8", "replace")
    payload = line[m.end():-1]
    if "%016x" % fnv1a64(payload) != m.group(1).decode():
        return payload, "bad crc"
    return payload, None


class Failure:
    """One failed operation, printed as (workload, cell, seed)."""

    def __init__(self, workload, cell, seed, reason):
        self.workload = workload
        self.cell = cell
        self.seed = seed
        self.reason = reason

    def __str__(self):
        return "(%s, %s, %s): %s" % (self.workload, self.cell, self.seed, self.reason)


def compare_payload(oracle_entry, workload, cell, payload, seed):
    """Checks one operation against its oracle entry. None when it passes."""
    o_workload, o_cell, o_payload = oracle_entry
    if (o_workload, o_cell) != (workload, cell):
        return Failure(workload, cell, seed,
                       "out of order: oracle has %s/%s here" % (o_workload, o_cell))
    if not payload:
        return Failure(workload, cell, seed, "no payload (the cell threw or failed)")
    if payload != o_payload:
        return Failure(workload, cell, seed, "payload differs from the oracle: %s" %
                       _first_difference(payload, o_payload))
    return None


def compare_pass(oracle, lines, seed):
    """Compares a whole pass (payload-file lines) with the oracle."""
    failures = []
    for i, entry in enumerate(oracle):
        if i >= len(lines):
            failures.append(Failure(entry[0], entry[1], seed, "missing from the pass"))
            continue
        f = compare_payload(entry, lines[i][0], lines[i][1], lines[i][2], seed)
        if f is not None:
            failures.append(f)
    for extra in lines[len(oracle):]:
        failures.append(Failure(extra[0], extra[1], seed, "not in the oracle"))
    return failures


def report_failures(check, workload, seed):
    """Failures of an assembled report: failed assembly and the baseline gate."""
    out = []
    for job in check.get("failed_jobs", []):
        out.append(Failure(job, "<assemble>", seed, "workload assembly failed"))
    gate = check.get("check", {})
    if gate.get("paper_count") != 15:
        out.append(Failure(workload, "<report>", seed,
                           "expected 15 figure geomeans with paper values, got %s" %
                           gate.get("paper_count")))
    if gate.get("gate_ran") and not gate.get("gate_ok"):
        detail = "; ".join(gate.get("gate_failures", [])[:5]) or gate.get("gate_summary", "")
        out.append(Failure(workload, "<baseline gate>", seed, "gate failed: " + detail))
    return out


def _first_difference(got, want):
    n = min(len(got), len(want))
    i = next((k for k in range(n) if got[k] != want[k]), n)
    lo = max(0, i - 24)
    return "byte %d: got %r, want %r" % (i, got[lo:i + 24], want[lo:i + 24])
