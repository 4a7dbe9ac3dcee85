#!/usr/bin/env python3
"""Tests for the benchmark's output checks.

    python3 perfbench/tests/test_checker.py            # all tests
    python3 perfbench/tests/test_checker.py CheckerTest # no build needed

ToolTest builds the simulator and the benchmark tool into .bench_build/
(like perfbench/run.py) and runs real passes, about a minute in all.
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
sys.path.insert(0, PERFBENCH)

import checker  # noqa: E402
import run as bench  # noqa: E402

DATA = os.path.join(HERE, "data")
DEFAULT_SEED = 0xbe7cd06e


def load_item1():
    with open(os.path.join(DATA, "item1_wrong_payload.json")) as f:
        return json.load(f)


def reply_line(payload):
    return b'{"ok":true,"crc":"%016x","payload":%s}\n' % (checker.fnv1a64(payload), payload)


class CheckerTest(unittest.TestCase):
    ORACLE = [
        ("fig4_callret", "MPK/400.perlbench",
         b'{"normalized":2.25,"base_cycles":1000.5,"prot_cycles":2251.125}'),
        ("mprotect_baseline", "453.povray", b'{"normalized":83.9}'),
    ]

    def test_identical_pass_has_no_failures(self):
        self.assertEqual(checker.compare_pass(self.ORACLE, list(self.ORACLE), 5), [])

    def test_one_flipped_bit_is_a_failed_operation(self):
        for i in range(len(self.ORACLE[0][2])):
            for bit in range(8):
                w, c, p = self.ORACLE[0]
                flipped = bytearray(p)
                flipped[i] ^= 1 << bit
                failures = checker.compare_pass(self.ORACLE, [(w, c, bytes(flipped)),
                                                              self.ORACLE[1]], 5)
                self.assertEqual(len(failures), 1)
                self.assertEqual((failures[0].workload, failures[0].cell, failures[0].seed),
                                 (w, c, 5))

    def test_flipped_bit_in_serve_reply_fails_crc_or_compare(self):
        w, c, p = self.ORACLE[0]
        line = bytearray(reply_line(p))
        start = line.index(b'"payload":') + len(b'"payload":')
        for i in range(start, len(line) - 2):
            corrupted = bytearray(line)
            corrupted[i] ^= 0x01
            payload, error = checker.parse_run_cell_reply(bytes(corrupted))
            failed = error is not None or checker.compare_payload(
                self.ORACLE[0], w, c, payload, 5) is not None
            self.assertTrue(failed, "undetected flip at byte %d" % i)

    def test_good_serve_reply_passes(self):
        payload, error = checker.parse_run_cell_reply(reply_line(self.ORACLE[1][2]))
        self.assertIsNone(error)
        self.assertIsNone(checker.compare_payload(self.ORACLE[1], self.ORACLE[1][0],
                                                  self.ORACLE[1][1], payload, 5))

    def test_error_reply_and_missing_payload_fail(self):
        _, error = checker.parse_run_cell_reply(
            b'{"ok":false,"code":"cell_failed","error":"boom"}\n')
        self.assertIsNotNone(error)
        w, c, _ = self.ORACLE[1]
        self.assertIsNotNone(checker.compare_payload(self.ORACLE[1], w, c, b"", 5))
        failures = checker.compare_pass(self.ORACLE, self.ORACLE[:1], 5)
        self.assertEqual([(f.workload, f.cell) for f in failures], [(w, c)])

    def test_reordered_cells_fail(self):
        failures = checker.compare_pass(self.ORACLE, self.ORACLE[::-1], 5)
        self.assertEqual(len(failures), 2)

    def test_item1_wrong_payload_is_flagged(self):
        item = load_item1()
        wrong = item["payload"].encode()
        self.assertEqual(json.loads(wrong)["normalized"], -1)
        entry = (item["workload"], item["cell"], item["oracle_payload"].encode())
        failure = checker.compare_payload(entry, item["workload"], item["cell"], wrong,
                                          item["seed"])
        self.assertIsNotNone(failure)
        self.assertIn("mprotect_baseline, 453.povray", str(failure))
        # A well-formed reply carrying it (valid crc) is still caught.
        payload, error = checker.parse_run_cell_reply(reply_line(wrong))
        self.assertIsNone(error)
        self.assertIsNotNone(checker.compare_payload(entry, item["workload"], item["cell"],
                                                     payload, item["seed"]))

    def test_gate_failure_fails_the_run(self):
        check = {"failed_jobs": [], "check": {"paper_count": 15, "gate_ran": True,
                                              "gate_ok": False,
                                              "gate_failures": ["fig3/geomean/X: missing"]}}
        failures = checker.report_failures(check, "suite_quick", DEFAULT_SEED)
        self.assertEqual(len(failures), 1)
        self.assertEqual(failures[0].cell, "<baseline gate>")

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        cells = {"quick": 420, "full": 425}
        for mode, min_passes, p in bench.WORKLOADS.values():
            n = cells[mode] * min_passes
            self.assertGreaterEqual(n * (100 - p) / 100, 10)
            # The next candidate up (p99.5 above p99, p99 above p98) would not.
            self.assertLess(n * (100 - (p + (100 - p) / 2)) / 100, 10)


class ToolTest(unittest.TestCase):
    """Runs the real tool: gate, oracle and the item 1 payload."""

    @classmethod
    def setUpClass(cls):
        bench.build()
        cls.oracle_path, cls.oracle, cls.info = bench.oracle("quick", DEFAULT_SEED)

    def assemble(self, baseline):
        code, result = bench.run_tool(["assemble", "--mode", "quick", "--seed",
                                       str(DEFAULT_SEED), "--payloads", self.oracle_path,
                                       "--baseline", baseline])
        self.assertEqual(code, 0)
        return result

    def test_oracle_report_passes_the_committed_gate(self):
        self.assertEqual(checker.report_failures(self.info, "suite_quick", DEFAULT_SEED), [])
        result = self.assemble(os.path.join(bench.ROOT, bench.BASELINES["quick"]))
        self.assertTrue(result["check"]["gate_ran"])
        self.assertTrue(result["check"]["gate_ok"], result["check"]["gate_summary"])

    def test_missing_fidelity_metric_fails_the_gate(self):
        with open(os.path.join(bench.ROOT, bench.BASELINES["quick"])) as f:
            baseline = json.load(f)
        baseline["metrics"]["fig4/geomean/NOT-A-CONFIG"] = {
            "value": 2.0, "kind": "fidelity", "tol": 0.05}
        # The gate counts snapshots beside the baseline: keep it in the tree.
        path = bench.log_path("baselines/seed-quick.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(baseline, f)
        result = self.assemble(path)
        self.assertFalse(result["check"]["gate_ok"])
        self.assertTrue(any("fig4/geomean/NOT-A-CONFIG" in failure
                            for failure in result["check"]["gate_failures"]))
        failures = checker.report_failures(result, "serve_stream", DEFAULT_SEED)
        self.assertEqual([f.cell for f in failures], ["<baseline gate>"])

    def test_item1_wrong_payload_differs_from_the_live_oracle(self):
        item = load_item1()
        entries = [e for e in self.oracle if (e[0], e[1]) == (item["workload"], item["cell"])]
        self.assertEqual(len(entries), 1)
        self.assertEqual(entries[0][2], item["oracle_payload"].encode())
        self.assertIsNotNone(checker.compare_payload(entries[0], item["workload"],
                                                     item["cell"], item["payload"].encode(),
                                                     DEFAULT_SEED))

    def test_check_mode_reference_equals_fast_path_at_two_seeds(self):
        for seed in (7, 40961):
            _, reference, _ = bench.oracle("quick", seed)
            path = bench.log_path("fastpath-%d.tsv" % seed)
            code, result = bench.run_tool(bench.pass_args("quick", seed, path))
            self.assertEqual(code, 0)
            self.assertEqual(result["failed_jobs"], [])
            self.assertEqual(checker.compare_pass(reference, checker.read_payload_file(path),
                                                  seed), [])
            os.remove(path)


if __name__ == "__main__":
    unittest.main()
