"""Self-test of the benchmark's checks, budgets and input generation.

Run from the root of a checkout:

    python3 bench/selftest.py

It shows that faults in the program's output are counted as failed
operations, that a call over its budget is stopped and counted as failed,
and that a seed always generates the same inputs.  Takes a few seconds.
"""

from __future__ import annotations

import json
import unittest
from time import perf_counter

import child
from workloads import WORKLOADS, Op, check_op, op_size, pass_ops, verify_cases


def run(op: Op, budget_s: float = 30.0):
    """(failed operations, exit code, stdout) of one call."""
    code, out, _ = child.run_call(op, budget_s)
    return check_op(op, code, out), code, out


class FaultsAreCounted(unittest.TestCase):
    def test_verify_clean_passes(self):
        op = Op("verify", ("verify", "--max", "6"), (6,))
        self.assertEqual(op_size(op), len(verify_cases(6)))
        self.assertEqual(run(op)[0], 0)

    def test_verify_inject_fault_is_counted(self):
        op = Op("verify", ("verify", "--max", "6", "--inject-fault"), (6,))
        failed, code, _ = run(op)
        self.assertEqual(code, 1)
        self.assertGreaterEqual(failed, 1)

    def test_fuse_outputs_pass(self):
        for op in pass_ops("symbolic", 7, 0)[:6]:
            self.assertEqual(run(op)[0], 0, op.argv)

    def test_corrupted_fuse_csv_is_counted(self):
        op = Op("fuse-csv", ("fuse", "-n", "3", "-m", "2", "--format", "csv"), (3, 2))
        _, code, out = run(op)
        self.assertEqual(check_op(op, code, out), 0)
        lines = out.splitlines()
        self.assertTrue(lines[1].startswith("success,5,0.41666"))
        bad_prob = out.replace("0.416666666667", "0.416666666676")
        bad_size = out.replace("success,5,", "success,6,")
        missing_leaf = "\n".join(lines[:-1]) + "\n"
        for corrupted in (bad_prob, bad_size, missing_leaf, ""):
            self.assertEqual(check_op(op, 0, corrupted), 1, corrupted)

    def test_corrupted_fuse_json_is_counted(self):
        op = Op("fuse-json", ("fuse", "-n", "3", "-m", "2"), (3, 2))
        _, code, out = run(op)
        self.assertEqual(check_op(op, code, out), 0)
        doc = json.loads(out)
        doc["leaves"][1]["cumProb"] += 1e-9
        self.assertEqual(check_op(op, 0, json.dumps(doc)), 1)
        self.assertEqual(check_op(op, 0, out[:-40]), 1)

    def test_wrong_exit_code_and_crash_are_counted(self):
        op = Op("fuse-csv", ("fuse", "-n", "1", "-m", "2", "--format", "csv"), (1, 2))
        failed, code, _ = run(op)
        self.assertEqual((failed, code), (1, 2))
        # A crash inside the program leaves no exit code.
        op = Op("plan", ("plan", "--max", "20000"))
        failed, code, _ = run(op)
        self.assertEqual(failed, 1)
        self.assertNotEqual(code, 0)

    def test_campaign_checks(self):
        plain = pass_ops("campaign-plain", 3, 0)[0]
        recycle = pass_ops("campaign-recycle", 3, 0)[0]

        def doc(target, mean, stderr, recycling):
            return json.dumps(
                {"target": target, "trials": 10, "mean": mean,
                 "stderr": stderr, "recycling": recycling}
            )

        self.assertEqual(check_op(plain, 0, doc(16, 520.0, 10.0, False)), 0)
        self.assertEqual(check_op(plain, 0, doc(16, 560.0, 10.0, False)), 1)
        self.assertEqual(check_op(plain, 0, doc(16, 520.0, 10.0, True)), 1)
        self.assertEqual(check_op(recycle, 0, doc(8, 28.0, 0.2, True)), 0)
        self.assertEqual(check_op(recycle, 0, doc(8, 32.5, 0.2, True)), 1)
        self.assertEqual(check_op(recycle, 2, doc(8, 28.0, 0.2, True)), 1)


class BudgetsStopTraps(unittest.TestCase):
    def assert_stopped(self, op: Op):
        start = perf_counter()
        failed, code, _ = run(op, budget_s=1.0)
        self.assertLess(perf_counter() - start, 5.0)
        self.assertIsNone(code)
        self.assertEqual(failed, 1)

    def test_plan_max_10000_is_stopped(self):
        self.assert_stopped(Op("plan", ("plan", "--seed", "2", "--max", "10000")))

    def test_campaign_target_64_is_stopped(self):
        argv = ("campaign", "--target", "64", "--trials", "10000")
        op = Op("campaign-plain", argv, (64, 10000))
        self.assert_stopped(op)


class InputsAreSeeded(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in WORKLOADS:
            for index in range(3):
                self.assertEqual(
                    pass_ops(workload, 11, index), pass_ops(workload, 11, index)
                )

    def test_seed_and_pass_change_inputs(self):
        for workload in ("symbolic", "campaign-plain", "campaign-recycle"):
            self.assertNotEqual(pass_ops(workload, 11, 0), pass_ops(workload, 12, 0))
            self.assertNotEqual(pass_ops(workload, 11, 0), pass_ops(workload, 11, 1))

    def test_fuse_sizes_in_range(self):
        for op in pass_ops("symbolic", 5, 0):
            self.assertTrue(all(2 <= s <= 1000 for s in op.params))


if __name__ == "__main__":
    unittest.main()
