"""Benchmark workloads: seeded CLI inputs and per-operation output checks.

A workload is a list of passes; a pass is a short, fixed list of ``wfuse``
CLI calls.  Pass ``i`` of a workload is generated from ``(workload, seed,
i)`` alone, so the same seed always gives the same inputs.  The checks are
closed-form or statistical wherever the output is allowed to change under
the output contract (the campaign's RNG stream), and a byte digest only
where the output itself is the contract (the ``plan`` CSV).
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from typing import NamedTuple, Optional

WORKLOADS = ("symbolic", "oracle", "planner", "campaign-plain", "campaign-recycle")

# Per-call wall-clock budget in seconds.  A call over budget is stopped and
# counted as failed, so a trap input (``plan --max 10000`` takes ~127 s,
# ``campaign --target 64`` over 600 s) never hangs a run.
CALL_BUDGET_S = {
    "symbolic": 5.0,
    "oracle": 60.0,
    "planner": 60.0,
    "campaign-plain": 30.0,
    "campaign-recycle": 30.0,
}

FUSE_PAIRS_PER_PASS = 60
# JSON for every pair, CSV for every third.  A CSV call is ~1.6 ms cheaper,
# and an even mix would put the median latency in the gap between the two.
FUSE_CSV_EVERY = 3
FUSE_SIZE_RANGE = (2, 1000)
VERIFY_MAX = 14
PLAN_ARGS = ("plan", "--seed", "2", "--seed", "3", "--max", "2000")
# sha256 of the stdout of ``wfuse plan --seed 2 --seed 3 --max 2000``,
# recorded when the benchmark was defined; that CSV is the output contract.
PLAN_SHA256 = "c2f7d9b44013bd98adf3e1cb643de95375b4969ce431c897a454af63ff876ac0"
PLAIN_TARGET, PLAIN_TRIALS = 16, 4000
RECYCLE_TARGET, RECYCLE_TRIALS = 8, 10000
# DP optimum for seed 2 at seed cost 1, as printed by
# ``wfuse plan --seed 2 --max 16``: the cost the campaign estimates.
DP_OPT_COST = {8: 32.0, 16: 512.0}
# Without recycling the campaign mean must lie within this many standard
# errors of the DP optimum.  At 4000 trials the left tail of the t statistic
# beyond 4 has a measured rate below 5e-5 per call.
CAMPAIGN_SIGMAS = 4.0
FUSE_TOL = 1e-12


class Op(NamedTuple):
    """One CLI call: its argv and the parameters its check needs."""

    kind: str
    argv: tuple[str, ...]
    params: tuple[int, ...] = ()


def pass_ops(workload: str, seed: int, index: int) -> list[Op]:
    """The CLI calls of pass ``index`` of ``workload`` under ``seed``."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    if workload == "symbolic":
        ops = []
        for i in range(FUSE_PAIRS_PER_PASS):
            n, m = (rng.randint(*FUSE_SIZE_RANGE) for _ in range(2))
            base = ("fuse", "-n", str(n), "-m", str(m))
            ops.append(Op("fuse-json", base, (n, m)))
            if i % FUSE_CSV_EVERY == 0:
                ops.append(Op("fuse-csv", base + ("--format", "csv"), (n, m)))
        return ops
    if workload == "oracle":
        return [Op("verify", ("verify", "--max", str(VERIFY_MAX)), (VERIFY_MAX,))]
    if workload == "planner":
        return [Op("plan", PLAN_ARGS)]
    if workload == "campaign-plain":
        target, trials, extra = PLAIN_TARGET, PLAIN_TRIALS, ()
    elif workload == "campaign-recycle":
        target, trials, extra = RECYCLE_TARGET, RECYCLE_TRIALS, ("--recycling",)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    argv = ("campaign", "--target", str(target), "--trials", str(trials))
    argv += extra + ("--rng", str(rng.randrange(2**31)))
    return [Op(workload, argv, (target, trials))]


def verify_cases(max_total: int) -> list[tuple[int, int]]:
    """The (n, m) cases ``verify --max`` runs, in its order."""
    return [
        (n, m)
        for n in range(2, max_total - 1)
        for m in range(2, max_total - 1)
        if n + m <= max_total
    ]


def op_size(op: Op) -> int:
    """Operations one call counts for: one per case in verify, else one."""
    return len(verify_cases(op.params[0])) if op.kind == "verify" else 1


def expected_leaves(n: int, m: int) -> list[tuple[str, list[int], float]]:
    """Closed-form leaf table of one fusion: class, sizes, probability."""
    return [
        ("success", [n + m], (n + m) / (2 * n * m)),
        ("recyclable-pair", [n - 1, m - 1], (n - 1) * (m - 1) / (n * m)),
        ("recyclable-merged", [n + m - 2], (n + m - 2) / (2 * n * m)),
    ]


def _leaves_match(got: list[tuple[str, list[int], float]], n: int, m: int) -> bool:
    want = expected_leaves(n, m)
    return len(got) == len(want) and all(
        g[0] == w[0] and g[1] == w[1] and abs(g[2] - w[2]) <= FUSE_TOL
        for g, w in zip(got, want)
    )


def _check_fuse_json(out: str, n: int, m: int) -> bool:
    doc = json.loads(out)
    got = [(lf["class"], lf["sizes"], lf["cumProb"]) for lf in doc["leaves"]]
    return doc["n"] == n and doc["m"] == m and _leaves_match(got, n, m)


def _check_fuse_csv(out: str, n: int, m: int) -> bool:
    lines = out.splitlines()
    if not lines or lines[0] != "class,sizes,cumProb":
        return False
    got = []
    for line in lines[1:]:
        cls, sizes, prob = line.split(",")
        got.append((cls, [int(s) for s in sizes.split("+")], float(prob)))
    return _leaves_match(got, n, m)


_CASE_LINE = re.compile(r"^n=(\d+) m=(\d+) .* (PASS|FAIL)$")


def _verify_failures(out: str, code: Optional[int], max_total: int) -> int:
    """Cases of one verify call that did not report PASS."""
    cases = verify_cases(max_total)
    passed = set()
    for line in out.splitlines():
        hit = _CASE_LINE.match(line)
        if hit and hit.group(3) == "PASS":
            passed.add((int(hit.group(1)), int(hit.group(2))))
    failed = sum(1 for case in cases if case not in passed)
    summary_ok = out.endswith(f"verified {len(cases)} cases: all PASS\n")
    if failed == 0 and (code != 0 or not summary_ok):
        failed = 1
    return failed


def _check_campaign(out: str, op: Op) -> bool:
    doc = json.loads(out)
    target = op.params[0]
    opt = DP_OPT_COST[target]
    recycling = "--recycling" in op.argv
    if doc["target"] != target or doc["recycling"] is not recycling:
        return False
    if recycling:
        return doc["mean"] < opt
    return abs(doc["mean"] - opt) <= CAMPAIGN_SIGMAS * doc["stderr"]


def check_op(op: Op, code: Optional[int], out: str) -> int:
    """Failed operations of one call; ``code`` is None when the call raised
    or ran over budget."""
    if op.kind == "verify":
        return _verify_failures(out, code, op.params[0])
    if code != 0:
        return 1
    try:
        if op.kind == "fuse-json":
            ok = _check_fuse_json(out, *op.params)
        elif op.kind == "fuse-csv":
            ok = _check_fuse_csv(out, *op.params)
        elif op.kind == "plan":
            ok = hashlib.sha256(out.encode()).hexdigest() == PLAN_SHA256
        else:
            ok = _check_campaign(out, op)
    except (ValueError, KeyError, TypeError, IndexError):
        ok = False
    return 0 if ok else 1
